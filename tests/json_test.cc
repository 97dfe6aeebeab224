#include <gtest/gtest.h>

#include <bit>
#include <cerrno>
#include <cfloat>
#include <climits>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <random>
#include <string>
#include <vector>

#include "json/parser.h"
#include "json/value.h"
#include "json/writer.h"

namespace dj::json {
namespace {

Value MustParse(std::string_view text) {
  auto r = Parse(text);
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  return r.ok() ? std::move(r).value() : Value();
}

// -------------------------------------------------------------- Value ----

TEST(JsonValueTest, TypePredicates) {
  EXPECT_TRUE(Value().is_null());
  EXPECT_TRUE(Value(true).is_bool());
  EXPECT_TRUE(Value(int64_t{3}).is_int());
  EXPECT_TRUE(Value(3.5).is_double());
  EXPECT_TRUE(Value(int64_t{3}).is_number());
  EXPECT_TRUE(Value("s").is_string());
  EXPECT_TRUE(Value(Array{}).is_array());
  EXPECT_TRUE(Value(Object{}).is_object());
}

TEST(JsonValueTest, IntDoubleNumericEquality) {
  EXPECT_EQ(Value(int64_t{2}), Value(2.0));
  EXPECT_NE(Value(int64_t{2}), Value(2.5));
}

TEST(JsonValueTest, ObjectPreservesInsertionOrder) {
  Object o;
  o.Set("z", Value(1));
  o.Set("a", Value(2));
  EXPECT_EQ(o.entries()[0].first, "z");
  EXPECT_EQ(o.entries()[1].first, "a");
}

TEST(JsonValueTest, ObjectSetOverwrites) {
  Object o;
  o.Set("k", Value(1));
  o.Set("k", Value(9));
  EXPECT_EQ(o.size(), 1u);
  EXPECT_EQ(o.Find("k")->as_int(), 9);
}

TEST(JsonValueTest, ObjectErase) {
  Object o;
  o.Set("k", Value(1));
  EXPECT_TRUE(o.Erase("k"));
  EXPECT_FALSE(o.Erase("k"));
  EXPECT_TRUE(o.empty());
}

TEST(JsonValueTest, TypedGettersWithDefaults) {
  Value v = MustParse(R"({"b": true, "i": 5, "d": 1.5, "s": "x"})");
  EXPECT_TRUE(v.GetBool("b", false));
  EXPECT_EQ(v.GetInt("i", 0), 5);
  EXPECT_DOUBLE_EQ(v.GetDouble("d", 0), 1.5);
  EXPECT_EQ(v.GetString("s", ""), "x");
  EXPECT_EQ(v.GetInt("missing", -1), -1);
  EXPECT_EQ(v.GetString("i", "def"), "def");  // wrong type -> default
  EXPECT_EQ(v.GetInt("d", 0), 1);             // double truncates to int
}

// ------------------------------------------------------------- Parser ----

TEST(JsonParserTest, ParsesScalars) {
  EXPECT_TRUE(MustParse("null").is_null());
  EXPECT_EQ(MustParse("true").as_bool(), true);
  EXPECT_EQ(MustParse("-17").as_int(), -17);
  EXPECT_DOUBLE_EQ(MustParse("2.5e-3").as_double(), 0.0025);
  EXPECT_EQ(MustParse("\"hi\"").as_string(), "hi");
}

TEST(JsonParserTest, IntegersStayIntegers) {
  Value v = MustParse("[1, 1.0]");
  EXPECT_TRUE(v.as_array()[0].is_int());
  EXPECT_TRUE(v.as_array()[1].is_double());
}

TEST(JsonParserTest, HugeIntegerFallsBackToDouble) {
  Value v = MustParse("123456789012345678901234567890");
  EXPECT_TRUE(v.is_double());
}

TEST(JsonParserTest, NestedStructures) {
  Value v = MustParse(R"({"a": [1, {"b": [true, null]}]})");
  const Value* b = v.as_object().Find("a");
  ASSERT_NE(b, nullptr);
  EXPECT_EQ(b->as_array()[1].as_object().Find("b")->as_array().size(), 2u);
}

TEST(JsonParserTest, StringEscapes) {
  EXPECT_EQ(MustParse(R"("a\nb\t\"c\"\\")").as_string(), "a\nb\t\"c\"\\");
}

TEST(JsonParserTest, UnicodeEscapes) {
  EXPECT_EQ(MustParse(R"("é")").as_string(), "\xC3\xA9");       // é
  EXPECT_EQ(MustParse(R"("中")").as_string(), "\xE4\xB8\xAD");   // 中
  // Surrogate pair: U+1F600.
  EXPECT_EQ(MustParse(R"("😀")").as_string(),
            "\xF0\x9F\x98\x80");
}

TEST(JsonParserTest, RejectsUnpairedSurrogate) {
  EXPECT_FALSE(Parse(R"("\ud83d")").ok());
}

TEST(JsonParserTest, ErrorsCarryLineAndColumn) {
  auto r = Parse("{\n  \"a\": oops\n}");
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("line 2"), std::string::npos);
}

TEST(JsonParserTest, RejectsTrailingGarbage) {
  EXPECT_FALSE(Parse("{} extra").ok());
}

TEST(JsonParserTest, RejectsUnterminatedStructures) {
  EXPECT_FALSE(Parse("[1, 2").ok());
  EXPECT_FALSE(Parse("{\"a\": 1").ok());
  EXPECT_FALSE(Parse("\"abc").ok());
}

TEST(JsonParserTest, LenientCommentsAndTrailingCommas) {
  Value v = MustParse(R"({
    // a line comment
    "a": 1,  # another comment
    "b": [1, 2,],
  })");
  EXPECT_EQ(v.GetInt("a", 0), 1);
  EXPECT_EQ(v.as_object().Find("b")->as_array().size(), 2u);
}

TEST(JsonParserTest, StrictModeRejectsExtensions) {
  EXPECT_FALSE(ParseStrict("{\"a\": 1,}").ok());
  EXPECT_FALSE(ParseStrict("// c\n1").ok());
  EXPECT_TRUE(ParseStrict("{\"a\": 1}").ok());
}

TEST(JsonParserTest, EmptyContainers) {
  EXPECT_TRUE(MustParse("[]").as_array().empty());
  EXPECT_TRUE(MustParse("{}").as_object().empty());
}

// ------------------------------------------------------------- Writer ----

TEST(JsonWriterTest, CompactRoundTrip) {
  std::string text =
      R"({"s":"x","i":3,"d":2.5,"b":true,"n":null,"a":[1,2],"o":{"k":"v"}})";
  Value v = MustParse(text);
  EXPECT_EQ(Write(v), text);
}

TEST(JsonWriterTest, DoubleAlwaysReparsesAsDouble) {
  Value v(2.0);
  std::string out = Write(v);
  EXPECT_EQ(out, "2.0");
  EXPECT_TRUE(MustParse(out).is_double());
}

TEST(JsonWriterTest, DoubleRoundTripsPrecisely) {
  double cases[] = {0.1, 1.0 / 3.0, 1e-300, 12345.6789, -0.0};
  for (double d : cases) {
    Value v(d);
    EXPECT_DOUBLE_EQ(MustParse(Write(v)).as_double(), d);
  }
}

TEST(JsonWriterTest, EscapesControlCharacters) {
  EXPECT_EQ(Write(Value(std::string("a\x01""b"))), "\"a\\u0001b\"");
  EXPECT_EQ(Write(Value("tab\there")), "\"tab\\there\"");
}

TEST(JsonWriterTest, NonFiniteBecomesNull) {
  EXPECT_EQ(Write(Value(std::numeric_limits<double>::infinity())), "null");
}

TEST(JsonWriterTest, PrettyPrintIndents) {
  Value v = MustParse(R"({"a": [1]})");
  std::string pretty = Write(v, {.pretty = true});
  EXPECT_NE(pretty.find("\n  \"a\""), std::string::npos);
}

TEST(JsonWriterTest, DeterministicOutputForEqualInput) {
  std::string text = R"({"z": 1, "a": {"c": [1, 2.5, "x"]}})";
  EXPECT_EQ(Write(MustParse(text)), Write(MustParse(text)));
}

// ------------------------------------------- Number differentials ----
//
// The writer and the parser format and read numbers with to_chars /
// from_chars. The references below are the libc versions they replaced
// (C locale): every byte written and every token accepted must agree.

std::string ReferenceWriteDouble(double d) {
  char buf[64];
  for (int prec : {15, 16, 17}) {
    std::snprintf(buf, sizeof(buf), "%.*g", prec, d);
    if (std::strtod(buf, nullptr) == d) break;
  }
  std::string out = buf;
  if (out.find_first_of(".eE") == std::string::npos &&
      out.find("inf") == std::string::npos &&
      out.find("nan") == std::string::npos) {
    out += ".0";
  }
  return out;
}

/// The strtoll/strtod token conversion the parser used to run: false for a
/// token either rejects, else the int64 or double it produced.
bool ReferenceNumber(const std::string& token, bool is_double, Value* out) {
  if (!is_double) {
    errno = 0;
    char* end = nullptr;
    long long v = std::strtoll(token.c_str(), &end, 10);
    if (errno == 0 && end == token.c_str() + token.size()) {
      *out = Value(static_cast<int64_t>(v));
      return true;
    }
  }
  errno = 0;
  char* end = nullptr;
  double d = std::strtod(token.c_str(), &end);
  if (errno != 0 || end != token.c_str() + token.size() || !std::isfinite(d)) {
    return false;
  }
  *out = Value(d);
  return true;
}

/// Same type and same bits (so -0.0 and 0.0 differ).
bool SameNumber(const Value& a, const Value& b) {
  if (a.is_int() != b.is_int() || a.is_double() != b.is_double()) return false;
  if (a.is_int()) return a.as_int() == b.as_int();
  return std::bit_cast<uint64_t>(a.as_double()) ==
         std::bit_cast<uint64_t>(b.as_double());
}

/// Runs `token` through both parsers (the scalar one and the indexed fast
/// path) and the reference; all three must accept or reject alike and
/// agree on the value. Tokens use only the number-scanner alphabet, so the
/// scanner takes the whole text as one token.
void ExpectParsesLikeReference(const std::string& token) {
  const bool is_double = token.find_first_of(".eE") != std::string::npos;
  Value want;
  const bool want_ok = ReferenceNumber(token, is_double, &want);
  auto scalar = ParseStrict(token);
  ASSERT_EQ(scalar.ok(), want_ok) << "token '" << token << "'";
  Value indexed;
  const bool indexed_ok =
      TryParseStrictIndexed(token, nullptr, 0, 0, &indexed);
  ASSERT_EQ(indexed_ok, want_ok) << "token '" << token << "'";
  if (!want_ok) return;
  ASSERT_TRUE(SameNumber(scalar.value(), want)) << "token '" << token << "'";
  ASSERT_TRUE(SameNumber(indexed, want)) << "token '" << token << "'";
}

/// The exact decimal expansion of m * 2^-q (long division by 2 on a digit
/// string), e.g. the 1076-character literal of the smallest subnormal.
std::string ExactDyadic(uint64_t m, int q) {
  std::string digits = std::to_string(m);  // integer digits, no point
  size_t frac = 0;                         // digits after the point
  for (int i = 0; i < q; ++i) {
    std::string half;
    int carry = 0;
    digits.push_back('0');  // one more fractional digit keeps it exact
    ++frac;
    for (char c : digits) {
      const int v = carry * 10 + (c - '0');
      half.push_back(static_cast<char>('0' + v / 2));
      carry = v % 2;
    }
    digits = half;
  }
  while (digits.size() <= frac) digits.insert(digits.begin(), '0');
  digits.insert(digits.end() - static_cast<std::ptrdiff_t>(frac), '.');
  const size_t lead = digits.find_first_not_of('0');
  if (lead != std::string::npos && digits[lead] == '.') {
    digits.erase(0, lead - 1);
  } else {
    digits.erase(0, lead);
  }
  while (digits.back() == '0') digits.pop_back();
  return digits;
}

std::vector<double> EdgeDoubles() {
  std::vector<double> v = {0.0,
                           -0.0,
                           DBL_MAX,
                           -DBL_MAX,
                           DBL_MIN,
                           -DBL_MIN,
                           DBL_TRUE_MIN,
                           -DBL_TRUE_MIN,
                           std::nextafter(DBL_MIN, 0.0),
                           std::nextafter(DBL_MIN, 1.0),
                           static_cast<double>(INT64_MIN),
                           static_cast<double>(INT64_MAX),
                           0.1,
                           1.0 / 3.0,
                           5e-324,
                           1e-310,
                           9007199254740992.0,
                           9007199254740993.0,
                           1e21,
                           1e22,
                           123456789012345678.0};
  // Integral doubles around 1e15..1e17, where %.15g/%.16g/%.17g start to
  // differ and the ".0" suffix rule decides.
  for (double base : {1e15, 1e16, 1e17, 9007199254740992.0}) {
    for (int k = -40; k <= 40; ++k) {
      double d = base;
      for (int s = 0; s < std::abs(k); ++s) {
        d = std::nextafter(d, k < 0 ? 0.0 : DBL_MAX);
      }
      v.push_back(d);
      v.push_back(-d);
    }
  }
  return v;
}

TEST(JsonNumberTest, WriteNumberMatchesSnprintfStrtodReference) {
  std::vector<double> cases = EdgeDoubles();
  std::mt19937_64 rng(20261019);
  // Seeded random bit patterns (every exponent, NaN/Inf included),
  // subnormals (exponent field 0), and the [0, 1) ratios stats carry.
  for (int i = 0; i < 150000; ++i) {
    cases.push_back(std::bit_cast<double>(rng()));
  }
  for (int i = 0; i < 30000; ++i) {
    cases.push_back(std::bit_cast<double>(rng() & 0x800FFFFFFFFFFFFFull));
  }
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  for (int i = 0; i < 30000; ++i) cases.push_back(unit(rng));
  for (double d : cases) {
    const std::string got = Write(Value(d));
    const std::string want =
        std::isfinite(d) ? ReferenceWriteDouble(d) : std::string("null");
    ASSERT_EQ(got, want) << "bits " << std::bit_cast<uint64_t>(d);
  }
}

TEST(JsonNumberTest, WriteIntMatchesPrintf) {
  std::vector<int64_t> cases = {0, 1, -1, INT64_MIN, INT64_MAX,
                                INT64_MIN + 1, INT64_MAX - 1};
  std::mt19937_64 rng(7);
  for (int i = 0; i < 10000; ++i) {
    cases.push_back(static_cast<int64_t>(rng()) >> (rng() % 64));
  }
  for (int64_t v : cases) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(v));
    ASSERT_EQ(Write(Value(v)), buf);
  }
}

TEST(JsonNumberTest, ParserMatchesStrtollStrtodOnEdgeTokens) {
  std::vector<std::string> tokens = {
      "0", "-0", "+0", "+5", "-", "+", ".", "5.", ".5", "-.5", "+.5", "00",
      "007", "-007", "1e", "1e+", "1e-", "e5", "1.5.3", "1..2", "1e5e5",
      "1.-2", "1.+2", "-e1", "+e1", ".e1", "1E5", "1E+05", "-1.5E-3",
      "9223372036854775807", "9223372036854775808", "-9223372036854775808",
      "-9223372036854775809", "+9223372036854775807", "99999999999999999999",
      "123456789012345678", "1234567890123456789", "1e308",
      "1.7976931348623157e308", "1.7976931348623158e308",
      "1.7976931348623159e308", "1e309", "-1e309", "2.2250738585072014e-308",
      "2.2250738585072013e-308", "2.2250738585072012e-308",
      "2.2250738585072011e-308", "2.225073858507201136e-308",
      "-2.2250738585072012e-308", "4.9406564584124654e-324",
      "2.4703282292062327e-324", "2.4703282292062328e-324", "3e-324",
      "1e-310", "-1e-310", "1e-320", "1e-400", "-1e-400", "0e-999",
      "0.0e99999999999999999999", "1e-99999999999999999999",
      "1e99999999999999999999", "0.000000000000000000000000000001e-300",
      "100000000000000000000000000000e-338"};
  // Exact literals: an exact subnormal is not flagged by strtod, the same
  // digits plus one more are. DBL_MIN - 2^-1076 is where 53-bit rounding
  // first reaches DBL_MIN: it is accepted, anything below it is tiny.
  // (glibc misses the inexact flag on some 700+ digit tokens that fall
  // between two subnormals, e.g. the largest subnormal + 2^-1076; the
  // parser rejects those as IEEE tininess says, so they are left out.)
  for (const auto& [m, q] : std::vector<std::pair<uint64_t, int>>{
           {1, 1074},
           {3, 1074},
           {1, 1030},
           {(uint64_t{1} << 52) - 1, 1074},
           {1, 1022},
           {(uint64_t{1} << 54) - 1, 1076},
           {(uint64_t{1} << 54) - 2, 1076},
           {(uint64_t{1} << 54) + 1, 1076}}) {
    const std::string exact = ExactDyadic(m, q);
    tokens.push_back(exact);
    tokens.push_back("-" + exact);
    tokens.push_back(exact + "1");
    tokens.push_back(exact + "0e0");
    tokens.push_back("0" + exact + "e+0");
  }
  for (double d : EdgeDoubles()) {
    char buf[64];
    for (int prec : {15, 16, 17, 25}) {
      std::snprintf(buf, sizeof(buf), "%.*g", prec, d);
      tokens.push_back(buf);
    }
  }
  for (const std::string& t : tokens) ExpectParsesLikeReference(t);
}

TEST(JsonNumberTest, ParserMatchesStrtollStrtodOnSeededTokens) {
  std::mt19937_64 rng(1019);
  // Token soup from the scanner's alphabet: mostly malformed.
  const char kAlphabet[] = "0123456789.eE+-";
  for (int i = 0; i < 40000; ++i) {
    std::string t;
    const size_t len = 1 + rng() % 24;
    for (size_t k = 0; k < len; ++k) t.push_back(kAlphabet[rng() % 15]);
    ExpectParsesLikeReference(t);
  }
  // Well-formed numbers at every magnitude, subnormals and the DBL_MIN
  // boundary included.
  for (int i = 0; i < 40000; ++i) {
    const std::string digits = std::to_string(rng() % 100000000);
    const std::string t =
        digits.substr(0, 1) + "." + digits.substr(1) + "e" +
        std::to_string(static_cast<int>(rng() % 700) - 350);
    ExpectParsesLikeReference(t);
    std::string near = "2.225073858507201";
    for (size_t k = 0, n = 1 + rng() % 6; k < n; ++k) {
      near.push_back(static_cast<char>('0' + rng() % 10));
    }
    ExpectParsesLikeReference(near + "e-308");
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.*g", static_cast<int>(1 + rng() % 20),
                  std::bit_cast<double>(rng() & 0x000FFFFFFFFFFFFFull));
    ExpectParsesLikeReference(buf);
  }
}

TEST(JsonNumberTest, EscapesEveryControlByteAsLowercaseHex) {
  for (int c = 0; c < 0x20; ++c) {
    const std::string s(1, static_cast<char>(c));
    const std::string got = EscapeString(s);
    if (c == '\b' || c == '\f' || c == '\n' || c == '\r' || c == '\t') {
      continue;
    }
    char buf[16];
    std::snprintf(buf, sizeof(buf), "\"\\u%04x\"", c);
    EXPECT_EQ(got, buf);
  }
}

}  // namespace
}  // namespace dj::json
