#include "json/parser.h"

#include <algorithm>
#include <cfloat>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <string>
#include <system_error>
#include <vector>

namespace dj::json {
namespace {

bool IsDigit(char c) { return c >= '0' && c <= '9'; }

/// Compares the magnitude of a valid decimal float literal `token` with
/// m * 2^-q exactly: -1, 0 or +1. Both sides become 0.DIGITS x 10^point
/// with no leading or trailing zero digit; m * 2^-q is m * 5^q x 10^-q,
/// so its digits come from a small base-1e9 bignum. Only called on the
/// rare tokens whose double is subnormal or DBL_MIN, where strtod's ERANGE
/// depends on the exact value.
int CompareToDyadic(std::string_view token, uint64_t m, int q) {
  std::string digits;
  int64_t point = 0;
  size_t i = token[0] == '-' || token[0] == '+' ? 1 : 0;
  bool in_fraction = false;
  for (; i < token.size() && token[i] != 'e' && token[i] != 'E'; ++i) {
    if (token[i] == '.') {
      in_fraction = true;
    } else if (digits.empty() && token[i] == '0') {
      if (in_fraction) --point;
    } else {
      digits.push_back(token[i]);
      if (!in_fraction) ++point;
    }
  }
  if (i < token.size()) {
    ++i;
    const bool negative = token[i] == '-';
    if (token[i] == '-' || token[i] == '+') ++i;
    int64_t exp = 0;
    for (; i < token.size(); ++i) {
      exp = std::min<int64_t>(exp * 10 + (token[i] - '0'), int64_t{1} << 40);
    }
    point += negative ? -exp : exp;
  }
  while (!digits.empty() && digits.back() == '0') digits.pop_back();

  std::vector<uint64_t> limbs;  // little-endian, base 1e9
  for (; m != 0; m /= 1000000000) limbs.push_back(m % 1000000000);
  for (int left = q; left > 0; left -= 13) {
    uint64_t factor = 1;  // 5^13 at most: limb * factor fits in 64 bits
    for (int k = 0; k < std::min(left, 13); ++k) factor *= 5;
    uint64_t carry = 0;
    for (uint64_t& limb : limbs) {
      const uint64_t v = limb * factor + carry;
      limb = v % 1000000000;
      carry = v / 1000000000;
    }
    for (; carry != 0; carry /= 1000000000) {
      limbs.push_back(carry % 1000000000);
    }
  }
  std::string other;
  for (size_t l = limbs.size(); l-- > 0;) {
    char chunk[9];
    uint64_t v = limbs[l];
    for (int k = 8; k >= 0; --k, v /= 10) {
      chunk[k] = static_cast<char>('0' + v % 10);
    }
    other.append(chunk, 9);
  }
  const size_t lead = other.find_first_not_of('0');
  other.erase(0, lead == std::string::npos ? other.size() : lead);
  const int64_t other_point = static_cast<int64_t>(other.size()) - q;
  while (!other.empty() && other.back() == '0') other.pop_back();

  if (digits.empty() || other.empty()) {
    return digits.empty() == other.empty() ? 0 : (digits.empty() ? -1 : 1);
  }
  if (point != other_point) return point < other_point ? -1 : 1;
  const int c = digits.compare(other);
  return c < 0 ? -1 : (c > 0 ? 1 : 0);
}

/// Converts a scanned number token to a Value. Single source of truth for
/// number semantics: both the scalar parser and the indexed fast path call
/// this, so they cannot disagree on a value. Returns false when the token
/// is malformed (the caller turns that into its own error/fallback).
///
/// Accepts and rejects what strtoll/strtod do in the C locale, with the
/// same values, without the locale or a NUL-terminated copy: a leading '+'
/// is allowed, an integer that overflows int64 becomes a double, and a
/// double strtod flags with ERANGE is rejected — overflow, underflow to
/// zero, and (glibc) an inexact result that is tiny, i.e. below DBL_MIN
/// once rounded to 53 bits with an unbounded exponent. The one known
/// difference: glibc misses the inexact flag on some 700+ digit tokens that
/// fall between two subnormals, which are rejected here.
bool NumberTokenToValue(std::string_view token, bool is_double, Value* out) {
  std::string_view body = token;
  if (body.size() > 1 && body[0] == '+' && body[1] != '-' && body[1] != '+') {
    body.remove_prefix(1);
  }
  const char* const first = body.data();
  const char* const last = first + body.size();
  if (!is_double) {
    int64_t v = 0;
    auto r = std::from_chars(first, last, v);
    if (r.ec == std::errc() && r.ptr == last) {
      *out = Value(v);
      return true;
    }
    // Fall through: integer overflow becomes a double.
  }
  double d = 0;
  auto r = std::from_chars(first, last, d);
  if (r.ec != std::errc() || r.ptr != last) return false;
  const double mag = std::fabs(d);
  if (mag != 0 && mag < DBL_MIN) {
    // Subnormal: tiny, so strtod flags it unless it is exact.
    const auto k = static_cast<uint64_t>(mag / DBL_TRUE_MIN);
    if (CompareToDyadic(token, k, 1074) != 0) return false;
  } else if (mag == DBL_MIN) {
    // Rounded up to DBL_MIN: tiny when below DBL_MIN - 2^-1076, the point
    // where 53-bit rounding reaches DBL_MIN.
    if (CompareToDyadic(token, (uint64_t{1} << 54) - 1, 1076) < 0) {
      return false;
    }
  }
  *out = Value(d);
  return true;
}

class Parser {
 public:
  Parser(std::string_view text, bool lenient)
      : text_(text), lenient_(lenient) {}

  Result<Value> Run() {
    SkipWhitespace();
    Value v;
    Status s = ParseValue(&v);
    if (!s.ok()) return s;
    SkipWhitespace();
    if (pos_ != text_.size()) {
      return Error("trailing characters after JSON document");
    }
    return v;
  }

 private:
  Status Error(const std::string& msg) const {
    // Report 1-based line/column for usable recipe diagnostics.
    int line = 1, col = 1;
    for (size_t i = 0; i < pos_ && i < text_.size(); ++i) {
      if (text_[i] == '\n') {
        ++line;
        col = 1;
      } else {
        ++col;
      }
    }
    return Status::Corruption(msg + " at line " + std::to_string(line) +
                              ", column " + std::to_string(col));
  }

  bool AtEnd() const { return pos_ >= text_.size(); }
  char Peek() const { return text_[pos_]; }

  void SkipWhitespace() {
    while (!AtEnd()) {
      char c = Peek();
      if (c == ' ' || c == '\t' || c == '\n' || c == '\r') {
        ++pos_;
      } else if (lenient_ && c == '#') {
        SkipToLineEnd();
      } else if (lenient_ && c == '/' && pos_ + 1 < text_.size() &&
                 text_[pos_ + 1] == '/') {
        SkipToLineEnd();
      } else {
        break;
      }
    }
  }

  void SkipToLineEnd() {
    while (!AtEnd() && Peek() != '\n') ++pos_;
  }

  Status ParseValue(Value* out) {
    if (AtEnd()) return Error("unexpected end of input");
    switch (Peek()) {
      case '{':
        return ParseObject(out);
      case '[':
        return ParseArray(out);
      case '"':
        return ParseString(out);
      case 't':
      case 'f':
        return ParseBool(out);
      case 'n':
        return ParseNull(out);
      default:
        return ParseNumber(out);
    }
  }

  Status ParseObject(Value* out) {
    ++pos_;  // consume '{'
    Object obj;
    SkipWhitespace();
    if (!AtEnd() && Peek() == '}') {
      ++pos_;
      *out = Value(std::move(obj));
      return Status::Ok();
    }
    while (true) {
      SkipWhitespace();
      if (AtEnd() || Peek() != '"') return Error("expected object key");
      Value key;
      DJ_RETURN_IF_ERROR(ParseString(&key));
      SkipWhitespace();
      if (AtEnd() || Peek() != ':') return Error("expected ':'");
      ++pos_;
      SkipWhitespace();
      Value value;
      DJ_RETURN_IF_ERROR(ParseValue(&value));
      obj.Set(std::move(key.as_string()), std::move(value));
      SkipWhitespace();
      if (AtEnd()) return Error("unterminated object");
      if (Peek() == ',') {
        ++pos_;
        SkipWhitespace();
        if (lenient_ && !AtEnd() && Peek() == '}') {
          ++pos_;
          break;
        }
        continue;
      }
      if (Peek() == '}') {
        ++pos_;
        break;
      }
      return Error("expected ',' or '}'");
    }
    *out = Value(std::move(obj));
    return Status::Ok();
  }

  Status ParseArray(Value* out) {
    ++pos_;  // consume '['
    Array arr;
    SkipWhitespace();
    if (!AtEnd() && Peek() == ']') {
      ++pos_;
      *out = Value(std::move(arr));
      return Status::Ok();
    }
    while (true) {
      SkipWhitespace();
      Value v;
      DJ_RETURN_IF_ERROR(ParseValue(&v));
      arr.push_back(std::move(v));
      SkipWhitespace();
      if (AtEnd()) return Error("unterminated array");
      if (Peek() == ',') {
        ++pos_;
        SkipWhitespace();
        if (lenient_ && !AtEnd() && Peek() == ']') {
          ++pos_;
          break;
        }
        continue;
      }
      if (Peek() == ']') {
        ++pos_;
        break;
      }
      return Error("expected ',' or ']'");
    }
    *out = Value(std::move(arr));
    return Status::Ok();
  }

  Status ParseString(Value* out) {
    ++pos_;  // consume '"'
    std::string s;
    while (true) {
      if (AtEnd()) return Error("unterminated string");
      char c = text_[pos_++];
      if (c == '"') break;
      if (c != '\\') {
        s.push_back(c);
        continue;
      }
      if (AtEnd()) return Error("unterminated escape");
      char e = text_[pos_++];
      switch (e) {
        case '"':
          s.push_back('"');
          break;
        case '\\':
          s.push_back('\\');
          break;
        case '/':
          s.push_back('/');
          break;
        case 'b':
          s.push_back('\b');
          break;
        case 'f':
          s.push_back('\f');
          break;
        case 'n':
          s.push_back('\n');
          break;
        case 'r':
          s.push_back('\r');
          break;
        case 't':
          s.push_back('\t');
          break;
        case 'u': {
          uint32_t cp = 0;
          DJ_RETURN_IF_ERROR(ParseHex4(&cp));
          // Surrogate pair handling.
          if (cp >= 0xD800 && cp <= 0xDBFF) {
            if (pos_ + 1 < text_.size() && text_[pos_] == '\\' &&
                text_[pos_ + 1] == 'u') {
              pos_ += 2;
              uint32_t low = 0;
              DJ_RETURN_IF_ERROR(ParseHex4(&low));
              if (low >= 0xDC00 && low <= 0xDFFF) {
                cp = 0x10000 + ((cp - 0xD800) << 10) + (low - 0xDC00);
              } else {
                return Error("invalid low surrogate");
              }
            } else {
              return Error("unpaired high surrogate");
            }
          } else if (cp >= 0xDC00 && cp <= 0xDFFF) {
            return Error("unpaired low surrogate");
          }
          AppendUtf8(cp, &s);
          break;
        }
        default:
          return Error("invalid escape character");
      }
    }
    *out = Value(std::move(s));
    return Status::Ok();
  }

  Status ParseHex4(uint32_t* out) {
    if (pos_ + 4 > text_.size()) return Error("truncated \\u escape");
    uint32_t v = 0;
    for (int i = 0; i < 4; ++i) {
      char c = text_[pos_++];
      v <<= 4;
      if (c >= '0' && c <= '9') {
        v |= static_cast<uint32_t>(c - '0');
      } else if (c >= 'a' && c <= 'f') {
        v |= static_cast<uint32_t>(c - 'a' + 10);
      } else if (c >= 'A' && c <= 'F') {
        v |= static_cast<uint32_t>(c - 'A' + 10);
      } else {
        return Error("invalid hex digit in \\u escape");
      }
    }
    *out = v;
    return Status::Ok();
  }

  static void AppendUtf8(uint32_t cp, std::string* s) {
    if (cp < 0x80) {
      s->push_back(static_cast<char>(cp));
    } else if (cp < 0x800) {
      s->push_back(static_cast<char>(0xC0 | (cp >> 6)));
      s->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    } else if (cp < 0x10000) {
      s->push_back(static_cast<char>(0xE0 | (cp >> 12)));
      s->push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
      s->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    } else {
      s->push_back(static_cast<char>(0xF0 | (cp >> 18)));
      s->push_back(static_cast<char>(0x80 | ((cp >> 12) & 0x3F)));
      s->push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
      s->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    }
  }

  Status ParseBool(Value* out) {
    if (text_.substr(pos_, 4) == "true") {
      pos_ += 4;
      *out = Value(true);
      return Status::Ok();
    }
    if (text_.substr(pos_, 5) == "false") {
      pos_ += 5;
      *out = Value(false);
      return Status::Ok();
    }
    return Error("invalid literal");
  }

  Status ParseNull(Value* out) {
    if (text_.substr(pos_, 4) == "null") {
      pos_ += 4;
      *out = Value(nullptr);
      return Status::Ok();
    }
    return Error("invalid literal");
  }

  Status ParseNumber(Value* out) {
    size_t start = pos_;
    if (!AtEnd() && (Peek() == '-' || Peek() == '+')) ++pos_;
    bool is_double = false;
    while (!AtEnd()) {
      char c = Peek();
      if (IsDigit(c)) {
        ++pos_;
      } else if (c == '.' || c == 'e' || c == 'E') {
        is_double = true;
        ++pos_;
        if (!AtEnd() && (Peek() == '-' || Peek() == '+')) ++pos_;
      } else {
        break;
      }
    }
    if (pos_ == start) return Error("invalid value");
    std::string_view token = text_.substr(start, pos_ - start);
    if (!NumberTokenToValue(token, is_double, out)) {
      return Error("malformed number '" + std::string(token) + "'");
    }
    return Status::Ok();
  }

  std::string_view text_;
  bool lenient_;
  size_t pos_ = 0;
};

/// Index-driven strict parser (stage 2 of the two-stage JSONL parse). The
/// caller hands it the positions of every '"' and '\\' byte, so string
/// fields are appended span-at-a-time between quote positions instead of
/// byte-at-a-time. Anything unusual — malformed syntax, \u escapes, deep
/// nesting, a position that disagrees with the index — makes it bail with
/// false; the caller then re-parses with the scalar Parser so error
/// behavior (and every accepted value) is identical by construction.
class IndexedParser {
 public:
  IndexedParser(std::string_view text, const uint32_t* quotes_escapes,
                size_t index_count, uint64_t index_base)
      : t_(text), qe_(quotes_escapes), qe_n_(index_count), base_(index_base) {}

  bool Run(Value* out) {
    SkipWs();
    if (!ParseValue(out, 0)) return false;
    SkipWs();
    return pos_ == t_.size();
  }

 private:
  /// Past this depth the fast path bails to the scalar parser rather than
  /// risking deep recursion (the scalar parser keeps today's behavior).
  static constexpr int kMaxDepth = 64;

  void SkipWs() {
    while (pos_ < t_.size()) {
      char c = t_[pos_];
      if (c == ' ' || c == '\t' || c == '\n' || c == '\r') {
        ++pos_;
      } else {
        break;
      }
    }
  }

  bool ParseValue(Value* out, int depth) {
    if (depth > kMaxDepth) return false;
    if (pos_ >= t_.size()) return false;
    switch (t_[pos_]) {
      case '{':
        return ParseObject(out, depth);
      case '[':
        return ParseArray(out, depth);
      case '"': {
        std::string s;
        if (!ParseString(&s)) return false;
        *out = Value(std::move(s));
        return true;
      }
      case 't':
        if (t_.substr(pos_, 4) != "true") return false;
        pos_ += 4;
        *out = Value(true);
        return true;
      case 'f':
        if (t_.substr(pos_, 5) != "false") return false;
        pos_ += 5;
        *out = Value(false);
        return true;
      case 'n':
        if (t_.substr(pos_, 4) != "null") return false;
        pos_ += 4;
        *out = Value(nullptr);
        return true;
      default:
        return ParseNumber(out);
    }
  }

  bool ParseObject(Value* out, int depth) {
    ++pos_;  // consume '{'
    Object obj;
    SkipWs();
    if (pos_ < t_.size() && t_[pos_] == '}') {
      ++pos_;
      *out = Value(std::move(obj));
      return true;
    }
    while (true) {
      SkipWs();
      if (pos_ >= t_.size() || t_[pos_] != '"') return false;
      std::string key;
      if (!ParseString(&key)) return false;
      SkipWs();
      if (pos_ >= t_.size() || t_[pos_] != ':') return false;
      ++pos_;
      SkipWs();
      Value value;
      if (!ParseValue(&value, depth + 1)) return false;
      obj.Set(std::move(key), std::move(value));
      SkipWs();
      if (pos_ >= t_.size()) return false;
      if (t_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (t_[pos_] != '}') return false;
      ++pos_;
      break;
    }
    *out = Value(std::move(obj));
    return true;
  }

  bool ParseArray(Value* out, int depth) {
    ++pos_;  // consume '['
    Array arr;
    SkipWs();
    if (pos_ < t_.size() && t_[pos_] == ']') {
      ++pos_;
      *out = Value(std::move(arr));
      return true;
    }
    while (true) {
      SkipWs();
      Value v;
      if (!ParseValue(&v, depth + 1)) return false;
      arr.push_back(std::move(v));
      SkipWs();
      if (pos_ >= t_.size()) return false;
      if (t_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (t_[pos_] != ']') return false;
      ++pos_;
      break;
    }
    *out = Value(std::move(arr));
    return true;
  }

  /// pos_ must sit on the opening quote, which must appear in the index.
  /// Appends the clean spans between indexed positions with bulk appends;
  /// only escape bytes are handled individually.
  bool ParseString(std::string* s) {
    while (qe_i_ < qe_n_ && qe_[qe_i_] - base_ < pos_) ++qe_i_;
    if (qe_i_ >= qe_n_ || qe_[qe_i_] - base_ != pos_) return false;
    ++qe_i_;  // past the opening quote
    size_t cur = ++pos_;
    // Escapes split the copy into several appends. Size the string once
    // from the closing quote (the decoded string is never longer than its
    // raw span) so it does not keep append's growth slack.
    size_t k = qe_i_;
    while (k < qe_n_ && qe_[k] - base_ < t_.size() &&
           t_[qe_[k] - base_] == '\\') {
      // Step over the backslash, and over the byte it escapes when that
      // byte ('"' or '\\') is indexed too.
      const uint64_t escaped = qe_[k] - base_ + 1;
      ++k;
      if (k < qe_n_ && qe_[k] - base_ == escaped) ++k;
    }
    if (k > qe_i_ && k < qe_n_ && qe_[k] - base_ < t_.size()) {
      s->reserve(static_cast<size_t>(qe_[k] - base_) - cur);
    }
    while (true) {
      if (qe_i_ >= qe_n_) return false;  // unterminated -> scalar error
      size_t p = static_cast<size_t>(qe_[qe_i_] - base_);
      if (p >= t_.size()) return false;
      if (t_[p] == '"') {
        s->append(t_.data() + cur, p - cur);
        pos_ = p + 1;
        ++qe_i_;
        return true;
      }
      // Backslash escape.
      if (p + 1 >= t_.size()) return false;  // unterminated escape
      s->append(t_.data() + cur, p - cur);
      char decoded;
      switch (t_[p + 1]) {
        case '"':
          decoded = '"';
          break;
        case '\\':
          decoded = '\\';
          break;
        case '/':
          decoded = '/';
          break;
        case 'b':
          decoded = '\b';
          break;
        case 'f':
          decoded = '\f';
          break;
        case 'n':
          decoded = '\n';
          break;
        case 'r':
          decoded = '\r';
          break;
        case 't':
          decoded = '\t';
          break;
        default:
          // \uXXXX (surrogate logic lives in one place: the scalar parser)
          // and invalid escapes both bail.
          return false;
      }
      s->push_back(decoded);
      cur = p + 2;
      ++qe_i_;  // past the backslash
      // The escaped byte itself may be indexed ('\"' or '\\\\').
      if (qe_i_ < qe_n_ && qe_[qe_i_] - base_ < cur) ++qe_i_;
      pos_ = cur;
    }
  }

  bool ParseNumber(Value* out) {
    size_t start = pos_;
    if (pos_ < t_.size() && (t_[pos_] == '-' || t_[pos_] == '+')) ++pos_;
    bool is_double = false;
    while (pos_ < t_.size()) {
      char c = t_[pos_];
      if (IsDigit(c)) {
        ++pos_;
      } else if (c == '.' || c == 'e' || c == 'E') {
        is_double = true;
        ++pos_;
        if (pos_ < t_.size() && (t_[pos_] == '-' || t_[pos_] == '+')) ++pos_;
      } else {
        break;
      }
    }
    if (pos_ == start) return false;
    std::string_view token = t_.substr(start, pos_ - start);
    if (!is_double) {
      // Small integers (<= 18 digits cannot overflow) convert inline —
      // identical to strtoll on the same token by construction.
      size_t digits_at = token[0] == '-' || token[0] == '+' ? 1 : 0;
      size_t num_digits = token.size() - digits_at;
      if (num_digits >= 1 && num_digits <= 18) {
        uint64_t v = 0;
        for (size_t i = digits_at; i < token.size(); ++i) {
          v = v * 10 + static_cast<uint64_t>(token[i] - '0');
        }
        *out = Value(token[0] == '-' ? -static_cast<int64_t>(v)
                                     : static_cast<int64_t>(v));
        return true;
      }
    }
    return NumberTokenToValue(token, is_double, out);
  }

  std::string_view t_;
  const uint32_t* qe_;
  size_t qe_n_;
  size_t qe_i_ = 0;
  uint64_t base_;
  size_t pos_ = 0;
};

}  // namespace

Result<Value> Parse(std::string_view text) {
  return Parser(text, /*lenient=*/true).Run();
}

bool TryParseStrictIndexed(std::string_view text,
                           const uint32_t* quotes_escapes, size_t index_count,
                           uint64_t index_base, Value* out) {
  return IndexedParser(text, quotes_escapes, index_count, index_base).Run(out);
}

Result<Value> ParseStrict(std::string_view text) {
  return Parser(text, /*lenient=*/false).Run();
}

}  // namespace dj::json
