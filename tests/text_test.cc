#include <gtest/gtest.h>

#include <cstring>
#include <random>
#include <unordered_set>

#include "common/hash.h"
#include "common/string_util.h"
#include "text/lang_id.h"
#include "text/lexicons.h"
#include "text/ngram.h"
#include "text/ngram_lm.h"
#include "text/normalize.h"
#include "text/sentence.h"
#include "text/tokenizer.h"
#include "text/utf8.h"

namespace dj::text {
namespace {

// --------------------------------------------------------------- utf8 ----

TEST(Utf8Test, DecodeAscii) {
  size_t pos = 0;
  uint32_t cp;
  EXPECT_TRUE(DecodeUtf8("A", &pos, &cp));
  EXPECT_EQ(cp, 'A');
  EXPECT_EQ(pos, 1u);
}

TEST(Utf8Test, DecodeMultibyte) {
  std::string s = "\xC3\xA9\xE4\xB8\xAD\xF0\x9F\x98\x80";  // é 中 😀
  size_t pos = 0;
  uint32_t cp;
  EXPECT_TRUE(DecodeUtf8(s, &pos, &cp));
  EXPECT_EQ(cp, 0xE9u);
  EXPECT_TRUE(DecodeUtf8(s, &pos, &cp));
  EXPECT_EQ(cp, 0x4E2Du);
  EXPECT_TRUE(DecodeUtf8(s, &pos, &cp));
  EXPECT_EQ(cp, 0x1F600u);
  EXPECT_EQ(pos, s.size());
}

TEST(Utf8Test, RejectsOverlongAndSurrogates) {
  // Overlong 2-byte encoding of '/'.
  std::string overlong = "\xC0\xAF";
  EXPECT_FALSE(IsValidUtf8(overlong));
  // CESU-8 surrogate.
  std::string surrogate = "\xED\xA0\x80";
  EXPECT_FALSE(IsValidUtf8(surrogate));
  EXPECT_TRUE(IsValidUtf8("plain ascii"));
  EXPECT_TRUE(IsValidUtf8("\xE4\xB8\xAD"));
}

TEST(Utf8Test, MalformedAdvancesOneByte) {
  std::string bad = "\xFFok";
  size_t pos = 0;
  uint32_t cp;
  EXPECT_FALSE(DecodeUtf8(bad, &pos, &cp));
  EXPECT_EQ(cp, 0xFFFDu);
  EXPECT_EQ(pos, 1u);
}

TEST(Utf8Test, EncodeDecodeRoundTrip) {
  for (uint32_t cp : {0x41u, 0xE9u, 0x4E2Du, 0x1F600u}) {
    std::string s;
    EncodeUtf8(cp, &s);
    size_t pos = 0;
    uint32_t back;
    EXPECT_TRUE(DecodeUtf8(s, &pos, &back));
    EXPECT_EQ(back, cp);
    EXPECT_EQ(pos, s.size());
  }
}

TEST(Utf8Test, CodepointCount) {
  EXPECT_EQ(CodepointCount("abc"), 3u);
  EXPECT_EQ(CodepointCount("\xE4\xB8\xAD\xE6\x96\x87"), 2u);
  EXPECT_EQ(CodepointCount(""), 0u);
}

/// The decoder as it was before its one-byte case moved inline, kept as the
/// reference the inlined DecodeUtf8 is compared with.
bool ReferenceDecodeUtf8(std::string_view s, size_t* pos,
                         uint32_t* codepoint) {
  if (*pos >= s.size()) return false;
  uint8_t b0 = static_cast<uint8_t>(s[*pos]);
  if (b0 < 0x80) {
    *codepoint = b0;
    ++*pos;
    return true;
  }
  int len;
  uint32_t cp;
  if ((b0 & 0xE0) == 0xC0) {
    len = 2;
    cp = b0 & 0x1F;
  } else if ((b0 & 0xF0) == 0xE0) {
    len = 3;
    cp = b0 & 0x0F;
  } else if ((b0 & 0xF8) == 0xF0) {
    len = 4;
    cp = b0 & 0x07;
  } else {
    *codepoint = 0xFFFD;
    ++*pos;
    return false;
  }
  if (*pos + len > s.size()) {
    *codepoint = 0xFFFD;
    ++*pos;
    return false;
  }
  for (int i = 1; i < len; ++i) {
    uint8_t b = static_cast<uint8_t>(s[*pos + i]);
    if ((b & 0xC0) != 0x80) {
      *codepoint = 0xFFFD;
      ++*pos;
      return false;
    }
    cp = (cp << 6) | (b & 0x3F);
  }
  if ((len == 2 && cp < 0x80) || (len == 3 && cp < 0x800) ||
      (len == 4 && cp < 0x10000) || (cp >= 0xD800 && cp <= 0xDFFF) ||
      cp > 0x10FFFF) {
    *codepoint = 0xFFFD;
    ++*pos;
    return false;
  }
  *codepoint = cp;
  *pos += len;
  return true;
}

/// Whether both decoders give the same result, codepoint and advance on
/// `s` from every start offset; names the first difference otherwise.
testing::AssertionResult DecodersAgree(std::string_view s) {
  for (size_t start = 0; start <= s.size(); ++start) {
    size_t pos = start, ref_pos = start;
    uint32_t cp = 0xDEAD, ref_cp = 0xDEAD;
    bool ok = DecodeUtf8(s, &pos, &cp);
    bool ref_ok = ReferenceDecodeUtf8(s, &ref_pos, &ref_cp);
    if (ok != ref_ok || pos != ref_pos || cp != ref_cp) {
      return testing::AssertionFailure()
             << testing::PrintToString(std::string(s)) << " at " << start
             << ": got (" << ok << ", " << pos << ", " << cp
             << "), reference (" << ref_ok << ", " << ref_pos << ", "
             << ref_cp << ")";
    }
  }
  return testing::AssertionSuccess();
}

TEST(Utf8Test, DecoderMatchesReferenceOnAllOneAndTwoByteInputs) {
  for (int b0 = 0; b0 < 256; ++b0) {
    ASSERT_TRUE(DecodersAgree(std::string(1, static_cast<char>(b0))));
    for (int b1 = 0; b1 < 256; ++b1) {
      const char two[] = {static_cast<char>(b0), static_cast<char>(b1)};
      ASSERT_TRUE(DecodersAgree(std::string_view(two, 2)));
    }
  }
}

TEST(Utf8Test, DecoderMatchesReferenceOnThreeAndFourByteCases) {
  // Continuation-byte boundaries: below, at both ends of and above
  // 0x80..0xBF, plus the bytes that set overlong, surrogate and
  // above-U+10FFFF limits.
  const uint8_t conts[] = {0x00, 0x7F, 0x80, 0x8F, 0x90, 0x9F,
                           0xA0, 0xBF, 0xC0, 0xFF};
  for (int lead = 0xC0; lead < 0x100; ++lead) {
    for (uint8_t c1 : conts) {
      for (uint8_t c2 : conts) {
        for (uint8_t c3 : conts) {
          const char seq[] = {static_cast<char>(lead), static_cast<char>(c1),
                              static_cast<char>(c2), static_cast<char>(c3)};
          // Every prefix, so each sequence is also seen truncated by the
          // end of the input, and once followed by ASCII.
          for (size_t len = 1; len <= 4; ++len) {
            ASSERT_TRUE(DecodersAgree(std::string_view(seq, len)));
          }
          ASSERT_TRUE(DecodersAgree(std::string(seq, 4) + "ab"));
        }
      }
    }
  }
  // Named cases: overlong 3- and 4-byte '/', a surrogate, U+10FFFF and one
  // past it, and the largest 3-byte codepoint.
  for (std::string_view s :
       {"\xE0\x80\xAF", "\xF0\x80\x80\xAF", "\xED\xA0\x80", "\xED\xBF\xBF",
        "\xF4\x8F\xBF\xBF", "\xF4\x90\x80\x80", "\xEF\xBF\xBF"}) {
    EXPECT_TRUE(DecodersAgree(s));
  }
}

TEST(Utf8Test, ClassPredicates) {
  EXPECT_TRUE(IsCjk(0x4E2D));
  EXPECT_FALSE(IsCjk('a'));
  EXPECT_TRUE(IsAsciiAlnum('z'));
  EXPECT_TRUE(IsAsciiDigit('7'));
  EXPECT_TRUE(IsWhitespaceCp(0x00A0));
  EXPECT_TRUE(IsPunctuationCp('!'));
  EXPECT_TRUE(IsPunctuationCp(0x3002));  // 。
  EXPECT_TRUE(IsEmojiLike(0x1F600));
}

// ---------------------------------------------------------- tokenizer ----

TEST(TokenizerTest, BasicWords) {
  EXPECT_EQ(TokenizeWords("Hello, world!"),
            (std::vector<std::string>{"Hello", "world"}));
}

TEST(TokenizerTest, ApostrophesStayInWords) {
  EXPECT_EQ(TokenizeWords("don't stop"),
            (std::vector<std::string>{"don't", "stop"}));
}

TEST(TokenizerTest, CjkCharactersAreSingleTokens) {
  std::vector<std::string> tokens =
      TokenizeWords("ab\xE4\xB8\xAD\xE6\x96\x87" "cd");
  ASSERT_EQ(tokens.size(), 4u);
  EXPECT_EQ(tokens[0], "ab");
  EXPECT_EQ(tokens[1], "\xE4\xB8\xAD");
  EXPECT_EQ(tokens[3], "cd");
}

TEST(TokenizerTest, LowercaseVariant) {
  EXPECT_EQ(TokenizeWordsLower("MiXeD Case"),
            (std::vector<std::string>{"mixed", "case"}));
}

TEST(TokenizerTest, WhitespaceTokenizerKeepsPunctuation) {
  EXPECT_EQ(TokenizeWhitespace("a, b.  c"),
            (std::vector<std::string>{"a,", "b.", "c"}));
}

TEST(TokenizerTest, CountWordsMatchesTokenize) {
  std::string s = "one two, three. four";
  EXPECT_EQ(CountWords(s), TokenizeWords(s).size());
}

/// Inputs covering every tokenizer branch: ASCII, apostrophes, Latin-1,
/// Greek/Cyrillic, CJK runs glued to Latin, invalid and truncated UTF-8,
/// and text with no words at all.
std::vector<std::string> TokenizerInputs() {
  return {
      "",
      " ,.;!? -- ",
      "Hello, World! it's 42 O'Neil's DATA-set",
      // Latin-1 letters; the multiplication and division signs split words.
      "\xC3\x87""a \xC3\xA9t\xC3\xA9 Gr\xC3\xB6\xC3\x9F""e NA\xC3\x8FVE "
      "a\xC3\x97""b c\xC3\xB7""d",
      // Greek and Cyrillic words.
      "\xCE\x95\xCE\xBB\xCE\xBB\xCE\xB7\xCE\xBD\xCE\xB9\xCE\xBA\xCE\xAC "
      "\xD0\xA0\xD1\x83\xD1\x81 MiXeD",
      // Han, kana and Hangul codepoints glued to Latin runs.
      "abc\xE4\xB8\xAD\xE6\x96\x87""def\xE3\x81\x8B""XYZ\xEA\xB0\x80",
      // Invalid bytes, an overlong encoding and a surrogate.
      "ab\xFF\xFE""cd \xC0\xAF""ef \xED\xA0\x80gh",
      // Sequences cut short by the end of the text.
      "tail x\xE4\xB8",
      "end\xC3",
  };
}

TEST(TokenizerTest, TokensAreContiguousRuns) {
  EXPECT_EQ(TokenizeWords("abc\xE4\xB8\xAD\xE6\x96\x87""def"),
            (std::vector<std::string>{"abc", "\xE4\xB8\xAD", "\xE6\x96\x87",
                                      "def"}));
  EXPECT_EQ(TokenizeWords("ab\xFF""cd \xC3"),
            (std::vector<std::string>{"ab", "cd"}));
  EXPECT_EQ(TokenizeWords("x\xC3\xA9y\xC3\x97z"),
            (std::vector<std::string>{"x\xC3\xA9y", "z"}));
  EXPECT_TRUE(TokenizeWords("").empty());
}

TEST(TokenizerTest, WordHashesMatchTokenHashes) {
  for (const std::string& s : TokenizerInputs()) {
    for (bool lower : {false, true}) {
      std::vector<uint64_t> want;
      for (const std::string& w :
           lower ? TokenizeWordsLower(s) : TokenizeWords(s)) {
        want.push_back(Fnv1a64(w));
      }
      EXPECT_EQ(WordHashes(s, lower), want) << s << " lower=" << lower;
    }
    EXPECT_EQ(CountWords(s), TokenizeWords(s).size()) << s;
  }
}

TEST(TokenizerTest, ApproxLlmTokenCountGrowsWithLongWords) {
  size_t short_words = ApproxLlmTokenCount("cat dog bird");
  size_t long_word = ApproxLlmTokenCount("antidisestablishmentarianism");
  EXPECT_EQ(short_words, 3u);
  EXPECT_GT(long_word, 1u);  // split into subword pieces
}

// -------------------------------------------------------------- ngram ----

TEST(NgramTest, WordNgrams) {
  std::vector<std::string> words{"a", "b", "c"};
  std::vector<std::string> grams = WordNgrams(words, 2);
  ASSERT_EQ(grams.size(), 2u);
  EXPECT_EQ(grams[0], "a\x1f""b");
  EXPECT_TRUE(WordNgrams(words, 4).empty());
  EXPECT_TRUE(WordNgrams(words, 0).empty());
}

TEST(NgramTest, CharNgramsUtf8Aware) {
  std::vector<std::string> grams = CharNgrams("\xE4\xB8\xAD\xE6\x96\x87x", 2);
  ASSERT_EQ(grams.size(), 2u);
  EXPECT_EQ(grams[0], "\xE4\xB8\xAD\xE6\x96\x87");
}

TEST(NgramTest, HashedNgramsConsistentWithStrings) {
  std::vector<std::string> a{"x", "y", "z", "x", "y"};
  EXPECT_EQ(HashedWordNgrams(a, 2).size(), 4u);
  // Same bigram "x y" appears twice -> equal hashes at 0 and 3.
  auto hashes = HashedWordNgrams(a, 2);
  EXPECT_EQ(hashes[0], hashes[3]);
  EXPECT_NE(hashes[0], hashes[1]);
}

TEST(NgramTest, NgramsOfWordHashesMatchesHashedWordNgrams) {
  for (const std::string& s : TokenizerInputs()) {
    std::vector<std::string> words = TokenizeWordsLower(s);
    std::vector<uint64_t> hashes = WordHashes(s, /*lowercase=*/true);
    for (size_t n : {size_t{1}, size_t{5}, words.size() + 1}) {
      EXPECT_EQ(NgramsOfWordHashes(hashes, n), HashedWordNgrams(words, n))
          << s << " n=" << n;
    }
  }
  EXPECT_TRUE(NgramsOfWordHashes({1, 2, 3}, 0).empty());
}

TEST(NgramTest, DuplicateRatio) {
  EXPECT_DOUBLE_EQ(DuplicateNgramRatio({}), 0.0);
  EXPECT_DOUBLE_EQ(DuplicateNgramRatio({1, 2, 3}), 0.0);
  EXPECT_DOUBLE_EQ(DuplicateNgramRatio({1, 1, 1, 1}), 0.75);
}

TEST(NgramTest, DuplicateRatioBitEqualToHashSetReference) {
  std::mt19937_64 rng(5);
  for (int trial = 0; trial < 300; ++trial) {
    const size_t n = rng() % 200;
    const uint64_t range = 1 + rng() % 300;  // small ranges repeat values
    std::vector<uint64_t> grams(n);
    for (uint64_t& g : grams) g = rng() % range * 0x9E3779B97F4A7C15ULL;
    double want = 0.0;
    if (!grams.empty()) {
      std::unordered_set<uint64_t> unique(grams.begin(), grams.end());
      want = 1.0 - static_cast<double>(unique.size()) /
                       static_cast<double>(grams.size());
    }
    const double got = DuplicateNgramRatio(grams);
    EXPECT_EQ(std::memcmp(&got, &want, sizeof(double)), 0)
        << "n=" << n << " got=" << got << " want=" << want;
  }
}

TEST(NgramTest, JaccardSimilarity) {
  EXPECT_DOUBLE_EQ(JaccardSimilarity({1, 2, 3}, {1, 2, 3}), 1.0);
  EXPECT_DOUBLE_EQ(JaccardSimilarity({1, 2}, {3, 4}), 0.0);
  EXPECT_DOUBLE_EQ(JaccardSimilarity({1, 2, 3, 3}, {2, 3, 4}), 0.5);
  EXPECT_DOUBLE_EQ(JaccardSimilarity({}, {}), 1.0);
}

// ----------------------------------------------------------- sentence ----

TEST(SentenceTest, BasicSplit) {
  auto s = SplitSentences("First one. Second one! Third one?");
  ASSERT_EQ(s.size(), 3u);
  EXPECT_EQ(s[0], "First one.");
  EXPECT_EQ(s[2], "Third one?");
}

TEST(SentenceTest, AbbreviationsDoNotSplit) {
  auto s = SplitSentences("Dr. Smith met Prof. Jones. They talked.");
  ASSERT_EQ(s.size(), 2u);
  EXPECT_EQ(s[0], "Dr. Smith met Prof. Jones.");
}

TEST(SentenceTest, DecimalsDoNotSplit) {
  auto s = SplitSentences("Pi is 3.14 roughly. Euler is 2.72.");
  ASSERT_EQ(s.size(), 2u);
}

TEST(SentenceTest, CjkPunctuationSplits) {
  auto s = SplitSentences(
      "\xe4\xbb\x8a\xe5\xa4\xa9\xe5\xa5\xbd\xe3\x80\x82"
      "\xe6\x98\x8e\xe5\xa4\xa9\xe8\xa7\x81\xe3\x80\x82");
  EXPECT_EQ(s.size(), 2u);
}

TEST(SentenceTest, ParagraphBreakSplits) {
  auto s = SplitSentences("no punctuation here\n\nnext paragraph");
  EXPECT_EQ(s.size(), 2u);
}

TEST(SentenceTest, SplitParagraphs) {
  auto p = SplitParagraphs("one\ntwo\n\nthree\n\n\nfour");
  ASSERT_EQ(p.size(), 3u);
  EXPECT_EQ(p[0], "one\ntwo");
  EXPECT_EQ(p[2], "four");
}

// ---------------------------------------------------------- normalize ----

TEST(NormalizeTest, WhitespaceCollapse) {
  EXPECT_EQ(NormalizeWhitespace("a   b\t c"), "a b c");
  EXPECT_EQ(NormalizeWhitespace("  lead trail  "), "lead trail");
  EXPECT_EQ(NormalizeWhitespace("a\n\n\n\nb"), "a\n\nb");
  EXPECT_EQ(NormalizeWhitespace("a \nb"), "a\nb");
}

TEST(NormalizeTest, PunctuationMapping) {
  // Curly quotes, em dash, ellipsis, fullwidth A.
  std::string input =
      "\xE2\x80\x9Cq\xE2\x80\x9D \xE2\x80\x94 \xE2\x80\xA6 \xEF\xBC\xA1";
  EXPECT_EQ(NormalizePunctuation(input), "\"q\" - ... A");
}

TEST(NormalizeTest, FixUnicodeRemovesControlAndMojibake) {
  std::string input = "it\xC3\xA2\xE2\x82\xAC\xE2\x84\xA2s \x01 fine\xEF\xBB\xBF";
  std::string out = FixUnicode(input);
  EXPECT_EQ(out, "it's  fine");
}

TEST(NormalizeTest, FixUnicodeKeepsValidMultibyte) {
  std::string input = "caf\xC3\xA9 \xE4\xB8\xAD";
  EXPECT_EQ(FixUnicode(input), input);
}

/// NormalizeWhitespace as it was before it copied kept runs whole, kept as
/// the reference for the run-at-a-time version.
std::string ReferenceNormalizeWhitespace(std::string_view s) {
  std::string out;
  int pending_newlines = 0;
  bool pending_space = false;
  bool at_line_start = true;
  size_t pos = 0;
  while (pos < s.size()) {
    size_t start = pos;
    uint32_t cp;
    DecodeUtf8(s, &pos, &cp);
    if (cp == '\n') {
      ++pending_newlines;
      pending_space = false;
      at_line_start = true;
      continue;
    }
    if (cp == '\r') continue;
    if (IsWhitespaceCp(cp)) {
      if (!at_line_start) pending_space = true;
      continue;
    }
    if (pending_newlines > 0) {
      if (!out.empty()) out.append(pending_newlines >= 2 ? "\n\n" : "\n");
      pending_newlines = 0;
      pending_space = false;
    } else if (pending_space) {
      out.push_back(' ');
      pending_space = false;
    }
    out.append(s.substr(start, pos - start));
    at_line_start = false;
  }
  return out;
}

/// FixUnicode's codepoint filter as it was before it copied kept runs whole
/// (the mojibake replacements run first in both).
std::string ReferenceFixUnicode(std::string_view s) {
  std::string fixed(s);
  for (const auto& [from, to] :
       {std::pair<std::string_view, std::string_view>{
            "\xC3\xA2\xE2\x82\xAC\xE2\x84\xA2", "'"},
        {"\xC3\xA2\xE2\x82\xAC\xC5\x93", "\""},
        {"\xC3\xA2\xE2\x82\xAC\xC2\x9D", "\""},
        {"\xC3\xA2\xE2\x82\xAC\xE2\x80\x9C", "-"},
        {"\xC3\x82\xC2\xA0", " "}}) {
    fixed = ReplaceAll(fixed, from, to);
  }
  std::string out;
  size_t pos = 0;
  while (pos < fixed.size()) {
    size_t start = pos;
    uint32_t cp;
    bool valid = DecodeUtf8(fixed, &pos, &cp);
    if (!valid || cp == 0xFFFD) continue;
    if (cp < 0x20 && cp != '\n' && cp != '\t') continue;
    if (cp == 0x7F) continue;
    if (cp == 0xFEFF || (cp >= 0x200B && cp <= 0x200F)) continue;
    out.append(fixed, start, pos - start);
  }
  return out;
}

/// Seeded strings built from pieces that hit every branch of the
/// normalizers: words, ASCII and Unicode whitespace, CRLF, control bytes,
/// BOM and zero-width characters, U+FFFD, malformed and truncated bytes,
/// and both halves of the mojibake patterns.
std::vector<std::string> RandomNormalizeInputs() {
  const std::string_view pieces[] = {
      "word", "Caf\xC3\xA9", "\xE4\xB8\xAD", " ", "  ", "\t", "\n", "\n\n\n",
      "\r\n", "\r", "\xC2\xA0", "\xE3\x80\x80", "\xE2\x80\x8B", "\xEF\xBB\xBF",
      "\xEF\xBF\xBD", "\x01", "\x7F", "\xFF", "\x80", "\xC3", "\xE4\xB8",
      "\xC3\xA2\xE2\x82\xAC\xE2\x84\xA2", "\xC3\x82\xC2\xA0", "\xC3\xA2\xE2\x82",
      ".", "x"};
  std::mt19937_64 rng(9);
  std::vector<std::string> out;
  for (int i = 0; i < 2000; ++i) {
    std::string s;
    const size_t n = rng() % 24;
    for (size_t k = 0; k < n; ++k) {
      s += pieces[rng() % (sizeof(pieces) / sizeof(pieces[0]))];
    }
    out.push_back(std::move(s));
  }
  return out;
}

TEST(NormalizeTest, WhitespaceRunCopyMatchesReference) {
  for (const std::string& s : RandomNormalizeInputs()) {
    ASSERT_EQ(NormalizeWhitespace(s), ReferenceNormalizeWhitespace(s))
        << testing::PrintToString(s);
  }
}

TEST(NormalizeTest, FixUnicodeRunCopyMatchesReference) {
  for (const std::string& s : RandomNormalizeInputs()) {
    ASSERT_EQ(FixUnicode(s), ReferenceFixUnicode(s))
        << testing::PrintToString(s);
  }
}

// ---------------------------------------------------------- FindLast ----

TEST(FindLastTest, EdgeCasesMatchRfind) {
  struct Case {
    std::string_view text, needle;
  };
  const Case cases[] = {
      {"abcabc", "abc"},   // needle at the end
      {"abcxyz", "abc"},   // needle at position 0 only
      {"aaaa", "aa"},      // overlapping self-matches
      {"aa", "aaa"},       // needle longer than the text
      {"", "a"},           // empty text
      {"", ""},            // both empty
      {"abc", ""},         // empty needle
      {"abc", "c"},        // one-byte needle at the end
      {"\nReferences\nx\nReferences\n", "\nReferences\n"},
      {"xyz", "q"},        // absent first byte
      {"qqqq", "qx"},      // first byte everywhere, never a match
  };
  for (const Case& c : cases) {
    EXPECT_EQ(FindLast(c.text, c.needle), c.text.rfind(c.needle))
        << testing::PrintToString(std::string(c.text)) << " / "
        << testing::PrintToString(std::string(c.needle));
  }
}

TEST(FindLastTest, SeededRandomStringsMatchRfind) {
  std::mt19937_64 rng(3);
  const char alphabet[] = {'a', 'b', '\n', 'R'};
  auto random_string = [&](size_t max_len) {
    std::string s(rng() % (max_len + 1), ' ');
    for (char& c : s) c = alphabet[rng() % sizeof(alphabet)];
    return s;
  };
  for (int i = 0; i < 20000; ++i) {
    const std::string text = random_string(48);
    const std::string needle = random_string(5);
    ASSERT_EQ(FindLast(text, needle), std::string_view(text).rfind(needle))
        << testing::PrintToString(text) << " / "
        << testing::PrintToString(needle);
  }
}

TEST(NormalizeTest, RemoveCharsUtf8Set) {
  EXPECT_EQ(RemoveChars("a\xE2\x97\x86"
                        "b\xE2\x97\x8F"
                        "c",
                        "\xE2\x97\x86\xE2\x97\x8F"),
            "abc");
}

// ------------------------------------------------------------ lexicon ----

TEST(LexiconTest, BuiltinsNonEmptyAndQueryable) {
  EXPECT_GT(Lexicon::EnglishStopwords().size(), 100u);
  EXPECT_TRUE(Lexicon::EnglishStopwords().Contains("the"));
  EXPECT_FALSE(Lexicon::EnglishStopwords().Contains("photosynthesis"));
  EXPECT_TRUE(Lexicon::FlaggedWords().Contains("casino"));
  EXPECT_TRUE(Lexicon::CommonVerbs().Contains("describe"));
}

TEST(LexiconTest, AddExtends) {
  Lexicon lex{"a"};
  EXPECT_FALSE(lex.Contains("b"));
  lex.Add("b");
  EXPECT_TRUE(lex.Contains("b"));
}

// ------------------------------------------------------------ lang id ----

TEST(LangIdTest, IdentifiesEnglish) {
  LangScore r = LanguageIdentifier::Default().Identify(
      "The committee published a detailed report about the economy and the "
      "people who live in the region.");
  EXPECT_EQ(r.lang, "en");
  EXPECT_GT(r.confidence, 0.5);
}

TEST(LangIdTest, IdentifiesChinese) {
  LangScore r = LanguageIdentifier::Default().Identify(
      "\xe7\xa0\x94\xe7\xa9\xb6\xe4\xba\xba\xe5\x91\x98\xe5\x88\x86\xe6\x9e\x90"
      "\xe4\xba\x86\xe5\xae\x9e\xe9\xaa\x8c\xe7\xbb\x93\xe6\x9e\x9c\xe3\x80\x82");
  EXPECT_EQ(r.lang, "zh");
}

TEST(LangIdTest, IdentifiesGerman) {
  LangScore r = LanguageIdentifier::Default().Identify(
      "die forscher beschreiben das verfahren und die ergebnisse des "
      "experiments mit grosser sorgfalt und vielen worten");
  EXPECT_EQ(r.lang, "de");
}

TEST(LangIdTest, ScoreForLanguage) {
  const auto& id = LanguageIdentifier::Default();
  std::string en = "the researchers describe the results of the experiment";
  EXPECT_GT(id.Score(en, "en"), id.Score(en, "zh"));
  EXPECT_DOUBLE_EQ(id.Score(en, "klingon"), 0.0);
}

TEST(LangIdTest, EmptyInputIsUndetermined) {
  LangScore r = LanguageIdentifier::Default().Identify("");
  EXPECT_LE(r.confidence, 1.0);  // defined behavior, no crash
}

TEST(LangIdTest, CustomProfile) {
  LanguageIdentifier id;
  id.AddProfile("aa", "aaaa aaa aaaa aaa aaaa");
  id.AddProfile("bb", "bbbb bbb bbbb bbb bbbb");
  EXPECT_EQ(id.Identify("aaa aaaa aaa").lang, "aa");
  EXPECT_EQ(id.Identify("bbb bbbb bbb").lang, "bb");
}

// ----------------------------------------------------------- ngram LM ----

TEST(NgramLmTest, TrainingLowersPerplexityOnInDomainText) {
  NgramLm lm;
  for (int i = 0; i < 20; ++i) {
    lm.AddDocument("the quick brown fox jumps over the lazy dog");
  }
  lm.Finalize();
  double in_domain = lm.Perplexity("the quick brown fox");
  double out_domain = lm.Perplexity("zxcvb qwerty asdfgh uiop");
  EXPECT_LT(in_domain, out_domain);
  EXPECT_LT(in_domain, 50.0);
}

TEST(NgramLmTest, EmptyTextSentinel) {
  NgramLm lm;
  lm.Finalize();
  EXPECT_DOUBLE_EQ(lm.Perplexity(""), 1e6);
}

TEST(NgramLmTest, MoreDataImprovesHeldOut) {
  std::vector<std::string> corpus;
  for (int i = 0; i < 40; ++i) {
    corpus.push_back(
        "the researchers describe the results of the experiment with care");
    corpus.push_back("the committee presents a detailed report every year");
  }
  NgramLm small;
  small.AddDocument(corpus[0]);
  small.Finalize();
  NgramLm large;
  for (const auto& doc : corpus) large.AddDocument(doc);
  large.Finalize();
  // Held-out text from the second document family, which only the larger
  // training set has seen.
  std::string held_out = "the committee presents a detailed report";
  EXPECT_LT(large.Perplexity(held_out), small.Perplexity(held_out));
}

TEST(NgramLmTest, DefaultEnglishPrefersFluentText) {
  const NgramLm& lm = NgramLm::DefaultEnglish();
  double fluent = lm.Perplexity("the model learns to predict the next word");
  double garbage = lm.Perplexity("qq ww ee rr tt yy uu ii oo pp");
  EXPECT_LT(fluent, garbage);
}

TEST(NgramLmTest, SerializeRoundTripPreservesScores) {
  NgramLm lm;
  lm.AddDocument("the quick brown fox jumps over the lazy dog");
  lm.AddDocument("the committee publishes a detailed report every year");
  lm.Finalize();
  std::string blob = lm.Serialize();
  auto restored = NgramLm::Deserialize(blob);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  for (std::string_view text :
       {"the quick brown fox", "a detailed report", "unseen words here"}) {
    EXPECT_DOUBLE_EQ(restored.value().Perplexity(text), lm.Perplexity(text))
        << text;
  }
  EXPECT_EQ(restored.value().total_tokens(), lm.total_tokens());
  EXPECT_EQ(restored.value().vocab_size(), lm.vocab_size());
  EXPECT_TRUE(restored.value().finalized());
}

TEST(NgramLmTest, DeserializeRejectsCorruption) {
  NgramLm lm;
  lm.AddDocument("some training text for the model");
  std::string blob = lm.Serialize();
  EXPECT_FALSE(NgramLm::Deserialize("garbage").ok());
  EXPECT_FALSE(
      NgramLm::Deserialize(blob.substr(0, blob.size() / 2)).ok());
  blob += "extra";
  EXPECT_FALSE(NgramLm::Deserialize(blob).ok());
}

TEST(NgramLmTest, TokenAndVocabCounters) {
  NgramLm lm;
  lm.AddDocument("a b c a b");
  lm.Finalize();
  EXPECT_EQ(lm.total_tokens(), 5u);
  EXPECT_EQ(lm.vocab_size(), 3u);
}

}  // namespace
}  // namespace dj::text
