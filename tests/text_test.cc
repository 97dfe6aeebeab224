#include <gtest/gtest.h>

#include "common/hash.h"
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
