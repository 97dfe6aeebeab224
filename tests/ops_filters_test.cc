#include <gtest/gtest.h>

#include "json/parser.h"
#include "ops/filters/field_filters.h"
#include "ops/filters/lexicon_filters.h"
#include "ops/filters/model_filters.h"
#include "ops/filters/stats_filters.h"
#include "text/tokenizer.h"

namespace dj::ops {
namespace {

json::Value Config(std::string_view text = "{}") {
  auto r = json::Parse(text);
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  return std::move(r).value();
}

/// Computes stats and the keep decision for a single text sample.
struct FilterOutcome {
  bool keep = false;
  double stat = 0;
};

FilterOutcome RunFilter(const Filter& filter, std::string_view text,
                        std::string_view stat_key = "") {
  data::Dataset ds = data::Dataset::FromTexts({std::string(text)});
  ds.EnsureColumn(data::kStatsField);
  data::RowRef row = ds.Row(0);
  SampleContext ctx(text);
  EXPECT_TRUE(filter.ComputeStats(row, &ctx).ok());
  auto keep = filter.KeepRow(row);
  EXPECT_TRUE(keep.ok());
  FilterOutcome out;
  out.keep = keep.ok() && keep.value();
  if (!stat_key.empty()) {
    out.stat = row.GetNumber("stats." + std::string(stat_key), -1);
  }
  return out;
}

// -------------------------------------------------------- range stats ----

TEST(AlphanumericFilterTest, RatioAndBounds) {
  AlphanumericFilter f(Config(R"({"min": 0.5})"));
  FilterOutcome good = RunFilter(f, "abc def 123", "alnum_ratio");
  EXPECT_TRUE(good.keep);
  EXPECT_GT(good.stat, 0.7);
  FilterOutcome bad = RunFilter(f, "!!! ??? ###", "alnum_ratio");
  EXPECT_FALSE(bad.keep);
  EXPECT_DOUBLE_EQ(bad.stat, 0.0);
}

TEST(AlphanumericFilterTest, CjkCountsAsAlnum) {
  AlphanumericFilter f(Config(R"({"min": 0.5})"));
  EXPECT_TRUE(RunFilter(f, "\xE4\xB8\xAD\xE6\x96\x87\xE6\x96\x87").keep);
}

TEST(AverageLineLengthFilterTest, ComputesMean) {
  AverageLineLengthFilter f(Config(R"({"min": 0, "max": 1e9})"));
  FilterOutcome out = RunFilter(f, "ab\nabcd", "avg_line_length");
  EXPECT_DOUBLE_EQ(out.stat, 3.0);
}

TEST(AverageLineLengthFilterTest, ShortLinesRejected) {
  AverageLineLengthFilter f(Config(R"({"min": 10})"));
  EXPECT_FALSE(RunFilter(f, "a\nb\nc").keep);
}

TEST(CharacterRepetitionFilterTest, DetectsRepeatedRuns) {
  CharacterRepetitionFilter f(Config(R"({"rep_len": 5, "max": 0.2})"));
  std::string repetitive(300, 'a');
  EXPECT_FALSE(RunFilter(f, repetitive).keep);
  EXPECT_TRUE(
      RunFilter(f, "a perfectly ordinary sentence with variety").keep);
}

TEST(MaximumLineLengthFilterTest, LongestLine) {
  MaximumLineLengthFilter f(Config(R"({"min": 0, "max": 1e9})"));
  EXPECT_DOUBLE_EQ(RunFilter(f, "ab\nabcdef\nabc", "max_line_length").stat,
                   6.0);
}

TEST(SpecialCharactersFilterTest, Ratio) {
  SpecialCharactersFilter f(Config(R"({"max": 0.3})"));
  EXPECT_TRUE(RunFilter(f, "normal words here").keep);
  EXPECT_FALSE(RunFilter(f, "@@@ ### $$$ %%%").keep);
}

TEST(TextLengthFilterTest, CodepointLength) {
  TextLengthFilter f(Config(R"({"min": 3, "max": 5})"));
  EXPECT_TRUE(RunFilter(f, "abcd").keep);
  EXPECT_FALSE(RunFilter(f, "ab").keep);
  EXPECT_FALSE(RunFilter(f, "abcdef").keep);
  // 4 CJK chars = 12 bytes but 4 codepoints.
  EXPECT_TRUE(
      RunFilter(f, "\xE4\xB8\xAD\xE6\x96\x87\xE4\xB8\xAD\xE6\x96\x87").keep);
}

TEST(TokenNumFilterTest, CountsApproxTokens) {
  TokenNumFilter f(Config(R"({"min": 2, "max": 10})"));
  EXPECT_TRUE(RunFilter(f, "three plain words").keep);
  EXPECT_FALSE(RunFilter(f, "one").keep);
}

TEST(WordNumFilterTest, CountsWords) {
  WordNumFilter f(Config(R"({"min": 3, "max": 4})"));
  FilterOutcome out = RunFilter(f, "exactly three words", "num_words");
  EXPECT_TRUE(out.keep);
  EXPECT_DOUBLE_EQ(out.stat, 3.0);
  EXPECT_FALSE(RunFilter(f, "two words").keep);
}

/// Texts for the word-context tests: ASCII, mixed case, Latin-1 and Greek
/// capitals (left alone by the ASCII fold), CJK, malformed bytes and text
/// without words.
const std::vector<std::string>& WordContextInputs() {
  static const std::vector<std::string> inputs = {
      "",
      " ,.;!? -- ",
      "exactly three words",
      "Hello, World! it's 42 O'Neil's DATA-set MiXeD",
      "\xC3\x87""A \xC3\x89T\xC3\x89 GR\xC3\x96\xC3\x9F""E NA\xC3\x8FVE a\xC3\x97""B",
      "\xCE\x95\xCE\xBB\xCE\xBB\xCE\x97\xCE\x9D \xD0\xA0\xD1\x83\xD0\xA1 Zeta",
      "ABC\xE4\xB8\xAD\xE6\x96\x87""Def\xE3\x81\x8B""XyZ",
      "AB\xFF\xFE""CD \xC0\xAF""Ef \xED\xA0\x80Gh tail X\xE4\xB8",
  };
  return inputs;
}

TEST(WordNumFilterTest, CountEqualsTokenizerCounts) {
  WordNumFilter f(Config(R"({"min": 0})"));
  for (const std::string& s : WordContextInputs()) {
    FilterOutcome out = RunFilter(f, s, "num_words");
    EXPECT_EQ(out.stat, static_cast<double>(text::CountWords(s))) << s;
    EXPECT_EQ(out.stat, static_cast<double>(text::TokenizeWords(s).size()))
        << s;
  }
}

TEST(SampleContextTest, WordViewsMatchTokenizerOnNonAsciiInput) {
  for (const std::string& s : WordContextInputs()) {
    SampleContext ctx(s);
    EXPECT_EQ(std::vector<std::string>(ctx.Words().begin(),
                                       ctx.Words().end()),
              text::TokenizeWords(s))
        << s;
    EXPECT_EQ(std::vector<std::string>(ctx.WordsLower().begin(),
                                       ctx.WordsLower().end()),
              text::TokenizeWordsLower(s))
        << s;
    EXPECT_EQ(ctx.WordHashesLower(), text::WordHashes(s, /*lowercase=*/true))
        << s;
  }
}

TEST(SampleContextTest, OneTokenizationServesAllWordViews) {
  SampleContext::Counters::Reset();
  SampleContext ctx("Some Words and MORE words");
  ctx.Words();
  ctx.WordsLower();
  ctx.WordHashesLower();
  EXPECT_EQ(SampleContext::Counters::words.load(), 1u);
}

TEST(WordRepetitionFilterTest, RepeatedPhrases) {
  WordRepetitionFilter f(Config(R"({"rep_len": 3, "max": 0.3})"));
  std::string repeated;
  for (int i = 0; i < 20; ++i) repeated += "the same phrase again and ";
  EXPECT_FALSE(RunFilter(f, repeated).keep);
  EXPECT_TRUE(RunFilter(
      f, "every word here differs from the neighbours completely").keep);
}

TEST(ParagraphNumFilterTest, Counts) {
  ParagraphNumFilter f(Config(R"({"min": 2})"));
  EXPECT_TRUE(RunFilter(f, "one\n\ntwo").keep);
  EXPECT_FALSE(RunFilter(f, "single paragraph only").keep);
}

TEST(SentenceNumFilterTest, Counts) {
  SentenceNumFilter f(Config(R"({"min": 2})"));
  EXPECT_TRUE(RunFilter(f, "First. Second.").keep);
  EXPECT_FALSE(RunFilter(f, "Only one sentence.").keep);
}

TEST(RangeStatFilterTest, SkipsRecomputationWhenStatPresent) {
  WordNumFilter f(Config(R"({"min": 0})"));
  data::Dataset ds = data::Dataset::FromTexts({"two words"});
  ds.EnsureColumn(data::kStatsField);
  data::RowRef row = ds.Row(0);
  ASSERT_TRUE(row.Set("stats.num_words", json::Value(999.0)).ok());
  SampleContext ctx(row.GetText());
  ASSERT_TRUE(f.ComputeStats(row, &ctx).ok());
  EXPECT_DOUBLE_EQ(row.GetNumber("stats.num_words"), 999.0);  // untouched
}

// ------------------------------------------------------------ lexicon ----

TEST(FlaggedWordsFilterTest, RejectsSpam) {
  FlaggedWordsFilter f(Config(R"({"max": 0.05})"));
  EXPECT_TRUE(RunFilter(f, "a clean discussion of economics").keep);
  EXPECT_FALSE(
      RunFilter(f, "casino jackpot viagra casino jackpot").keep);
}

TEST(FlaggedWordsFilterTest, ExtraWordsParam) {
  FlaggedWordsFilter f(
      Config(R"({"max": 0.0, "extra_words": ["pineapple"]})"));
  EXPECT_FALSE(RunFilter(f, "pineapple pizza").keep);
}

TEST(StopwordsFilterTest, FluentTextHasStopwords) {
  StopwordsFilter f(Config(R"({"min": 0.2})"));
  EXPECT_TRUE(
      RunFilter(f, "the cat sat on the mat and it was happy").keep);
  EXPECT_FALSE(RunFilter(f, "keyword keyword keyword keyword").keep);
}

TEST(TextActionFilterTest, RequiresVerbs) {
  TextActionFilter f(Config(R"({"min": 1})"));
  EXPECT_TRUE(RunFilter(f, "Describe the experiment carefully").keep);
  EXPECT_FALSE(RunFilter(f, "table chair window door").keep);
}

TEST(TextEntityDependencyFilterTest, CountsEntities) {
  TextEntityDependencyFilter f(Config(R"({"min": 1})"));
  EXPECT_TRUE(RunFilter(f, "We visited Paris with Alice.").keep);
  EXPECT_FALSE(RunFilter(f, "we visited nowhere with nobody.").keep);
}

// -------------------------------------------------------------- model ----

TEST(LanguageIdScoreFilterTest, KeepsEnglishDropsChinese) {
  LanguageIdScoreFilter f(Config(R"({"lang": "en", "min_score": 0.5})"));
  EXPECT_TRUE(RunFilter(
      f, "the researchers describe the results of the experiment").keep);
  EXPECT_FALSE(RunFilter(f,
                         "\xe7\xa0\x94\xe7\xa9\xb6\xe4\xba\xba\xe5\x91\x98"
                         "\xe5\x88\x86\xe6\x9e\x90\xe7\xbb\x93\xe6\x9e\x9c"
                         "\xe3\x80\x82").keep);
}

TEST(LanguageIdScoreFilterTest, WritesLangAndScoreStats) {
  LanguageIdScoreFilter f(Config());
  data::Dataset ds = data::Dataset::FromTexts(
      {"the committee published the annual report about the economy"});
  ds.EnsureColumn(data::kStatsField);
  data::RowRef row = ds.Row(0);
  SampleContext ctx(row.GetText());
  ASSERT_TRUE(f.ComputeStats(row, &ctx).ok());
  EXPECT_EQ(row.GetText("stats.lang"), "en");
  EXPECT_GT(row.GetNumber("stats.lang_score"), 0.5);
}

TEST(PerplexityFilterTest, GarbageHasHighPerplexity) {
  PerplexityFilter f(Config(R"({"max_ppl": 10000})"));
  FilterOutcome fluent =
      RunFilter(f, "the model learns to predict the next word", "perplexity");
  FilterOutcome garbage =
      RunFilter(f, "zxq wvu tsr qpo nml kji hgf", "perplexity");
  EXPECT_LT(fluent.stat, garbage.stat);
  EXPECT_TRUE(fluent.keep);
}

TEST(PerplexityFilterTest, ThresholdRejects) {
  PerplexityFilter f(Config(R"({"max_ppl": 1})"));
  EXPECT_FALSE(RunFilter(f, "any text at all").keep);
}

TEST(QualityScoreFilterTest, ScoresProseAboveSpam) {
  QualityScoreFilter f(Config(R"({"min_score": 0.5})"));
  EXPECT_TRUE(RunFilter(
      f, "The committee published a detailed report describing the economic "
         "effects of the policy.").keep);
  EXPECT_FALSE(
      RunFilter(f, "click here casino jackpot viagra free money").keep);
}

// -------------------------------------------------------------- field ----

data::Dataset MetaDataset() {
  data::Sample a;
  a.Set("text", json::Value("doc a"));
  a.Set("meta.suffix", json::Value(".txt"));
  a.Set("meta.lang", json::Value("EN"));
  a.Set("meta.stars", json::Value(int64_t{1500}));
  data::Sample b;
  b.Set("text", json::Value("doc b"));
  b.Set("meta.suffix", json::Value(".exe"));
  b.Set("meta.lang", json::Value("ZH"));
  b.Set("meta.stars", json::Value(int64_t{3}));
  return data::Dataset::FromSamples({a, b});
}

bool KeepRowOf(const Filter& f, data::Dataset* ds, size_t row) {
  ds->EnsureColumn(data::kStatsField);
  data::RowRef r = ds->Row(row);
  SampleContext ctx(r.GetText());
  EXPECT_TRUE(f.ComputeStats(r, &ctx).ok());
  auto keep = f.KeepRow(r);
  EXPECT_TRUE(keep.ok());
  return keep.ok() && keep.value();
}

TEST(SuffixFilterTest, AllowedSuffixes) {
  SuffixFilter f(Config(R"({"suffixes": [".txt", ".md"]})"));
  data::Dataset ds = MetaDataset();
  EXPECT_TRUE(KeepRowOf(f, &ds, 0));
  EXPECT_FALSE(KeepRowOf(f, &ds, 1));
}

TEST(SuffixFilterTest, EmptyListKeepsEverything) {
  SuffixFilter f(Config());
  data::Dataset ds = MetaDataset();
  EXPECT_TRUE(KeepRowOf(f, &ds, 1));
}

TEST(SpecifiedFieldFilterTest, MatchesTargets) {
  SpecifiedFieldFilter f(
      Config(R"({"field": "meta.lang", "target_values": ["EN"]})"));
  data::Dataset ds = MetaDataset();
  EXPECT_TRUE(KeepRowOf(f, &ds, 0));
  EXPECT_FALSE(KeepRowOf(f, &ds, 1));
}

TEST(SpecifiedFieldFilterTest, NumericTargets) {
  SpecifiedFieldFilter f(
      Config(R"({"field": "meta.stars", "target_values": [3]})"));
  data::Dataset ds = MetaDataset();
  EXPECT_FALSE(KeepRowOf(f, &ds, 0));
  EXPECT_TRUE(KeepRowOf(f, &ds, 1));
}

TEST(SpecifiedNumericFieldFilterTest, RangeCheck) {
  SpecifiedNumericFieldFilter f(
      Config(R"({"field": "meta.stars", "min": 1000})"));
  data::Dataset ds = MetaDataset();
  EXPECT_TRUE(KeepRowOf(f, &ds, 0));
  EXPECT_FALSE(KeepRowOf(f, &ds, 1));
}

TEST(SpecifiedNumericFieldFilterTest, MissingFieldRejected) {
  SpecifiedNumericFieldFilter f(Config(R"({"field": "meta.absent"})"));
  data::Dataset ds = MetaDataset();
  EXPECT_FALSE(KeepRowOf(f, &ds, 0));
}

TEST(FieldExistsFilterTest, PresenceCheck) {
  FieldExistsFilter present(Config(R"({"field": "meta.suffix"})"));
  FieldExistsFilter absent(Config(R"({"field": "meta.nothing"})"));
  data::Dataset ds = MetaDataset();
  EXPECT_TRUE(KeepRowOf(present, &ds, 0));
  EXPECT_FALSE(KeepRowOf(absent, &ds, 0));
}

// Property sweep: a range filter's stat is always within sensible bounds.
struct RatioFilterCase {
  const char* name;
  const char* stat_key;
};

class RatioBoundsTest : public ::testing::TestWithParam<RatioFilterCase> {};

TEST_P(RatioBoundsTest, StatIsARatioInZeroOne) {
  const RatioFilterCase& c = GetParam();
  std::unique_ptr<Filter> f;
  json::Value config = Config(R"({"min": 0, "max": 1})");
  if (std::string(c.name) == "alphanumeric") {
    f = std::make_unique<AlphanumericFilter>(config);
  } else if (std::string(c.name) == "special") {
    f = std::make_unique<SpecialCharactersFilter>(config);
  } else if (std::string(c.name) == "char_rep") {
    f = std::make_unique<CharacterRepetitionFilter>(config);
  } else if (std::string(c.name) == "word_rep") {
    f = std::make_unique<WordRepetitionFilter>(config);
  } else if (std::string(c.name) == "stopwords") {
    f = std::make_unique<StopwordsFilter>(config);
  } else {
    f = std::make_unique<FlaggedWordsFilter>(config);
  }
  const std::string long_run(500, 'z');
  for (std::string_view input :
       {std::string_view(""), std::string_view("a"),
        std::string_view("mixed 123 !!!"),
        std::string_view("the the the the"), std::string_view(long_run)}) {
    FilterOutcome out = RunFilter(*f, input, c.stat_key);
    EXPECT_GE(out.stat, 0.0) << c.name << " on '" << input << "'";
    EXPECT_LE(out.stat, 1.0) << c.name << " on '" << input << "'";
  }
}

INSTANTIATE_TEST_SUITE_P(
    Ratios, RatioBoundsTest,
    ::testing::Values(RatioFilterCase{"alphanumeric", "alnum_ratio"},
                      RatioFilterCase{"special", "special_char_ratio"},
                      RatioFilterCase{"char_rep", "char_rep_ratio"},
                      RatioFilterCase{"word_rep", "word_rep_ratio"},
                      RatioFilterCase{"stopwords", "stopwords_ratio"},
                      RatioFilterCase{"flagged", "flagged_words_ratio"}),
    [](const ::testing::TestParamInfo<RatioFilterCase>& info) {
      return info.param.name;
    });

}  // namespace
}  // namespace dj::ops
