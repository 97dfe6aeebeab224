#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "common/thread_pool.h"
#include "data/io.h"
#include "json/parser.h"
#include "ops/dedup/document_dedup.h"
#include "ops/dedup/granular_dedup.h"
#include "ops/dedup/minhash.h"
#include "ops/registry.h"
#include "workload/generator.h"
#include "test_sha256.h"

namespace dj::ops {
namespace {

json::Value Config(std::string_view text = "{}") {
  auto r = json::Parse(text);
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  return std::move(r).value();
}

data::Dataset Texts(std::vector<std::string> texts) {
  return data::Dataset::FromTexts(std::move(texts));
}

// ------------------------------------------------------------ minhash ----

TEST(MinHasherTest, IdenticalSetsIdenticalSignatures) {
  MinHasher hasher(64);
  std::vector<uint64_t> shingles{1, 2, 3, 4, 5};
  EXPECT_EQ(hasher.Signature(shingles), hasher.Signature(shingles));
}

TEST(MinHasherTest, JaccardEstimateTracksTruth) {
  MinHasher hasher(256);
  std::vector<uint64_t> a, b;
  for (uint64_t i = 0; i < 100; ++i) a.push_back(i);
  for (uint64_t i = 20; i < 120; ++i) b.push_back(i);  // true J = 80/120
  double est = MinHasher::EstimateJaccard(hasher.Signature(a),
                                          hasher.Signature(b));
  EXPECT_NEAR(est, 80.0 / 120.0, 0.12);
}

TEST(MinHasherTest, DisjointSetsLowSimilarity) {
  MinHasher hasher(128);
  std::vector<uint64_t> a{1, 2, 3}, b{100, 200, 300};
  EXPECT_LT(MinHasher::EstimateJaccard(hasher.Signature(a),
                                       hasher.Signature(b)),
            0.15);
}

TEST(LshTest, BandKeysMatchForEqualSignatures) {
  MinHasher hasher(64);
  LshParams params{8, 8};
  std::vector<uint64_t> shingles{7, 8, 9};
  EXPECT_EQ(LshBandKeys(hasher.Signature(shingles), params),
            LshBandKeys(hasher.Signature(shingles), params));
}

TEST(SimHashTest, SimilarFeatureSetsCloseInHamming) {
  std::vector<uint64_t> a, b;
  for (uint64_t i = 0; i < 200; ++i) {
    a.push_back(i);
    b.push_back(i);
  }
  b[0] = 9999;  // tiny perturbation
  uint64_t ha = SimHash(a), hb = SimHash(b);
  EXPECT_LE(HammingDistance64(ha, hb), 6);
  std::vector<uint64_t> c{50000, 50001, 50002, 50003};
  EXPECT_GT(HammingDistance64(ha, SimHash(c)), 10);
}

TEST(UnionFindTest, UnionsAndFinds) {
  UnionFind uf(5);
  uf.Union(0, 1);
  uf.Union(3, 4);
  EXPECT_EQ(uf.Find(0), uf.Find(1));
  EXPECT_EQ(uf.Find(3), uf.Find(4));
  EXPECT_NE(uf.Find(0), uf.Find(3));
  uf.Union(1, 3);
  EXPECT_EQ(uf.Find(0), uf.Find(4));
}

// ------------------------------------------------------ exact dedup ----

TEST(DocumentExactDedupTest, KeepsFirstOccurrence) {
  DocumentExactDeduplicator dedup(Config());
  data::Dataset ds = Texts({"alpha", "beta", "alpha", "gamma", "beta"});
  std::vector<DuplicatePair> pairs;
  auto result = dedup.Deduplicate(std::move(ds), nullptr, &pairs);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().NumRows(), 3u);
  EXPECT_EQ(result.value().GetTextAt(0), "alpha");
  ASSERT_EQ(pairs.size(), 2u);
  EXPECT_EQ(pairs[0].kept_row, 0u);
  EXPECT_EQ(pairs[0].removed_row, 2u);
  EXPECT_DOUBLE_EQ(pairs[0].similarity, 1.0);
}

TEST(DocumentExactDedupTest, NormalizationOptions) {
  DocumentExactDeduplicator loose(Config());
  auto r1 = loose.Deduplicate(Texts({"Hello World", "hello   world"}),
                              nullptr, nullptr);
  ASSERT_TRUE(r1.ok());
  EXPECT_EQ(r1.value().NumRows(), 1u);

  DocumentExactDeduplicator strict(
      Config(R"({"lowercase": false, "ignore_whitespace": false})"));
  auto r2 = strict.Deduplicate(Texts({"Hello World", "hello   world"}),
                               nullptr, nullptr);
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(r2.value().NumRows(), 2u);
}

TEST(DocumentExactDedupTest, WritesDocHashStat) {
  DocumentExactDeduplicator dedup(Config());
  data::Dataset ds = Texts({"sample"});
  auto result = dedup.Deduplicate(std::move(ds), nullptr, nullptr);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().GetTextAt(0, "stats.doc_hash").size(), 32u);
}

TEST(DocumentExactDedupTest, ParallelMatchesSequential) {
  workload::CorpusOptions options;
  options.num_docs = 200;
  options.exact_dup_rate = 0.3;
  options.seed = 5;
  data::Dataset a = workload::CorpusGenerator(options).Generate();
  data::Dataset b = a;
  DocumentExactDeduplicator d1(Config()), d2(Config());
  ThreadPool pool(4);
  auto r1 = d1.Deduplicate(std::move(a), nullptr, nullptr);
  auto r2 = d2.Deduplicate(std::move(b), &pool, nullptr);
  ASSERT_TRUE(r1.ok());
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(r1.value().NumRows(), r2.value().NumRows());
}

// ---------------------------------------------------- minhash dedup ----

TEST(DocumentMinHashDedupTest, CatchesNearDuplicates) {
  std::string base =
      "the committee published a detailed report describing the economic "
      "effects of the policy on rural communities over several years of "
      "careful observation and data analysis across many regions";
  DocumentMinHashDeduplicator dedup(Config(R"({"jaccard_threshold": 0.6})"));
  data::Dataset ds =
      Texts({base, base + " with one extra sentence appended here",
             "a completely different document about astronomy and the stars "
             "observed through telescopes on distant mountains at night"});
  std::vector<DuplicatePair> pairs;
  auto result = dedup.Deduplicate(std::move(ds), nullptr, &pairs);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().NumRows(), 2u);
  ASSERT_EQ(pairs.size(), 1u);
  EXPECT_EQ(pairs[0].kept_row, 0u);
  EXPECT_EQ(pairs[0].removed_row, 1u);
}

TEST(DocumentMinHashDedupTest, FewPermutationsStillLeaveOneBand) {
  // A 0.9 threshold asks for 16 rows per band, more than num_perm 8 holds;
  // rows are capped at num_perm, so one band remains and copies still go.
  DocumentMinHashDeduplicator dedup(
      Config(R"({"num_perm": 8, "jaccard_threshold": 0.9})"));
  std::string doc = "the same short document appears twice in this corpus";
  std::vector<DuplicatePair> pairs;
  auto result = dedup.Deduplicate(Texts({doc, doc}), nullptr, &pairs);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().NumRows(), 1u);
  ASSERT_EQ(pairs.size(), 1u);
  EXPECT_EQ(pairs[0].kept_row, 0u);
  EXPECT_EQ(pairs[0].removed_row, 1u);
}

TEST(DocumentMinHashDedupTest, LeavesDistinctDocsAlone) {
  workload::CorpusOptions options;
  options.num_docs = 50;
  options.seed = 77;
  data::Dataset ds = workload::CorpusGenerator(options).Generate();
  size_t before = ds.NumRows();
  DocumentMinHashDeduplicator dedup(Config(R"({"jaccard_threshold": 0.9})"));
  auto result = dedup.Deduplicate(std::move(ds), nullptr, nullptr);
  ASSERT_TRUE(result.ok());
  // Template-generated docs may rarely collide; allow a tiny tolerance.
  EXPECT_GE(result.value().NumRows(), before - 2);
}

// ---------------------------------------------------- simhash dedup ----

TEST(DocumentSimHashDedupTest, CatchesNearDuplicates) {
  std::string base;
  for (int i = 0; i < 30; ++i) {
    base += "sentence number " + std::to_string(i) + " about the project. ";
  }
  DocumentSimHashDeduplicator dedup(Config(R"({"hamming_threshold": 8})"));
  data::Dataset ds = Texts({base, base + "tail difference.",
                            "entirely unrelated words about gardening and "
                            "flowers in the spring season bloom"});
  auto result = dedup.Deduplicate(std::move(ds), nullptr, nullptr);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().NumRows(), 2u);
}

// ----------------------------------------------------- ngram overlap ----

TEST(NgramOverlapDedupTest, ExactCopiesRemoved) {
  NgramOverlapDeduplicator dedup(Config(R"({"jaccard_threshold": 0.8})"));
  std::string doc = "one two three four five six seven eight nine ten";
  auto result = dedup.Deduplicate(Texts({doc, doc, "other words entirely "
                                                   "different from before"}),
                                  nullptr, nullptr);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().NumRows(), 2u);
}

TEST(NgramOverlapDedupTest, ThresholdControlsAggressiveness) {
  std::string a = "shared prefix words here then unique ending alpha beta";
  std::string b = "shared prefix words here then unique ending gamma delta";
  auto run = [&](double threshold) {
    json::Object config;
    config.Set("jaccard_threshold", json::Value(threshold));
    NgramOverlapDeduplicator dedup{json::Value(config)};
    auto r = dedup.Deduplicate(Texts({a, b}), nullptr, nullptr);
    EXPECT_TRUE(r.ok());
    return r.value().NumRows();
  };
  EXPECT_EQ(run(0.95), 2u);  // strict: both survive
  EXPECT_EQ(run(0.3), 1u);   // loose: near-duplicates collapse
}

// --------------------------------------------------- granular dedup ----

TEST(ParagraphExactDedupTest, RemovesBoilerplateAcrossDocs) {
  std::string boiler = workload::CorpusGenerator::BoilerplateParagraph();
  ParagraphExactDeduplicator dedup(Config());
  data::Dataset ds = Texts({
      boiler + "\n\nUnique content of document one.",
      boiler + "\n\nDifferent content of document two.",
  });
  auto result = dedup.Deduplicate(std::move(ds), nullptr, nullptr);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result.value().NumRows(), 2u);
  // First doc keeps the boilerplate, second doc loses it.
  EXPECT_NE(result.value().GetTextAt(0).find("Home | About"),
            std::string_view::npos);
  EXPECT_EQ(result.value().GetTextAt(1).find("Home | About"),
            std::string_view::npos);
  EXPECT_NE(result.value().GetTextAt(1).find("document two"),
            std::string_view::npos);
}

TEST(ParagraphExactDedupTest, DropsFullyDuplicateSamples) {
  ParagraphExactDeduplicator dedup(Config());
  data::Dataset ds = Texts({"only paragraph here", "only paragraph here"});
  std::vector<DuplicatePair> pairs;
  auto result = dedup.Deduplicate(std::move(ds), nullptr, &pairs);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().NumRows(), 1u);
  EXPECT_EQ(pairs.size(), 1u);
}

TEST(SentenceExactDedupTest, RemovesRepeatedSentences) {
  SentenceExactDeduplicator dedup(Config());
  data::Dataset ds = Texts({
      "A shared opening sentence appears here. Unique tail one.",
      "A shared opening sentence appears here. Unique tail two.",
  });
  auto result = dedup.Deduplicate(std::move(ds), nullptr, nullptr);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().GetTextAt(1), "Unique tail two.");
}

TEST(GranularDedupTest, ShortUnitsAreExempt) {
  // Units below min_unit_length are never treated as duplicates.
  SentenceExactDeduplicator dedup(Config(R"({"min_unit_length": 8})"));
  data::Dataset ds = Texts({"Yes. More words follow here.",
                            "Yes. Other words follow here."});
  auto result = dedup.Deduplicate(std::move(ds), nullptr, nullptr);
  ASSERT_TRUE(result.ok());
  EXPECT_NE(result.value().GetTextAt(1).find("Yes."), std::string_view::npos);
}

// Sweep: on a corpus with injected duplicates every document-level method
// removes at least the exact copies and never drops below the unique count.
class DedupMethodTest : public ::testing::TestWithParam<const char*> {};

TEST_P(DedupMethodTest, RemovesInjectedDuplicates) {
  workload::CorpusOptions options;
  options.num_docs = 120;
  options.exact_dup_rate = 0.25;
  options.seed = 13;
  data::Dataset ds = workload::CorpusGenerator(options).Generate();
  size_t total = ds.NumRows();

  auto op = OpRegistry::Global().Create(GetParam(), Config());
  ASSERT_TRUE(op.ok());
  auto* dedup = static_cast<Deduplicator*>(op.value().get());
  auto result = dedup->Deduplicate(std::move(ds), nullptr, nullptr);
  ASSERT_TRUE(result.ok());
  EXPECT_LT(result.value().NumRows(), total);
  EXPECT_GT(result.value().NumRows(), total / 3);
}

INSTANTIATE_TEST_SUITE_P(Methods, DedupMethodTest,
                         ::testing::Values("document_exact_deduplicator",
                                           "document_minhash_deduplicator",
                                           "document_simhash_deduplicator",
                                           "ngram_overlap_deduplicator"));

// ------------------------------------- serial vs pooled, pinned bytes ----

/// Seeded web corpus with exact copies, near copies and shared boilerplate,
/// plus the edge rows every dedup must pass through: a non-string text, an
/// empty text, a missing text column and two boilerplate-only rows (the
/// second is emptied by unit-level dedup).
data::Dataset GoldenCorpus() {
  workload::CorpusOptions options;
  options.style = workload::Style::kWeb;
  options.num_docs = 400;
  options.exact_dup_rate = 0.1;
  options.near_dup_rate = 0.1;
  options.boilerplate_rate = 0.3;
  options.seed = 11;
  data::Dataset ds = workload::CorpusGenerator(options).Generate();
  auto row = [](json::Value text) {
    json::Object fields;
    fields.Set("text", std::move(text));
    return data::Sample(std::move(fields));
  };
  std::string boilerplate = workload::CorpusGenerator::BoilerplateParagraph();
  ds.AppendSample(row(json::Value(int64_t{42})));
  ds.AppendSample(row(json::Value(std::string())));
  json::Object meta_only;
  meta_only.Set("meta", json::Value(std::string("no text")));
  ds.AppendSample(data::Sample(std::move(meta_only)));
  ds.AppendSample(row(json::Value(boilerplate)));
  ds.AppendSample(row(json::Value(boilerplate + "\n\n" + boilerplate)));
  return ds;
}

std::string PairsText(const std::vector<DuplicatePair>& pairs) {
  std::string out;
  char buf[96];
  for (const DuplicatePair& p : pairs) {
    std::snprintf(buf, sizeof(buf), "%zu %zu %.17g\n", p.kept_row,
                  p.removed_row, p.similarity);
    out += buf;
  }
  return out;
}

struct GoldenRun {
  std::string jsonl;
  std::string pairs;
};

GoldenRun RunDedup(const char* op_name, const char* config, ThreadPool* pool) {
  auto op = OpRegistry::Global().Create(op_name, Config(config));
  EXPECT_TRUE(op.ok()) << op.status().ToString();
  if (!op.ok()) return {};
  auto* dedup = static_cast<Deduplicator*>(op.value().get());
  std::vector<DuplicatePair> pairs;
  auto result = dedup->Deduplicate(GoldenCorpus(), pool, &pairs);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  if (!result.ok()) return {};
  return {data::ToJsonl(result.value()), PairsText(pairs)};
}

/// The digests were recorded before the dedup phases moved onto the pool,
/// so they pin today's serial and pooled runs to the older serial output.
struct GoldenCase {
  const char* op;
  const char* config;
  const char* jsonl_sha256;  ///< of ToJsonl(output)
  const char* pairs_sha256;  ///< of PairsText(pairs)
};

TEST(DedupGoldenTest, SerialAndPooledMatchRecordedDigests) {
  const GoldenCase cases[] = {
      {"document_exact_deduplicator", "{}",
       "f007ec94d852ec9aadce69aec4088a14ed8e25298cd3ebc2a8e38bf07e287456",
       "7d633b799b752b3162cc53e3384bdd7adea0dde5a5b15dbafed6c4f56008d58a"},
      {"document_minhash_deduplicator",
       R"({"num_perm": 128, "jaccard_threshold": 0.7})",
       "96477d1aaf2bf1dbcffa79ee945b92b5f9e625624e11ce31e2864ad7904721df",
       "b26b4c9383f131d2c90ede1c1d6d22b06f784df8f54ebb91028015107cf570ba"},
      {"document_simhash_deduplicator", "{}",
       "b5dabb9f72e31386f0b3308fbf82bfac1b5bce2d992e5382fe5b9ef0bf03baae",
       "ddc4aa12ad5de81017fac471038a17be580e22b62942fa2962885c8f90285d08"},
      {"ngram_overlap_deduplicator", "{}",
       "306f24f0d46f6423a9d86720e53b279178c95008d6c8a9aeafd71b0338733f48",
       "e96eb24de6f84f840b02106233b739d96d233c39cb0d9defd6b3a5a22c12789a"},
      {"paragraph_exact_deduplicator", R"({"min_unit_length": 12})",
       "1b6840c4d41a1a373a1acf4b0f1018706526294492d5c3262745e1bc8aed31c3",
       "c0ddd047249ceeb4a2f9dea8bd71cbaa05187b37ebc3dcbba5d69da87818620d"},
      {"sentence_exact_deduplicator", "{}",
       "b8ecc29b60649e85acef2aa0e342fe198f669ba3e948ab8ac312b1f72d2e0e02",
       "c0ddd047249ceeb4a2f9dea8bd71cbaa05187b37ebc3dcbba5d69da87818620d"},
  };
  ThreadPool pool(4);
  for (const GoldenCase& c : cases) {
    GoldenRun serial = RunDedup(c.op, c.config, nullptr);
    GoldenRun pooled = RunDedup(c.op, c.config, &pool);
    EXPECT_EQ(serial.jsonl, pooled.jsonl) << c.op;
    EXPECT_EQ(serial.pairs, pooled.pairs) << c.op;
    EXPECT_FALSE(serial.pairs.empty()) << c.op;
    EXPECT_EQ(test_util::Sha256Hex(serial.jsonl), c.jsonl_sha256) << c.op;
    EXPECT_EQ(test_util::Sha256Hex(serial.pairs), c.pairs_sha256) << c.op;
  }
}

}  // namespace
}  // namespace dj::ops
