#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <vector>

#include "core/cache_manager.h"
#include "core/executor.h"
#include "core/fusion.h"
#include "data/io.h"
#include "ops/formatters/formatters.h"
#include "ops/registry.h"
#include "workload/generator.h"

// Differential plan-equivalence test: every shipped recipe must produce
// byte-identical output whether it runs naively (recipe order, no fusion)
// or fully optimized (fusion + reorder, effect-verified). This is the
// end-to-end proof that the plan transformations VerifyPlan licenses are
// semantics-preserving — any divergence is either an effect signature
// lying about an OP or a hole in the verifier. CacheWarmthTest adds the
// cold/warm cache axis: the same bytes whichever prefix of the plan a
// content-keyed cache restores.

#ifndef DJ_REPO_DIR
#define DJ_REPO_DIR "."
#endif

namespace dj {
namespace {

namespace fs = std::filesystem;

std::vector<std::string> RecipePaths() {
  std::vector<std::string> out;
  fs::path dir = fs::path(DJ_REPO_DIR) / "configs" / "recipes";
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    if (entry.path().extension() == ".yaml") {
      out.push_back(entry.path().string());
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

data::Dataset MixedCorpus() {
  workload::CorpusOptions web;
  web.style = workload::Style::kWeb;
  web.num_docs = 40;
  web.exact_dup_rate = 0.2;
  web.spam_rate = 0.2;
  web.seed = 1;
  data::Dataset ds = workload::CorpusGenerator(web).Generate();

  workload::CorpusOptions arxiv;
  arxiv.style = workload::Style::kArxiv;
  arxiv.num_docs = 10;
  arxiv.seed = 2;
  ds.Concat(workload::CorpusGenerator(arxiv).Generate());

  workload::CorpusOptions code;
  code.style = workload::Style::kCode;
  code.num_docs = 10;
  code.seed = 3;
  ds.Concat(workload::CorpusGenerator(code).Generate());

  workload::InstructionOptions sft;
  sft.num_samples = 40;
  sft.low_quality_rate = 0.3;
  sft.dup_rate = 0.2;
  sft.seed = 5;
  ds.Concat(workload::GenerateInstructionDataset(sft));
  return ds;
}

// Runs `recipe` with the given plan flags on a fresh OP chain (dedup OPs
// carry fingerprint state across runs, so OPs must never be reused).
data::Dataset RunWithPlan(const core::Recipe& recipe, bool fusion,
                          bool reorder) {
  auto ops = core::BuildOps(recipe, ops::OpRegistry::Global());
  EXPECT_TRUE(ops.ok()) << ops.status().ToString();
  core::Executor::Options options =
      core::Executor::OptionsFromRecipe(recipe);
  options.num_workers = 1;
  options.use_cache = false;
  options.use_checkpoint = false;
  options.op_fusion = fusion;
  options.op_reorder = reorder;
  core::Executor executor(options);
  core::RunReport report;
  auto result = executor.Run(MixedCorpus(), ops.value(), &report);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  return result.ok() ? std::move(result).value() : data::Dataset{};
}

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

class PlanDiffTest : public ::testing::TestWithParam<std::string> {};

TEST_P(PlanDiffTest, OptimizedPlanIsByteIdenticalToNaive) {
  auto recipe = core::Recipe::FromFile(GetParam());
  ASSERT_TRUE(recipe.ok()) << recipe.status().ToString();

  data::Dataset naive = RunWithPlan(recipe.value(), false, false);
  data::Dataset optimized = RunWithPlan(recipe.value(), true, true);

  // In-memory binary container bytes (covers every column incl. stats).
  EXPECT_EQ(data::SerializeDataset(naive), data::SerializeDataset(optimized))
      << GetParam() << ": optimized plan changed the dataset bytes";

  // Exported JSONL bytes, the artifact users actually diff.
  std::string dir = ::testing::TempDir() + "/dj_plan_diff";
  fs::create_directories(dir);
  std::string stem = fs::path(GetParam()).stem().string();
  std::string naive_path = dir + "/" + stem + ".naive.jsonl";
  std::string opt_path = dir + "/" + stem + ".opt.jsonl";
  ASSERT_TRUE(data::ExportDataset(naive, naive_path).ok());
  ASSERT_TRUE(data::ExportDataset(optimized, opt_path).ok());
  EXPECT_EQ(ReadFileBytes(naive_path), ReadFileBytes(opt_path))
      << GetParam() << ": exported JSONL differs between plans";
}

INSTANTIATE_TEST_SUITE_P(
    AllShippedRecipes, PlanDiffTest, ::testing::ValuesIn(RecipePaths()),
    [](const ::testing::TestParamInfo<std::string>& info) {
      std::string name = fs::path(info.param).stem().string();
      for (char& c : name) {
        if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
      }
      return name;
    });

// The cold/warm cache axis: every shipped recipe, under its own plan flags
// and a compressed cache, gives the naive plan's bytes cold, warm, and
// partially warm (the last k entries evicted). Its input is the raw bytes
// of a JSONL file, as dj_process hands it over, so a run that restores any
// stored state must not decode it.
class CacheWarmthTest : public ::testing::TestWithParam<std::string> {};

TEST_P(CacheWarmthTest, ColdWarmAndPartiallyWarmAreByteIdentical) {
  auto recipe = core::Recipe::FromFile(GetParam());
  ASSERT_TRUE(recipe.ok()) << recipe.status().ToString();
  std::string dir = ::testing::TempDir() + "/dj_cache_warmth_" +
                    fs::path(GetParam()).stem().string();
  fs::remove_all(dir);
  fs::create_directories(dir);
  const std::string input = dir + "/in.jsonl";
  ASSERT_TRUE(data::WriteJsonl(MixedCorpus(), input).ok());

  core::Executor::Options options =
      core::Executor::OptionsFromRecipe(recipe.value());
  options.num_workers = 2;
  options.use_cache = true;
  options.cache_dir = dir + "/cache";
  options.cache_compression = true;
  options.use_checkpoint = false;
  options.dataset_source_id = input;
  auto run = [&](const core::Executor::Options& opts,
                 core::RunReport* report) {
    auto ops = core::BuildOps(recipe.value(), ops::OpRegistry::Global());
    auto bytes = data::ReadFile(input);
    EXPECT_TRUE(ops.ok() && bytes.ok());
    if (!ops.ok() || !bytes.ok()) return std::string();
    auto out = core::Executor(opts).Run(
        core::RunInput::Encoded(std::move(bytes).value(),
                                ops::DecoderFor(input)),
        core::OpPointers(ops.value()), report);
    EXPECT_TRUE(out.ok()) << out.status().ToString();
    return out.ok() ? data::SerializeDataset(out.value()) : std::string();
  };
  core::Executor::Options naive = options;
  naive.use_cache = false;
  naive.op_fusion = false;
  naive.op_reorder = false;
  naive.num_workers = 1;
  const std::string want = run(naive, nullptr);

  // keys[i] names the state entering plan unit i, as Run computes it.
  auto ops = core::BuildOps(recipe.value(), ops::OpRegistry::Global());
  ASSERT_TRUE(ops.ok()) << ops.status().ToString();
  const std::vector<core::PlanUnit> plan =
      core::PlanFusion(ops.value(), {options.op_fusion, options.op_reorder});
  auto bytes = data::ReadFile(input);
  ASSERT_TRUE(bytes.ok()) << bytes.status().ToString();
  std::vector<uint64_t> keys{core::CacheManager::InitialKey(
      input, ops::DecoderFor(input).name,
      core::CacheManager::ContentDigest(bytes.value()))};
  for (const core::PlanUnit& unit : plan) {
    uint64_t key = keys.back();
    if (unit.is_fused()) {
      for (const ops::Filter* f : unit.fused) {
        key = core::CacheManager::ExtendKey(key, f->name(), f->config());
      }
    } else {
      key = core::CacheManager::ExtendKey(key, unit.op->name(),
                                          unit.op->config());
    }
    keys.push_back(key);
  }
  const size_t n = plan.size();

  core::RunReport cold;
  EXPECT_EQ(run(options, &cold), want) << "cold";
  EXPECT_TRUE(cold.input_decoded);
  ASSERT_EQ(cold.plan_units, n);

  core::RunReport warm;
  EXPECT_EQ(run(options, &warm), want) << "warm";
  EXPECT_EQ(warm.restored_units, n);
  EXPECT_EQ(warm.input_decoded, n == 0);

  core::CacheManager cache(options.cache_dir, options.cache_compression);
  for (size_t k = 1; k <= n; ++k) {
    for (size_t i = n - k + 1; i <= n; ++i) cache.Evict(keys[i]);
    core::RunReport partial;
    EXPECT_EQ(run(options, &partial), want) << "last " << k << " evicted";
    EXPECT_EQ(partial.restored_units, n - k) << "last " << k << " evicted";
    EXPECT_EQ(partial.input_decoded, k == n) << "last " << k << " evicted";
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllShippedRecipes, CacheWarmthTest, ::testing::ValuesIn(RecipePaths()),
    [](const ::testing::TestParamInfo<std::string>& info) {
      std::string name = fs::path(info.param).stem().string();
      for (char& c : name) {
        if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
      }
      return name;
    });

}  // namespace
}  // namespace dj
