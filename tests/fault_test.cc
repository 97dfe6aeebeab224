#include "fault/fault.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <string>
#include <vector>

#include "common/hash.h"
#include "core/cache_manager.h"
#include "core/executor.h"
#include "data/io.h"
#include "json/parser.h"
#include "json/writer.h"
#include "obs/metrics.h"
#include "obs/span.h"
#include "ops/formatters/formatters.h"
#include "ops/registry.h"
#include "workload/generator.h"

// The fault-injection harness: fail-point registry semantics, seed
// determinism, observability emission, the crash-atomic state store under
// injected crashes and damaged entries, and the crash matrix — every shipped recipe killed at
// every OP boundary, resumed, and required to produce byte-identical output.

#ifndef DJ_REPO_DIR
#define DJ_REPO_DIR "."
#endif

namespace dj {
namespace {

namespace fs = std::filesystem;

using fault::FaultRegistry;
using fault::ScopedFaults;

std::string TempDir(const std::string& name) {
  std::string dir = ::testing::TempDir() + "/dj_fault_" + name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

// ------------------------------------------------------ registry specs ----

TEST(FaultRegistryTest, UnarmedPointsNeverFire) {
  FaultRegistry::Global().Reset();
  EXPECT_FALSE(FaultRegistry::Global().AnyArmed());
  EXPECT_FALSE(DJ_FAULT("nothing.armed"));
  EXPECT_EQ(FaultRegistry::Global().Stats("nothing.armed").hits, 0u);
}

TEST(FaultRegistryTest, ParsesEveryMode) {
  ScopedFaults faults("a=always; b=p0.5, c=n3 ;d=off;e=1");
  ASSERT_TRUE(faults.status().ok()) << faults.status().ToString();
  EXPECT_EQ(FaultRegistry::Global().ArmedPoints().size(), 5u);

  // always / 1: every hit triggers.
  EXPECT_TRUE(DJ_FAULT("a"));
  EXPECT_TRUE(DJ_FAULT("a"));
  EXPECT_TRUE(DJ_FAULT("e"));

  // n3: exactly the third hit, once.
  EXPECT_FALSE(DJ_FAULT("c"));
  EXPECT_FALSE(DJ_FAULT("c"));
  EXPECT_TRUE(DJ_FAULT("c"));
  EXPECT_FALSE(DJ_FAULT("c"));
  EXPECT_EQ(FaultRegistry::Global().Stats("c").hits, 4u);
  EXPECT_EQ(FaultRegistry::Global().Stats("c").triggers, 1u);

  // off: counts hits, never triggers.
  EXPECT_FALSE(DJ_FAULT("d"));
  EXPECT_EQ(FaultRegistry::Global().Stats("d").hits, 1u);
}

TEST(FaultRegistryTest, RejectsMalformedSpecs) {
  FaultRegistry::Global().Reset();
  EXPECT_FALSE(FaultRegistry::Global().Configure("x=p1.5").ok());
  EXPECT_FALSE(FaultRegistry::Global().Configure("x=n0").ok());
  EXPECT_FALSE(FaultRegistry::Global().Configure("x=sometimes").ok());
  EXPECT_FALSE(FaultRegistry::Global().Configure("=always").ok());
  EXPECT_FALSE(FaultRegistry::Global().Configure("bare-name").ok());
  EXPECT_FALSE(FaultRegistry::Global().Configure("seed=notanumber").ok());
  FaultRegistry::Global().Reset();
}

TEST(FaultRegistryTest, EmptyAndWhitespaceSpecsAreOk) {
  FaultRegistry::Global().Reset();
  EXPECT_TRUE(FaultRegistry::Global().Configure("").ok());
  EXPECT_TRUE(FaultRegistry::Global().Configure(" ; , ").ok());
  EXPECT_FALSE(FaultRegistry::Global().AnyArmed());
}

TEST(FaultRegistryTest, ScopedFaultsResetOnExit) {
  {
    ScopedFaults faults("x=always");
    ASSERT_TRUE(faults.status().ok());
    EXPECT_TRUE(FaultRegistry::Global().AnyArmed());
  }
  EXPECT_FALSE(FaultRegistry::Global().AnyArmed());
  EXPECT_EQ(FaultRegistry::Global().TotalTriggers(), 0u);
}

// -------------------------------------------------------- determinism ----

// Acceptance criterion: a given seed reproduces the exact same trigger
// sequence across two runs.
TEST(FaultDeterminismTest, SameSeedSameTriggerSequence) {
  auto draw_sequence = [](uint64_t seed) {
    FaultRegistry::Global().Reset();
    ScopedFaults faults("seed=" + std::to_string(seed) + ";flaky=p0.3");
    EXPECT_TRUE(faults.status().ok());
    std::vector<bool> out;
    for (int i = 0; i < 200; ++i) out.push_back(DJ_FAULT("flaky"));
    return out;
  };
  std::vector<bool> run1 = draw_sequence(123);
  std::vector<bool> run2 = draw_sequence(123);
  EXPECT_EQ(run1, run2);
  EXPECT_NE(run1, draw_sequence(124));  // a different seed diverges
}

TEST(FaultDeterminismTest, SeedEntryGovernsFollowingPoints) {
  // "seed=U" reseeds the registry; points armed after it draw from it.
  auto first_trigger_index = [](const std::string& spec) {
    FaultRegistry::Global().Reset();
    ScopedFaults faults(spec);
    EXPECT_TRUE(faults.status().ok());
    for (int i = 0; i < 10000; ++i) {
      if (DJ_FAULT("p")) return i;
    }
    return -1;
  };
  int a = first_trigger_index("seed=7;p=p0.05");
  int b = first_trigger_index("seed=7;p=p0.05");
  EXPECT_EQ(a, b);
  EXPECT_GE(a, 0);
}

TEST(FaultDeterminismTest, PointsDrawIndependentStreams) {
  // Two points under one seed have distinct (name-derived) RNG streams.
  FaultRegistry::Global().Reset();
  ScopedFaults faults("seed=5;left=p0.5;right=p0.5");
  ASSERT_TRUE(faults.status().ok());
  std::vector<bool> left, right;
  for (int i = 0; i < 100; ++i) {
    left.push_back(DJ_FAULT("left"));
    right.push_back(DJ_FAULT("right"));
  }
  EXPECT_NE(left, right);
}

// ------------------------------------------------------ observability ----

TEST(FaultObsTest, TriggersBumpMetricsAndEmitInstants) {
  obs::MetricsRegistry metrics;
  obs::SpanRecorder spans;
  obs::InstallGlobalMetrics(&metrics);
  obs::InstallGlobalRecorder(&spans);
  {
    ScopedFaults faults("obs.point=n2");
    ASSERT_TRUE(faults.status().ok());
    EXPECT_FALSE(DJ_FAULT("obs.point"));
    EXPECT_TRUE(DJ_FAULT("obs.point"));
  }
  obs::InstallGlobalMetrics(nullptr);
  obs::InstallGlobalRecorder(nullptr);

  EXPECT_EQ(metrics.FindCounter("fault.triggers")->value(), 1u);
  EXPECT_EQ(metrics.FindCounter("fault.obs.point.triggers")->value(), 1u);

  // The trace carries a "fault:obs.point" instant.
  std::string trace = json::Write(spans.ToJson(), {});
  EXPECT_NE(trace.find("fault:obs.point"), std::string::npos) << trace;
}

// ------------------------------------------------------- crash matrix ----

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

// Small mixed corpus (web/arxiv/code/zh + instruction data) so every shipped
// recipe has rows its OPs act on; regenerated identically per run from fixed
// seeds.
data::Dataset SmallCorpus() {
  workload::CorpusOptions web;
  web.style = workload::Style::kWeb;
  web.num_docs = 16;
  web.exact_dup_rate = 0.25;
  web.spam_rate = 0.2;
  web.seed = 11;
  data::Dataset ds = workload::CorpusGenerator(web).Generate();

  workload::CorpusOptions zh;
  zh.style = workload::Style::kChinese;
  zh.num_docs = 6;
  zh.seed = 12;
  ds.Concat(workload::CorpusGenerator(zh).Generate());

  workload::CorpusOptions code;
  code.style = workload::Style::kCode;
  code.num_docs = 6;
  code.seed = 13;
  ds.Concat(workload::CorpusGenerator(code).Generate());

  workload::InstructionOptions sft;
  sft.num_samples = 16;
  sft.low_quality_rate = 0.3;
  sft.dup_rate = 0.25;
  sft.seed = 14;
  ds.Concat(workload::GenerateInstructionDataset(sft));

  workload::InstructionOptions ift = sft;
  ift.usage = "IFT";
  ift.seed = 15;
  ds.Concat(workload::GenerateInstructionDataset(ift));
  return ds;
}

class CrashMatrixTest : public ::testing::TestWithParam<std::string> {};

// Acceptance criterion: for every shipped recipe, a run killed at any OP
// boundary and resumed from its checkpoint produces byte-identical output
// to an uninterrupted run.
TEST_P(CrashMatrixTest, KillAtEveryBoundaryResumeByteIdentical) {
  auto recipe = core::Recipe::FromFile(GetParam());
  ASSERT_TRUE(recipe.ok()) << recipe.status().ToString();
  auto ops = core::BuildOps(recipe.value(), ops::OpRegistry::Global());
  ASSERT_TRUE(ops.ok()) << ops.status().ToString();

  core::Executor::Options base =
      core::Executor::OptionsFromRecipe(recipe.value());
  base.num_workers = 1;  // keep the matrix fast
  base.use_cache = false;
  base.use_checkpoint = false;

  // Uninterrupted reference run.
  FaultRegistry::Global().Reset();
  core::Executor clean_executor(base);
  auto clean = clean_executor.Run(SmallCorpus(), ops.value());
  ASSERT_TRUE(clean.ok()) << clean.status().ToString();
  const std::string want_bytes =
      data::SerializeDataset(clean.value(), nullptr, /*num_shards=*/1);

  // Kill at boundary b (the b-th probe of exec.op_abort), resume, compare.
  // The loop discovers the number of plan units implicitly: when the
  // injected run no longer crashes, every boundary has been covered.
  size_t boundaries_hit = 0;
  for (uint64_t b = 1; b <= 64; ++b) {
    std::string dir =
        TempDir("matrix_" + fs::path(GetParam()).stem().string() + "_" +
                std::to_string(b));
    core::Executor::Options opts = base;
    opts.use_checkpoint = true;
    opts.checkpoint_dir = dir;
    opts.faults = "exec.op_abort=n" + std::to_string(b);

    core::Executor crashing(opts);
    auto crashed = crashing.Run(SmallCorpus(), ops.value());
    FaultRegistry::Global().Reset();
    if (crashed.ok()) {
      // Fewer than b boundaries: the whole matrix for this recipe is done.
      EXPECT_EQ(data::SerializeDataset(crashed.value(), nullptr, 1),
                want_bytes);
      break;
    }
    ASSERT_EQ(crashed.status().code(), StatusCode::kAborted)
        << crashed.status().ToString();
    ++boundaries_hit;

    core::Executor::Options resume_opts = opts;
    resume_opts.faults.clear();
    core::Executor resuming(resume_opts);
    core::RunReport report;
    auto resumed = resuming.Run(SmallCorpus(), ops.value(), &report);
    ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
    // Boundary 1 aborts before the first unit: nothing was checkpointed,
    // so the resumed run legitimately starts from scratch.
    if (b > 1) {
      EXPECT_TRUE(report.resumed_from_checkpoint)
          << GetParam() << " boundary " << b;
    }
    ASSERT_EQ(data::SerializeDataset(resumed.value(), nullptr, 1), want_bytes)
        << GetParam() << ": resume after kill at boundary " << b
        << " diverged from the uninterrupted run";
    fs::remove_all(dir);
  }
  EXPECT_GE(boundaries_hit, 1u) << "no boundary was ever hit — is "
                                   "exec.op_abort still probed per unit?";
}

INSTANTIATE_TEST_SUITE_P(
    AllShippedRecipes, CrashMatrixTest, ::testing::ValuesIn(RecipePaths()),
    [](const ::testing::TestParamInfo<std::string>& info) {
      std::string name = fs::path(info.param).stem().string();
      for (char& c : name) {
        if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
      }
      return name;
    });

// ---------------------------------------------------- the state store ----

// Cache and checkpoint entries live in one kind of store (core::CacheManager)
// keyed by the config-hash chain. These run one shipped recipe with fusion
// and reordering off, so plan unit i is OP i and the chain is easy to rebuild.

using Ops = std::vector<std::unique_ptr<ops::Op>>;

constexpr const char* kStoreSource = "store-corpus";

Ops GeneralEnOps() {
  auto recipe = core::Recipe::FromFile(
      (fs::path(DJ_REPO_DIR) / "configs" / "recipes" / "pretrain_general_en.yaml")
          .string());
  EXPECT_TRUE(recipe.ok()) << recipe.status().ToString();
  auto ops = core::BuildOps(recipe.value(), ops::OpRegistry::Global());
  EXPECT_TRUE(ops.ok()) << ops.status().ToString();
  return ops.ok() ? std::move(ops).value() : Ops{};
}

// keys[i] names the state entering unit i, as the executor computes it.
std::vector<uint64_t> KeyChain(const Ops& ops) {
  std::vector<uint64_t> keys{core::CacheManager::InitialKey(kStoreSource)};
  for (const auto& op : ops) {
    keys.push_back(
        core::CacheManager::ExtendKey(keys.back(), op->name(), op->config()));
  }
  return keys;
}

std::string EntryName(uint64_t key, const char* ext) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(key));
  return buf + std::string(ext);
}

std::vector<std::string> Sorted(std::vector<std::string> names) {
  std::sort(names.begin(), names.end());
  return names;
}

std::vector<std::string> FilesIn(const std::string& dir) {
  std::vector<std::string> out;
  for (const auto& entry : fs::directory_iterator(dir)) {
    out.push_back(entry.path().filename().string());
  }
  return Sorted(std::move(out));
}

core::Executor::Options StoreOptions() {
  core::Executor::Options o;
  o.dataset_source_id = kStoreSource;
  return o;
}

core::Executor::Options CheckpointOptions(const std::string& dir) {
  core::Executor::Options o = StoreOptions();
  o.use_checkpoint = true;
  o.checkpoint_dir = dir;
  return o;
}

// The run's output bytes ("" on failure, which the test also reports).
std::string RunBytes(core::Executor::Options opts, const Ops& ops,
                     core::RunReport* report = nullptr) {
  auto out = core::Executor(std::move(opts)).Run(SmallCorpus(), ops, report);
  EXPECT_TRUE(out.ok()) << out.status().ToString();
  return out.ok() ? data::SerializeDataset(out.value(), nullptr, 1) : "";
}

enum class Damage { kTruncate, kFlipByte };

// Damages a stored file the way a torn write or a bad sector would.
void DamageFile(const std::string& path, Damage damage) {
  auto bytes = data::ReadFile(path);
  ASSERT_TRUE(bytes.ok()) << bytes.status().ToString();
  std::string b = std::move(bytes).value();
  if (damage == Damage::kTruncate) {
    b.resize(b.size() / 2);
  } else {
    b[b.size() / 2] ^= 0x01;
  }
  ASSERT_TRUE(data::WriteFile(path, b).ok());
}

uint64_t CounterValue(const obs::MetricsRegistry& metrics, const char* name) {
  const obs::Counter* c = metrics.FindCounter(name);
  return c == nullptr ? 0 : c->value();
}

// The two crash windows of a checkpoint store write: a torn temp file, and
// a crash after the new entry lands but before the older ones are evicted.
class StoreCrashTest : public ::testing::TestWithParam<const char*> {};

TEST_P(StoreCrashTest, CrashLeavesPreviousEntryLoadable) {
  std::string dir = TempDir(std::string("crash_") + GetParam());
  core::CacheManager store(dir, /*compression=*/false);
  ASSERT_TRUE(store.StoreLatest(111, data::Dataset::FromTexts({"one"})).ok());

  const data::Dataset two = data::Dataset::FromTexts({"two", "extra"});
  {
    ScopedFaults faults(std::string(GetParam()) + "=n1");
    ASSERT_TRUE(faults.status().ok());
    Status crashed = store.StoreLatest(222, two);
    EXPECT_FALSE(crashed.ok());
    EXPECT_NE(crashed.ToString().find(GetParam()), std::string::npos)
        << crashed.ToString();
  }

  // The interrupted write must not have damaged the previous entry.
  auto loaded = store.Load(111);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded.value().NumRows(), 1u);

  // A retried write wins cleanly and leaves only itself.
  ASSERT_TRUE(store.StoreLatest(222, two).ok());
  EXPECT_EQ(FilesIn(dir),
            std::vector<std::string>{EntryName(222, ".djds")});
  auto retried = store.Load(222);
  ASSERT_TRUE(retried.ok()) << retried.status().ToString();
  EXPECT_EQ(retried.value().NumRows(), 2u);
}

TEST_P(StoreCrashTest, ResumeAfterCrashInWindowIsByteIdentical) {
  const bool torn = std::string(GetParam()) == "store.torn_write";
  Ops ops = GeneralEnOps();
  ASSERT_GE(ops.size(), 4u);
  const std::vector<uint64_t> keys = KeyChain(ops);
  const std::string want = RunBytes(StoreOptions(), ops);

  // The third save (of the state entering unit 3) crashes in the window,
  // then the run is killed before unit 3.
  std::string dir = TempDir(std::string("window_") + GetParam());
  core::Executor::Options opts = CheckpointOptions(dir);
  opts.faults = std::string(GetParam()) + "=n3;exec.op_abort=n4";
  auto crashed = core::Executor(opts).Run(SmallCorpus(), ops);
  FaultRegistry::Global().Reset();
  ASSERT_EQ(crashed.status().code(), StatusCode::kAborted)
      << crashed.status().ToString();
  EXPECT_EQ(FilesIn(dir),
            Sorted({EntryName(keys[2], ".djds"),
                    EntryName(keys[3], torn ? ".djds.tmp" : ".djds")}));

  // The resume scan takes the deepest complete entry.
  core::RunReport report;
  EXPECT_EQ(RunBytes(CheckpointOptions(dir), ops, &report), want);
  EXPECT_TRUE(report.resumed_from_checkpoint);
  EXPECT_EQ(report.op_reports.size(), ops.size() - (torn ? 2 : 3));
  EXPECT_EQ(FilesIn(dir),
            std::vector<std::string>{EntryName(keys.back(), ".djds")});
}

INSTANTIATE_TEST_SUITE_P(AllCrashWindows, StoreCrashTest,
                         ::testing::Values("store.torn_write",
                                           "store.before_evict"),
                         [](const ::testing::TestParamInfo<const char*>& i) {
                           std::string name = i.param;
                           for (char& c : name) {
                             if (c == '.') c = '_';
                           }
                           return name;
                         });

TEST(StoreCorruptionTest, DamagedEntryFailsLoadWithCorruption) {
  for (bool compression : {false, true}) {
    for (Damage damage : {Damage::kTruncate, Damage::kFlipByte}) {
      std::string dir = TempDir("damaged_entry");
      core::CacheManager store(dir, compression);
      ASSERT_TRUE(
          store.Store(42, data::Dataset::FromTexts({"alpha", "beta", "gamma"}))
              .ok());
      DamageFile(dir + "/" + EntryName(42, compression ? ".djds.djlz"
                                                        : ".djds"),
                 damage);
      auto loaded = store.Load(42);
      ASSERT_FALSE(loaded.ok()) << "compression " << compression;
      EXPECT_EQ(loaded.status().code(), StatusCode::kCorruption)
          << loaded.status().ToString();
    }
  }
}

TEST(StoreCorruptionTest, ExecutorFallsBackToShallowerCacheEntry) {
  Ops ops = GeneralEnOps();
  const std::vector<uint64_t> keys = KeyChain(ops);
  const std::string want = RunBytes(StoreOptions(), ops);
  for (bool compression : {false, true}) {
    for (Damage damage : {Damage::kTruncate, Damage::kFlipByte}) {
      std::string dir = TempDir("cache_fallback");
      core::Executor::Options opts = StoreOptions();
      opts.use_cache = true;
      opts.cache_dir = dir;
      opts.cache_compression = compression;
      ASSERT_EQ(RunBytes(opts, ops), want);
      DamageFile(dir + "/" + EntryName(keys.back(), compression ? ".djds.djlz"
                                                                : ".djds"),
                 damage);

      obs::MetricsRegistry metrics;
      opts.metrics = &metrics;
      core::RunReport report;
      EXPECT_EQ(RunBytes(opts, ops, &report), want);
      EXPECT_EQ(report.cache_hits, ops.size() - 1);
      EXPECT_EQ(CounterValue(metrics, "cache.load_rejected"), 1u);
    }
  }
}

TEST(StoreCorruptionTest, DamagedCheckpointRestartsFresh) {
  Ops ops = GeneralEnOps();
  const std::vector<uint64_t> keys = KeyChain(ops);
  const std::string want = RunBytes(StoreOptions(), ops);
  for (Damage damage : {Damage::kTruncate, Damage::kFlipByte}) {
    std::string dir = TempDir("ckpt_fresh");
    ASSERT_EQ(RunBytes(CheckpointOptions(dir), ops), want);
    const std::string entry = EntryName(keys.back(), ".djds");
    ASSERT_EQ(FilesIn(dir), std::vector<std::string>{entry});
    DamageFile(dir + "/" + entry, damage);

    obs::MetricsRegistry metrics;
    core::Executor::Options opts = CheckpointOptions(dir);
    opts.metrics = &metrics;
    core::RunReport report;
    EXPECT_EQ(RunBytes(opts, ops, &report), want);
    EXPECT_FALSE(report.resumed_from_checkpoint);
    EXPECT_EQ(report.op_reports.size(), ops.size());
    EXPECT_EQ(CounterValue(metrics, "checkpoint.load_rejected"), 1u);
    EXPECT_EQ(FilesIn(dir), std::vector<std::string>{entry});
  }
}

TEST(CheckpointStoreTest, HoldsAtMostOneEntryAfterEverySave) {
  // Killing the run at boundary b leaves what the first b-1 saves left:
  // exactly the newest state.
  Ops ops = GeneralEnOps();
  const std::vector<uint64_t> keys = KeyChain(ops);
  for (size_t b = 1; b <= ops.size() + 1; ++b) {
    std::string dir = TempDir("one_entry");
    core::Executor::Options opts = CheckpointOptions(dir);
    opts.faults = "exec.op_abort=n" + std::to_string(b);
    auto run = core::Executor(opts).Run(SmallCorpus(), ops);
    FaultRegistry::Global().Reset();
    EXPECT_EQ(run.ok(), b == ops.size() + 1) << "boundary " << b;
    const std::vector<std::string> want =
        b == 1 ? std::vector<std::string>{}
               : std::vector<std::string>{EntryName(keys[b - 1], ".djds")};
    EXPECT_EQ(FilesIn(dir), want) << "boundary " << b;
  }
}

TEST(CheckpointStoreTest, SharedWithCacheLosesNoCacheEntry) {
  Ops ops = GeneralEnOps();
  const std::vector<uint64_t> keys = KeyChain(ops);
  const std::string want = RunBytes(StoreOptions(), ops);
  std::vector<std::string> every_entry;
  for (size_t i = 1; i < keys.size(); ++i) {
    every_entry.push_back(EntryName(keys[i], ".djds.djlz"));
  }
  every_entry = Sorted(std::move(every_entry));

  // The trailing '/' still names the cache directory.
  std::string dir = TempDir("shared");
  core::Executor::Options opts = CheckpointOptions(dir + "/");
  opts.use_cache = true;
  opts.cache_dir = dir;
  opts.cache_compression = true;
  ASSERT_EQ(RunBytes(opts, ops), want);
  EXPECT_EQ(FilesIn(dir), every_entry);

  core::RunReport report;
  EXPECT_EQ(RunBytes(opts, ops, &report), want);
  EXPECT_TRUE(report.resumed_from_checkpoint);
  EXPECT_TRUE(report.op_reports.empty());
  EXPECT_EQ(FilesIn(dir), every_entry);
}

TEST(CheckpointStoreTest, OlderBuildLayoutStartsFresh) {
  // Older builds kept a checkpoint.json manifest naming a
  // checkpoint-<key>.djds blob. No current key reaches either, so a run
  // without --resume, which clears the directory first, removes both and
  // their temp files, and starts fresh. Other files stay.
  Ops ops = GeneralEnOps();
  const std::vector<uint64_t> keys = KeyChain(ops);
  const std::string want = RunBytes(StoreOptions(), ops);
  std::string fresh = TempDir("layout_fresh");
  ASSERT_EQ(RunBytes(CheckpointOptions(fresh), ops), want);
  auto blob = data::ReadFile(fresh + "/" + EntryName(keys.back(), ".djds"));
  ASSERT_TRUE(blob.ok()) << blob.status().ToString();

  std::string dir = TempDir("layout_old");
  const std::string old_blob = "checkpoint-" + EntryName(keys.back(), ".djds");
  json::Object manifest;
  manifest.Set("schema", json::Value(static_cast<int64_t>(2)));
  manifest.Set("next_op_index", json::Value(static_cast<int64_t>(ops.size())));
  manifest.Set("pipeline_key",
               json::Value(static_cast<int64_t>(keys.back())));
  manifest.Set("blob_file", json::Value(old_blob));
  manifest.Set("blob_bytes",
               json::Value(static_cast<int64_t>(blob.value().size())));
  manifest.Set("blob_checksum",
               json::Value(static_cast<int64_t>(Fnv1a64(blob.value()))));
  ASSERT_TRUE(data::WriteFile(dir + "/checkpoint.json",
                              json::Write(json::Value(std::move(manifest))))
                  .ok());
  ASSERT_TRUE(data::WriteFile(dir + "/" + old_blob, blob.value()).ok());
  ASSERT_TRUE(data::WriteFile(dir + "/checkpoint.json.tmp", "{").ok());
  ASSERT_TRUE(data::WriteFile(dir + "/" + old_blob + ".tmp", "DJ").ok());
  ASSERT_TRUE(data::WriteFile(dir + "/notes.txt", "kept").ok());

  core::CacheManager(dir, /*compression=*/false).Clear();
  core::RunReport report;
  EXPECT_EQ(RunBytes(CheckpointOptions(dir), ops, &report), want);
  EXPECT_FALSE(report.resumed_from_checkpoint);
  EXPECT_EQ(report.op_reports.size(), ops.size());
  EXPECT_EQ(FilesIn(dir),
            Sorted({EntryName(keys.back(), ".djds"), "notes.txt"}));
}

// The checkpoint of an input that was edited since belongs to other rows:
// --resume must start fresh. The input is read as raw bytes, as dj_process
// reads it, so its key follows its content.
TEST(CheckpointStoreTest, EditedInputStartsFresh) {
  Ops ops = GeneralEnOps();
  std::string dir = TempDir("edited_input");
  const std::string input = dir + "/in.jsonl";
  auto run = [&](const core::Executor::Options& opts,
                 core::RunReport* report) {
    auto bytes = data::ReadFile(input);
    EXPECT_TRUE(bytes.ok()) << bytes.status().ToString();
    auto out = core::Executor(opts).Run(
        core::RunInput::Encoded(bytes.ok() ? std::move(bytes).value() : "",
                                ops::DecoderFor(input)),
        core::OpPointers(ops), report);
    EXPECT_TRUE(out.ok() || out.status().code() == StatusCode::kAborted)
        << out.status().ToString();
    return out.ok() ? data::SerializeDataset(out.value(), nullptr, 1) : "";
  };
  core::Executor::Options opts = CheckpointOptions(dir + "/ckpt");
  opts.dataset_source_id = input;

  // A run over the original input is killed before unit 3.
  const std::string original = data::ToJsonl(SmallCorpus());
  ASSERT_TRUE(data::WriteFile(input, original).ok());
  core::Executor::Options crashing = opts;
  crashing.faults = "exec.op_abort=n4";
  EXPECT_EQ(run(crashing, nullptr), "");
  FaultRegistry::Global().Reset();
  ASSERT_EQ(FilesIn(dir + "/ckpt").size(), 1u);

  // The input loses its first row; the resumed run must not continue from
  // the old rows' state.
  ASSERT_TRUE(
      data::WriteFile(input, original.substr(original.find('\n') + 1)).ok());
  core::Executor::Options no_store = StoreOptions();
  no_store.dataset_source_id = input;
  const std::string want = run(no_store, nullptr);
  ASSERT_NE(want, "");
  core::RunReport report;
  EXPECT_EQ(run(opts, &report), want);
  EXPECT_FALSE(report.resumed_from_checkpoint);
  EXPECT_TRUE(report.input_decoded);
  EXPECT_EQ(report.op_reports.size(), ops.size());
}

// Seed-deterministic probabilistic kills at the executor level: the same
// DJ_FAULTS-style spec must abort at the same unit across runs.
TEST(ExecutorFaultTest, ProbabilisticAbortIsSeedDeterministic) {
  auto recipe = core::Recipe::FromFile(
      (fs::path(DJ_REPO_DIR) / "configs" / "recipes" / "pretrain_general_en.yaml")
          .string());
  ASSERT_TRUE(recipe.ok()) << recipe.status().ToString();
  auto ops = core::BuildOps(recipe.value(), ops::OpRegistry::Global());
  ASSERT_TRUE(ops.ok()) << ops.status().ToString();

  auto run_once = [&]() {
    FaultRegistry::Global().Reset();
    core::Executor::Options opts =
        core::Executor::OptionsFromRecipe(recipe.value());
    opts.num_workers = 1;
    opts.use_cache = false;
    opts.use_checkpoint = false;
    opts.faults = "seed=9;exec.op_abort=p0.4";
    core::Executor executor(opts);
    auto result = executor.Run(SmallCorpus(), ops.value());
    std::string outcome = result.ok() ? "ok" : result.status().ToString();
    FaultRegistry::Global().Reset();
    return outcome;
  };
  EXPECT_EQ(run_once(), run_once());
}

}  // namespace
}  // namespace dj
