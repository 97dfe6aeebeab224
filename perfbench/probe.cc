// perfbench_probe: the in-process half of the end-to-end benchmark
// (perfbench/run.py drives it; see perfbench/NOTES.md).
//
//   perfbench_probe host
//       Host fingerprint as one JSON line: hardware_concurrency, SIMD
//       dispatch level, build type and a fixed calibration-loop score.
//   perfbench_probe gen --style web|arxiv --docs N --seed S --out PATH
//                       [--exact-dup R] [--near-dup R] [--boilerplate R]
//                       [--np N] [--repeat K]
//       Generates a seeded workload::CorpusGenerator corpus (untimed), then
//       writes it K times with data::ExportDataset and prints the rows, the
//       file size and each export's wall seconds.
//   perfbench_probe trace --recipe PATH [--np N] --out SPANS.json
//       The traced pass: makes the same public calls dj_process makes, in
//       the same order, with one span around each, and writes the spans.
//
// Spans are kept in memory and written once, after the traced wall ends.
// Each records wall, process CPU and peak RSS (VmHWM is reset before the
// call), so a layer's numbers cover exactly its own call.

#include <time.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/resource_monitor.h"
#include "common/string_util.h"
#include "common/swar.h"
#include "common/thread_pool.h"
#include "compress/djlz.h"
#include "core/cache_manager.h"
#include "core/executor.h"
#include "core/fusion.h"
#include "core/plan_verify.h"
#include "core/recipe.h"
#include "data/io.h"
#include "json/value.h"
#include "json/writer.h"
#include "ops/registry.h"
#include "workload/generator.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double ProcessCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

// Resets VmHWM to the current RSS, so the next read is the peak since now.
void ResetPeakRss() {
  if (FILE* f = std::fopen("/proc/self/clear_refs", "w")) {
    std::fputs("5", f);
    std::fclose(f);
  }
}

int Fail(const std::string& what, const dj::Status& status) {
  std::fprintf(stderr, "perfbench_probe: %s: %s\n", what.c_str(),
               status.ToString().c_str());
  return 1;
}

// Flag lookup over "--name value" pairs; absent flags yield `fallback`.
class Flags {
 public:
  Flags(int argc, char** argv) : argc_(argc), argv_(argv) {}
  std::string Get(const char* name, const std::string& fallback = "") const {
    for (int i = 2; i + 1 < argc_; ++i) {
      if (std::strcmp(argv_[i], name) == 0) return argv_[i + 1];
    }
    return fallback;
  }
  double Num(const char* name, double fallback) const {
    std::string v = Get(name);
    return v.empty() ? fallback : std::atof(v.c_str());
  }

 private:
  int argc_;
  char** argv_;
};

// ------------------------------------------------------------------ host --

// Fixed integer mixing loop; the score is millions of iterations per
// second, best of five, so a slower or busier host reads lower.
double CalibrationScore() {
  constexpr uint64_t kIters = 20'000'000;
  double best = 0;
  for (int rep = 0; rep < 5; ++rep) {
    auto start = Clock::now();
    uint64_t x = 0x9E3779B97F4A7C15ull + static_cast<uint64_t>(rep);
    for (uint64_t i = 0; i < kIters; ++i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      x += i;
    }
    double s = SecondsSince(start);
    if (x == 42) std::fprintf(stderr, "-");  // keeps the loop observable
    if (s > 0 && kIters / s / 1e6 > best) best = kIters / s / 1e6;
  }
  return best;
}

int Host() {
  dj::json::Object out;
  out.Set("hardware_concurrency",
          dj::json::Value(static_cast<int64_t>(
              std::thread::hardware_concurrency())));
  out.Set("simd_level", dj::json::Value(dj::swar::ActiveLevelMetric()));
  out.Set("simd_level_name",
          dj::json::Value(dj::swar::LevelName(dj::swar::ActiveLevel())));
  out.Set("build_type", dj::json::Value(PERFBENCH_BUILD_TYPE));
  out.Set("calibration_mops", dj::json::Value(CalibrationScore()));
  std::printf("%s\n", dj::json::Write(dj::json::Value(std::move(out))).c_str());
  return 0;
}

// ------------------------------------------------------------------- gen --

int Gen(const Flags& flags) {
  dj::workload::CorpusOptions options;
  std::string style = flags.Get("--style", "web");
  if (style == "web") {
    options.style = dj::workload::Style::kWeb;
  } else if (style == "arxiv") {
    options.style = dj::workload::Style::kArxiv;
  } else {
    std::fprintf(stderr, "perfbench_probe: unknown --style %s\n",
                 style.c_str());
    return 2;
  }
  options.num_docs = static_cast<size_t>(flags.Num("--docs", 1000));
  options.seed = static_cast<uint64_t>(flags.Num("--seed", 1));
  options.exact_dup_rate = flags.Num("--exact-dup", 0);
  options.near_dup_rate = flags.Num("--near-dup", 0);
  options.boilerplate_rate = flags.Num("--boilerplate", 0);
  const std::string out_path = flags.Get("--out");
  const int np = static_cast<int>(flags.Num("--np", 1));
  const int repeat = static_cast<int>(flags.Num("--repeat", 1));
  if (out_path.empty() || repeat < 1) {
    std::fprintf(stderr, "perfbench_probe gen: need --out and --repeat >= 1\n");
    return 2;
  }

  dj::data::Dataset corpus = dj::workload::CorpusGenerator(options).Generate();
  std::optional<dj::ThreadPool> pool;
  if (np > 1) pool.emplace(static_cast<size_t>(np));
  dj::json::Array export_seconds;
  for (int i = 0; i < repeat; ++i) {
    auto start = Clock::now();
    if (auto s = dj::data::ExportDataset(corpus, out_path,
                                         pool ? &*pool : nullptr);
        !s.ok()) {
      return Fail("export " + out_path, s);
    }
    export_seconds.emplace_back(SecondsSince(start));
  }
  auto bytes = dj::data::ReadFile(out_path);
  if (!bytes.ok()) return Fail("read back " + out_path, bytes.status());

  dj::json::Object out;
  out.Set("rows", dj::json::Value(static_cast<int64_t>(corpus.NumRows())));
  out.Set("bytes", dj::json::Value(static_cast<int64_t>(bytes.value().size())));
  out.Set("export_s", dj::json::Value(std::move(export_seconds)));
  std::printf("%s\n", dj::json::Write(dj::json::Value(std::move(out))).c_str());
  return 0;
}

// ----------------------------------------------------------------- trace --

struct SpanRecord {
  std::string layer;   // module-named layer, e.g. "data.parse"
  std::string detail;  // plan unit name for OP spans, else empty
  double start_s = 0;
  double dur_s = 0;
  double cpu_s = 0;
  uint64_t peak_rss_bytes = 0;
  uint64_t bytes = 0;         // work bytes: text, DJDS blob or raw frame
  uint64_t packed_bytes = 0;  // compressed side of a codec call
  int64_t rows_in = -1;
  int64_t rows_out = -1;
};

class SpanLog {
 public:
  SpanLog() : origin_(Clock::now()) {}

  // Runs `fn` inside a span named `layer`; returns fn's result and leaves
  // the new record at Last() for the caller to add work counts.
  template <typename Fn>
  auto Time(const char* layer, Fn&& fn, std::string detail = "") {
    ResetPeakRss();
    const double cpu0 = ProcessCpuSeconds();
    const double t0 = Now();
    auto result = fn();
    SpanRecord r;
    r.dur_s = Now() - t0;
    r.cpu_s = ProcessCpuSeconds() - cpu0;
    r.peak_rss_bytes = dj::ResourceMonitor::CurrentPeakRssBytes();
    r.start_s = t0;
    r.layer = layer;
    r.detail = std::move(detail);
    spans_.push_back(std::move(r));
    return result;
  }

  SpanRecord& Last() { return spans_.back(); }
  double Now() const { return SecondsSince(origin_); }
  const std::vector<SpanRecord>& spans() const { return spans_; }

 private:
  Clock::time_point origin_;
  std::vector<SpanRecord> spans_;
};

dj::json::Value SpanJson(const SpanRecord& r) {
  dj::json::Object o;
  o.Set("layer", dj::json::Value(r.layer));
  o.Set("detail", dj::json::Value(r.detail));
  o.Set("parent", dj::json::Value("trace"));
  o.Set("start_s", dj::json::Value(r.start_s));
  o.Set("dur_s", dj::json::Value(r.dur_s));
  o.Set("cpu_s", dj::json::Value(r.cpu_s));
  o.Set("peak_rss_bytes", dj::json::Value(static_cast<int64_t>(r.peak_rss_bytes)));
  o.Set("bytes", dj::json::Value(static_cast<int64_t>(r.bytes)));
  o.Set("packed_bytes", dj::json::Value(static_cast<int64_t>(r.packed_bytes)));
  o.Set("rows_in", dj::json::Value(r.rows_in));
  o.Set("rows_out", dj::json::Value(r.rows_out));
  return dj::json::Value(std::move(o));
}

const char* OpLayer(const dj::core::PlanUnit& unit) {
  if (unit.is_fused()) return "ops.filter";
  switch (unit.op->kind()) {
    case dj::ops::OpKind::kMapper:
      return "ops.mapper";
    case dj::ops::OpKind::kFilter:
      return "ops.filter";
    case dj::ops::OpKind::kDeduplicator:
      return "ops.dedup";
    case dj::ops::OpKind::kFormatter:
      break;
  }
  return "ops.other";
}

struct TraceSummary {
  size_t plan_units = 0;
  size_t cache_hits = 0;
  size_t rows_out = 0;
};

// The body of dj_process from recipe load to export, one span per public
// call. Lint, the observability sinks and the report printing are left out
// (they show in trace.gap_s). Returns after every dataset is destroyed, so
// teardown is inside the traced wall as it is in dj_process.
dj::Status TracedPass(const std::string& recipe_path, int np, SpanLog* log,
                      TraceSummary* summary) {
  using dj::EndsWith;
  DJ_ASSIGN_OR_RETURN(dj::core::Recipe recipe,
                      dj::core::Recipe::FromFile(recipe_path));
  if (np > 0) recipe.num_workers = np;
  std::optional<dj::ThreadPool> io_pool;
  if (recipe.num_workers > 1) {
    io_pool.emplace(static_cast<size_t>(recipe.num_workers));
  }
  dj::ThreadPool* pool = io_pool ? &*io_pool : nullptr;

  // Load (ops::LoadDataset dispatch for the two suffixes the workloads use).
  const std::string& in = recipe.dataset_path;
  dj::data::Dataset dataset;
  {
    auto file = log->Time("data.read", [&] { return dj::data::ReadFile(in); });
    DJ_RETURN_IF_ERROR(file.status());
    log->Last().bytes = file.value().size();
    if (EndsWith(in, ".djds.djlz")) {
      auto blob = log->Time("compress.decompress", [&] {
        return dj::compress::DecompressFrame(file.value(), pool);
      });
      DJ_RETURN_IF_ERROR(blob.status());
      log->Last().packed_bytes = file.value().size();
      log->Last().bytes = blob.value().size();
      auto ds = log->Time("data.deserialize", [&] {
        return dj::data::DeserializeDataset(blob.value(), pool);
      });
      DJ_RETURN_IF_ERROR(ds.status());
      log->Last().bytes = blob.value().size();
      log->Last().rows_out = static_cast<int64_t>(ds.value().NumRows());
      dataset = std::move(ds).value();
    } else if (EndsWith(in, ".jsonl")) {
      auto ds = log->Time("data.parse", [&] {
        return dj::data::ParseJsonl(file.value(), pool);
      });
      DJ_RETURN_IF_ERROR(ds.status());
      log->Last().bytes = file.value().size();
      log->Last().rows_out = static_cast<int64_t>(ds.value().NumRows());
      dataset = std::move(ds).value();
    } else {
      return dj::Status::InvalidArgument("unsupported input " + in);
    }
  }

  // Plan: what Executor::Run derives before it touches rows.
  const dj::ops::OpRegistry& registry = dj::ops::OpRegistry::Global();
  dj::core::FusionOptions fusion{recipe.op_fusion, recipe.op_reorder};
  std::vector<std::unique_ptr<dj::ops::Op>> ops;
  std::vector<dj::core::PlanUnit> plan;
  DJ_RETURN_IF_ERROR(log->Time("core.plan", [&]() -> dj::Status {
    DJ_ASSIGN_OR_RETURN(ops, dj::core::BuildOps(recipe, registry));
    plan = dj::core::PlanFusion(ops, fusion);
    if (fusion.enable_fusion || fusion.enable_reorder) {
      if (!dj::core::VerifyPlan(ops, plan, registry).ok) {
        fusion = dj::core::FusionOptions{false, false};
        plan = dj::core::PlanFusion(ops, fusion);
      }
    }
    return dj::Status::Ok();
  }));
  // The plan's work count is its unit count (reported as core.plan.units).
  log->Last().rows_out = static_cast<int64_t>(plan.size());
  summary->plan_units = plan.size();

  // Cache: the deepest cached state, keyed as Executor::Run keys it.
  size_t start_unit = 0;
  if (recipe.use_cache && !recipe.cache_dir.empty()) {
    std::vector<uint64_t> key_before(plan.size() + 1);
    key_before[0] = dj::core::CacheManager::InitialKey(recipe.dataset_path);
    for (size_t i = 0; i < plan.size(); ++i) {
      uint64_t key = key_before[i];
      if (plan[i].is_fused()) {
        for (const dj::ops::Filter* f : plan[i].fused) {
          key = dj::core::CacheManager::ExtendKey(key, f->name(), f->config());
        }
      } else {
        key = dj::core::CacheManager::ExtendKey(key, plan[i].op->name(),
                                                plan[i].op->config());
      }
      key_before[i + 1] = key;
    }
    std::optional<dj::ThreadPool> cache_pool;
    if (recipe.num_workers > 1) {
      cache_pool.emplace(static_cast<size_t>(recipe.num_workers));
    }
    dj::core::CacheManager cache(recipe.cache_dir, recipe.cache_compression);
    cache.SetPool(cache_pool ? &*cache_pool : nullptr);
    for (size_t i = plan.size(); i > 0; --i) {
      if (!cache.Contains(key_before[i])) continue;
      auto loaded = log->Time("core.cache",
                              [&] { return cache.Load(key_before[i]); });
      DJ_RETURN_IF_ERROR(loaded.status());
      log->Last().rows_out = static_cast<int64_t>(loaded.value().NumRows());
      dataset = std::move(loaded).value();
      start_unit = i;
      break;
    }
    summary->cache_hits = start_unit;
  }

  // OPs: Executor::Run over each plan unit's OP subrange.
  dj::core::Executor::Options options;
  options.num_workers = recipe.num_workers;
  options.op_fusion = fusion.enable_fusion;
  options.op_reorder = fusion.enable_reorder;
  for (size_t i = start_unit; i < plan.size(); ++i) {
    std::vector<dj::ops::Op*> subrange;
    if (plan[i].is_fused()) {
      subrange.assign(plan[i].fused.begin(), plan[i].fused.end());
    } else {
      subrange.push_back(plan[i].op);
    }
    const auto rows_in = static_cast<int64_t>(dataset.NumRows());
    dj::core::Executor executor(options);
    auto out = log->Time(
        OpLayer(plan[i]),
        [&] { return executor.Run(std::move(dataset), subrange); },
        plan[i].DisplayName());
    DJ_RETURN_IF_ERROR(out.status());
    log->Last().rows_in = rows_in;
    log->Last().rows_out = static_cast<int64_t>(out.value().NumRows());
    dataset = std::move(out).value();
  }
  summary->rows_out = dataset.NumRows();

  // Export (data::ExportDataset dispatch for the two suffixes used).
  const std::string& out_path = recipe.export_path;
  std::string file;
  if (EndsWith(out_path, ".jsonl")) {
    file = log->Time("data.to_jsonl",
                     [&] { return dj::data::ToJsonl(dataset, pool); });
    log->Last().bytes = file.size();
  } else if (EndsWith(out_path, ".djds.djlz")) {
    std::string blob = log->Time("data.serialize", [&] {
      return dj::data::SerializeDataset(dataset, pool);
    });
    log->Last().bytes = blob.size();
    file = log->Time("compress.compress", [&] {
      return dj::compress::CompressFrame(blob, pool);
    });
    log->Last().bytes = blob.size();
    log->Last().packed_bytes = file.size();
  } else {
    return dj::Status::InvalidArgument("unsupported export " + out_path);
  }
  DJ_RETURN_IF_ERROR(log->Time(
      "data.write", [&] { return dj::data::WriteFile(out_path, file); }));
  log->Last().bytes = file.size();
  return dj::Status::Ok();
}

int Trace(const Flags& flags) {
  const std::string recipe = flags.Get("--recipe");
  const std::string out_path = flags.Get("--out");
  const int np = static_cast<int>(flags.Num("--np", 0));
  if (recipe.empty() || out_path.empty()) {
    std::fprintf(stderr, "perfbench_probe trace: need --recipe and --out\n");
    return 2;
  }
  SpanLog log;
  TraceSummary summary;
  const double cpu0 = ProcessCpuSeconds();
  dj::Status status = TracedPass(recipe, np, &log, &summary);
  const double wall = log.Now();
  const double cpu = ProcessCpuSeconds() - cpu0;
  if (!status.ok()) return Fail("traced pass", status);

  dj::json::Array spans;
  for (const SpanRecord& r : log.spans()) spans.push_back(SpanJson(r));
  dj::json::Object out;
  out.Set("np", dj::json::Value(static_cast<int64_t>(np)));
  out.Set("wall_s", dj::json::Value(wall));
  out.Set("cpu_s", dj::json::Value(cpu));
  out.Set("plan_units", dj::json::Value(static_cast<int64_t>(summary.plan_units)));
  out.Set("cache_hits", dj::json::Value(static_cast<int64_t>(summary.cache_hits)));
  out.Set("rows_out", dj::json::Value(static_cast<int64_t>(summary.rows_out)));
  out.Set("spans", dj::json::Value(std::move(spans)));
  if (auto s = dj::data::WriteFile(
          out_path, dj::json::Write(dj::json::Value(std::move(out))) + "\n");
      !s.ok()) {
    return Fail("write " + out_path, s);
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string cmd = argc > 1 ? argv[1] : "";
  Flags flags(argc, argv);
  if (cmd == "host") return Host();
  if (cmd == "gen") return Gen(flags);
  if (cmd == "trace") return Trace(flags);
  std::fprintf(stderr, "usage: %s host | gen ... | trace ...\n", argv[0]);
  return 2;
}
