#include "core/executor.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <optional>
#include <thread>

#include "common/logging.h"
#include "common/stopwatch.h"
#include "common/thread_introspect.h"
#include "core/plan_verify.h"
#include "fault/fault.h"
#include "json/writer.h"

namespace dj::core {
namespace {

/// Snapshot of the processed text field of every row (used by the Tracer to
/// diff Mapper edits and to report removed duplicates).
std::vector<std::string> SnapshotTexts(data::Dataset* ds,
                                       const std::string& text_key) {
  std::vector<std::string> out;
  out.reserve(ds->NumRows());
  for (size_t i = 0; i < ds->NumRows(); ++i) {
    out.emplace_back(ds->Row(i).GetText(text_key));
  }
  return out;
}

std::string StatsJsonOf(data::RowRef row) {
  const json::Value* stats = row.Get(data::kStatsField);
  return stats == nullptr ? "{}" : json::Write(*stats);
}

}  // namespace

Result<std::vector<std::unique_ptr<ops::Op>>> BuildOps(
    const Recipe& recipe, const ops::OpRegistry& registry) {
  std::vector<std::unique_ptr<ops::Op>> out;
  out.reserve(recipe.process.size());
  for (const OpSpec& spec : recipe.process) {
    DJ_ASSIGN_OR_RETURN(std::unique_ptr<ops::Op> op,
                        registry.Create(spec.name, spec.params));
    if (op->kind() == ops::OpKind::kFormatter) {
      return Status::InvalidArgument(
          "formatter '" + spec.name +
          "' cannot appear in 'process'; formatters load datasets");
    }
    out.push_back(std::move(op));
  }
  return out;
}

std::vector<ops::Op*> OpPointers(
    const std::vector<std::unique_ptr<ops::Op>>& ops) {
  std::vector<ops::Op*> out;
  out.reserve(ops.size());
  for (const auto& op : ops) out.push_back(op.get());
  return out;
}

RunInput RunInput::Decoded(data::Dataset dataset) {
  RunInput input;
  input.dataset = std::move(dataset);
  return input;
}

RunInput RunInput::Encoded(std::string bytes, ops::DatasetDecoder decoder) {
  RunInput input;
  input.bytes = std::move(bytes);
  input.decoder = std::move(decoder);
  return input;
}

std::string RunReport::ToString() const {
  std::string out;
  char buf[240];
  std::snprintf(buf, sizeof(buf),
                "%-44s %-13s %9s %9s %9s %11s %7s %7s %6s\n", "op", "kind",
                "rows_in", "rows_out", "sec", "rows/s", "%time", "%cpu",
                "cache");
  out += buf;
  // %-of-total uses the sum of per-OP seconds, not wall time, so cached
  // (zero-second) prefixes don't make the executed suffix sum to < 100%.
  double seconds_sum = 0;
  for (const OpReport& r : op_reports) seconds_sum += r.seconds;
  for (const OpReport& r : op_reports) {
    char throughput[32];
    if (r.seconds > 0) {
      std::snprintf(throughput, sizeof(throughput), "%.0f",
                    static_cast<double>(r.rows_in) / r.seconds);
    } else {
      std::snprintf(throughput, sizeof(throughput), "-");
    }
    char pct[16];
    if (seconds_sum > 0) {
      std::snprintf(pct, sizeof(pct), "%.1f%%", r.seconds / seconds_sum * 100);
    } else {
      std::snprintf(pct, sizeof(pct), "-");
    }
    char cpu[16];
    if (r.cpu_share >= 0) {
      std::snprintf(cpu, sizeof(cpu), "%.1f%%", r.cpu_share * 100);
    } else {
      std::snprintf(cpu, sizeof(cpu), "-");
    }
    std::snprintf(buf, sizeof(buf),
                  "%-44s %-13s %9zu %9zu %9.3f %11s %7s %7s %6s\n",
                  r.name.c_str(), r.kind.c_str(), r.rows_in, r.rows_out,
                  r.seconds, throughput, pct, cpu,
                  r.cache_hit ? "hit" : "-");
    out += buf;
  }
  std::snprintf(buf, sizeof(buf),
                "total: %.3fs, rows %zu -> %zu, cache hits %zu%s\n",
                total_seconds, rows_in, rows_out, cache_hits,
                resumed_from_checkpoint ? ", resumed from checkpoint" : "");
  out += buf;
  if (!input_decoded) {
    std::snprintf(buf, sizeof(buf),
                  "input not decoded: restored the state after %zu of %zu "
                  "units from the %s\n",
                  restored_units, plan_units,
                  resumed_from_checkpoint ? "checkpoint" : "cache");
    out += buf;
  }
  if (unit_seconds_p50 >= 0) {
    std::snprintf(buf, sizeof(buf),
                  "unit seconds: p50 %.3f, p95 %.3f, p99 %.3f\n",
                  unit_seconds_p50, unit_seconds_p95, unit_seconds_p99);
    out += buf;
  }
  if (plan_rejected) {
    out += "plan: refused by effect verification, ran in recipe order\n";
  } else if (plan_swaps > 0) {
    std::snprintf(buf, sizeof(buf), "plan: %zu effect-licensed swap(s)\n",
                  plan_swaps);
    out += buf;
  }
  return out;
}

Executor::Executor(Options options) : options_(std::move(options)) {}

Executor::Options Executor::OptionsFromRecipe(const Recipe& recipe) {
  Options opts;
  opts.num_workers = recipe.num_workers;
  opts.op_fusion = recipe.op_fusion;
  opts.op_reorder = recipe.op_reorder;
  opts.use_cache = recipe.use_cache;
  opts.cache_dir = recipe.cache_dir;
  opts.cache_compression = recipe.cache_compression;
  opts.use_checkpoint = recipe.use_checkpoint;
  opts.checkpoint_dir = recipe.checkpoint_dir;
  opts.dataset_source_id =
      recipe.dataset_path.empty() ? "in-memory" : recipe.dataset_path;
  return opts;
}

Status Executor::RunMapper(ops::Mapper* mapper, data::Dataset* dataset,
                           ThreadPool* pool) {
  std::optional<std::vector<std::string>> before;
  if (options_.tracer != nullptr) {
    before = SnapshotTexts(dataset, mapper->text_key());
  }
  {
    obs::Span span(options_.spans, "batch:" + mapper->name(), "batch");
    DJ_RETURN_IF_ERROR(dataset->Map(
        [mapper](data::RowRef row) {
          return mapper->ProcessRow(row, nullptr);
        },
        pool));
  }
  if (before.has_value()) {
    for (size_t i = 0; i < dataset->NumRows(); ++i) {
      std::string_view after = dataset->Row(i).GetText(mapper->text_key());
      if (after != (*before)[i]) {
        options_.tracer->RecordEdit(mapper->name(), i, (*before)[i], after);
      }
    }
  }
  return Status::Ok();
}

Status Executor::RunFilters(const std::vector<ops::Filter*>& filters,
                            data::Dataset* dataset, ThreadPool* pool) {
  dataset->EnsureColumn(data::kStatsField);
  Tracer* tracer = options_.tracer;
  auto pred = [&filters, tracer](data::RowRef row) -> Result<bool> {
    // One shared context per sample for the whole fused group: this is the
    // context-management optimization — Words()/Lines() compute once.
    std::string_view text = row.GetText(filters.front()->text_key());
    ops::SampleContext ctx(text);
    for (const ops::Filter* f : filters) {
      DJ_RETURN_IF_ERROR(f->ComputeStats(row, &ctx));
    }
    for (const ops::Filter* f : filters) {
      DJ_ASSIGN_OR_RETURN(bool keep, f->KeepRow(row));
      if (!keep) {
        if (tracer != nullptr) {
          tracer->RecordFiltered(f->name(), row.row(), text,
                                 StatsJsonOf(row));
        }
        return false;
      }
    }
    return true;
  };
  obs::Span span(options_.spans, "batch:" + filters.front()->name(), "batch");
  // Consuming Filter: survivors are moved out of the old dataset instead of
  // deep-copied (the executor owns it and discards the pre-filter state).
  DJ_ASSIGN_OR_RETURN(data::Dataset filtered,
                      std::move(*dataset).Filter(pred, pool));
  *dataset = std::move(filtered);
  return Status::Ok();
}

Status Executor::RunDeduplicator(ops::Deduplicator* dedup,
                                 data::Dataset* dataset, ThreadPool* pool) {
  dataset->EnsureColumn(data::kStatsField);
  std::optional<std::vector<std::string>> texts;
  std::vector<ops::DuplicatePair> pairs;
  if (options_.tracer != nullptr) {
    texts = SnapshotTexts(dataset, dedup->text_key());
  }
  obs::Span span(options_.spans, "batch:" + dedup->name(), "batch");
  DJ_ASSIGN_OR_RETURN(
      data::Dataset result,
      dedup->Deduplicate(std::move(*dataset), pool,
                         options_.tracer != nullptr ? &pairs : nullptr));
  *dataset = std::move(result);
  if (texts.has_value()) {
    for (const ops::DuplicatePair& p : pairs) {
      options_.tracer->RecordDuplicate(dedup->name(), (*texts)[p.kept_row],
                                       (*texts)[p.removed_row], p.similarity);
    }
  }
  return Status::Ok();
}

Status Executor::RunUnit(const PlanUnit& unit, data::Dataset* dataset,
                         ThreadPool* pool) {
  if (unit.is_fused()) {
    return RunFilters(unit.fused, dataset, pool);
  }
  switch (unit.op->kind()) {
    case ops::OpKind::kMapper:
      return RunMapper(static_cast<ops::Mapper*>(unit.op), dataset, pool);
    case ops::OpKind::kFilter:
      return RunFilters({static_cast<ops::Filter*>(unit.op)}, dataset, pool);
    case ops::OpKind::kDeduplicator:
      return RunDeduplicator(static_cast<ops::Deduplicator*>(unit.op),
                             dataset, pool);
    case ops::OpKind::kFormatter:
      return Status::InvalidArgument("formatter in pipeline");
  }
  return Status::Internal("unreachable");
}

Result<data::Dataset> Executor::Run(
    data::Dataset dataset, const std::vector<std::unique_ptr<ops::Op>>& ops,
    RunReport* report) {
  return Run(RunInput::Decoded(std::move(dataset)), OpPointers(ops), report);
}

Result<data::Dataset> Executor::Run(data::Dataset dataset,
                                    const std::vector<ops::Op*>& ops,
                                    RunReport* report) {
  return Run(RunInput::Decoded(std::move(dataset)), ops, report);
}

Result<data::Dataset> Executor::Run(RunInput input,
                                    const std::vector<ops::Op*>& ops,
                                    RunReport* report) {
  obs::Span run_span(options_.spans, "executor.run", "executor");
  // The run's driving thread is "busy" for the watchdog the whole run and
  // beats at every unit boundary below; a unit that hangs mid-OP leaves
  // the heartbeat stale and gets dumped.
  introspect::BusyScope busy_scope;
  if (introspect::Enabled()) {
    introspect::CurrentThreadState()->SetRole("executor");
  }
  Stopwatch total_watch;
  if (!options_.faults.empty()) {
    DJ_RETURN_IF_ERROR(fault::FaultRegistry::Global().Configure(
        options_.faults));
  }
  RunReport local_report;
  RunReport* rep = report != nullptr ? report : &local_report;
  rep->op_reports.clear();
  const bool encoded = !input.dataset.has_value();
  data::Dataset dataset;
  if (!encoded) {
    dataset = std::move(*input.dataset);
    rep->rows_in = dataset.NumRows();
  }

  FusionOptions fusion_options{options_.op_fusion, options_.op_reorder};
  std::vector<PlanUnit> plan = PlanFusion(ops, fusion_options);

  // Static plan verification: every fusion/reorder decision must be
  // licensed by the declared OP effect signatures (no more blanket "all
  // Filters commute"). An unlicensed plan is refused and the run falls
  // back to recipe order.
  if (options_.op_fusion || options_.op_reorder) {
    const ops::OpRegistry& registry = options_.registry != nullptr
                                          ? *options_.registry
                                          : ops::OpRegistry::Global();
    PlanVerdict verdict = VerifyPlan(ops, plan, registry);
    if (!verdict.ok) {
      rep->plan_rejected = true;
      DJ_LOG(Warning)
          << "plan verification refused the optimized plan; falling back "
             "to recipe order:\n"
          << verdict.ToString();
      if (options_.metrics != nullptr) {
        options_.metrics->GetCounter("executor.plan_rejected")->Increment();
      }
      if (options_.spans != nullptr) {
        options_.spans->EmitInstant("plan.rejected", "executor",
                                    options_.spans->NowMicros());
      }
      plan = PlanFusion(ops, FusionOptions{false, false});
    } else {
      rep->plan_swaps = verdict.swaps.size();
      if (options_.metrics != nullptr && !verdict.swaps.empty()) {
        options_.metrics->GetCounter("executor.plan_swaps_verified")
            ->Add(verdict.swaps.size());
      }
    }
  }

  // The worker pool is created up front so the cache/checkpoint codecs can
  // shard their (de)serialization across it too, not just the OP loop.
  std::optional<ThreadPool> pool;
  if (options_.num_workers > 1) {
    pool.emplace(static_cast<size_t>(options_.num_workers));
  }
  ThreadPool* pool_ptr = pool ? &*pool : nullptr;

  // Two state stores: the cache keeps every unit's output, the checkpoint
  // store only the newest. A checkpoint directory that is the cache
  // directory is one store: the cache stores, and the scan reads it in the
  // checkpoint role.
  std::optional<CacheManager> cache;
  if (options_.use_cache && !options_.cache_dir.empty()) {
    cache.emplace(options_.cache_dir, options_.cache_compression);
    cache->SetMetrics(options_.metrics);
    cache->SetPool(pool_ptr);
  }
  std::optional<CacheManager> checkpoints;
  const CacheManager* cache_store = cache ? &*cache : nullptr;
  const CacheManager* checkpoint_store = nullptr;
  if (options_.use_checkpoint && !options_.checkpoint_dir.empty()) {
    if (cache_store != nullptr &&
        CacheManager::SameDir(options_.cache_dir, options_.checkpoint_dir)) {
      checkpoint_store = cache_store;
      cache_store = nullptr;
    } else {
      checkpoints.emplace(options_.checkpoint_dir, /*compression=*/false);
      checkpoints->SetPool(pool_ptr);
      checkpoint_store = &*checkpoints;
    }
  }

  // Cumulative config-hash keys: key_before[i] identifies the pipeline state
  // entering unit i; key_after[i] the state after it. Raw input bytes are
  // keyed by their content, digested only when a store can use the key.
  rep->plan_units = plan.size();
  std::vector<uint64_t> key_before(plan.size() + 1);
  key_before[0] = CacheManager::InitialKey(options_.dataset_source_id);
  if (encoded && (cache.has_value() || checkpoint_store != nullptr)) {
    obs::Span digest_span(options_.spans, "input.digest", "executor");
    key_before[0] = CacheManager::InitialKey(
        options_.dataset_source_id, input.decoder.name,
        CacheManager::ContentDigest(input.bytes, pool_ptr));
  }
  for (size_t i = 0; i < plan.size(); ++i) {
    uint64_t key = key_before[i];
    if (plan[i].is_fused()) {
      for (const ops::Filter* f : plan[i].fused) {
        key = CacheManager::ExtendKey(key, f->name(), f->config());
      }
    } else {
      key = CacheManager::ExtendKey(key, plan[i].op->name(),
                                    plan[i].op->config());
    }
    key_before[i + 1] = key;
  }

  // Resume scan: from the last unit down, the deepest key_before[i] in the
  // checkpoint store, then in the cache. An unreadable entry is evicted and
  // the scan goes on to the next-shallower one. The counter names reach
  // GetCounter through a ternary:
  // srclint-declare(counter): checkpoint.load_rejected
  // srclint-declare(counter): cache.load_rejected
  auto restore = [&](const CacheManager* store, bool is_checkpoint,
                     size_t depth) {
    if (store == nullptr || !store->Contains(key_before[depth])) return false;
    auto loaded = store->Load(key_before[depth]);
    if (!loaded.ok()) {
      DJ_LOG(Warning) << (is_checkpoint ? "checkpoint" : "cache")
                      << " entry unreadable, evicting: "
                      << loaded.status().ToString();
      store->Evict(key_before[depth]);
      if (options_.metrics != nullptr) {
        options_.metrics
            ->GetCounter(is_checkpoint ? "checkpoint.load_rejected"
                                       : "cache.load_rejected")
            ->Increment();
      }
      return false;
    }
    dataset = std::move(loaded).value();
    if (is_checkpoint) {
      rep->resumed_from_checkpoint = true;
      return true;
    }
    // Record skipped units as cache hits.
    for (size_t j = 0; j < depth; ++j) {
      OpReport r;
      r.name = plan[j].DisplayName();
      r.kind = plan[j].is_fused() ? "fused_filter"
                                  : ops::OpKindName(plan[j].op->kind());
      r.rows_in = r.rows_out = dataset.NumRows();
      r.cache_hit = true;
      if (options_.spans != nullptr) {
        options_.spans->EmitInstant("cache.hit:" + r.name, "cache",
                                    options_.spans->NowMicros());
      }
      rep->op_reports.push_back(std::move(r));
      ++rep->cache_hits;
    }
    return true;
  };
  size_t start_unit = 0;
  if (cache_store != nullptr || checkpoint_store != nullptr) {
    obs::Span scan_span(options_.spans, "cache.scan", "cache");
    for (size_t i = plan.size(); i > 0 && start_unit == 0; --i) {
      if (restore(checkpoint_store, /*is_checkpoint=*/true, i) ||
          restore(cache_store, /*is_checkpoint=*/false, i)) {
        start_unit = i;
      }
    }
  }
  rep->restored_units = start_unit;
  rep->input_decoded = !encoded || start_unit == 0;
  if (encoded) {
    if (start_unit == 0) {
      obs::Span decode_span(options_.spans, "input.decode", "executor");
      DJ_ASSIGN_OR_RETURN(dataset, input.decoder.decode(input.bytes, pool_ptr));
    }
    std::string().swap(input.bytes);
    rep->rows_in = dataset.NumRows();
  }

  for (size_t i = start_unit; i < plan.size(); ++i) {
    Stopwatch unit_watch;
    OpReport r;
    r.name = plan[i].DisplayName();
    r.kind = plan[i].is_fused() ? "fused_filter"
                                : ops::OpKindName(plan[i].op->kind());
    r.rows_in = dataset.NumRows();

    // Fail-point probe at every OP boundary: an armed "exec.op_abort"
    // kills the pipeline here, after the state before this unit has been
    // checkpointed — the crash window --resume must cover.
    if (DJ_FAULT("exec.op_abort")) {
      return Status::Aborted("fault injected: exec.op_abort before unit '" +
                             r.name + "'");
    }
    // Stall fault: sleep while busy without beating the heartbeat, as a
    // hung OP would. The run then continues — the point is to exercise the
    // watchdog's detection + dump path, not to kill anything.
    if (DJ_FAULT("exec.stall")) {
      std::this_thread::sleep_for(
          std::chrono::duration<double>(options_.fault_stall_seconds));
    }
    introspect::Heartbeat();

    {
      obs::Span unit_span(options_.spans, "unit:" + r.name, "op");
      Status status = RunUnit(plan[i], &dataset, pool_ptr);
      if (!status.ok()) {
        return Status(status.code(),
                      "OP '" + r.name + "' failed: " + status.message());
      }
    }
    r.rows_out = dataset.NumRows();
    r.seconds = unit_watch.ElapsedSeconds();
    if (options_.metrics != nullptr) {
      options_.metrics->GetCounter("op." + r.name + ".rows_in")
          ->Add(r.rows_in);
      options_.metrics->GetCounter("op." + r.name + ".rows_out")
          ->Add(r.rows_out);
      options_.metrics->GetGauge("op." + r.name + ".rows_per_sec")
          ->Set(r.seconds > 0 ? static_cast<double>(r.rows_in) / r.seconds
                              : 0.0);
      options_.metrics->GetHistogram("executor.unit_seconds")
          ->Observe(r.seconds);
    }
    rep->op_reports.push_back(std::move(r));

    if (cache.has_value()) {
      obs::Span store_span(options_.spans, "cache.store", "cache");
      Status s = cache->Store(key_before[i + 1], dataset);
      if (!s.ok()) DJ_LOG(Warning) << "cache store failed: " << s.ToString();
    }
    int every = std::max(options_.checkpoint_every_n_units, 1);
    bool checkpoint_due =
        (i + 1) % static_cast<size_t>(every) == 0 || i + 1 == plan.size();
    if (checkpoints.has_value() && checkpoint_due) {
      obs::Span ckpt_span(options_.spans, "checkpoint.save", "checkpoint");
      Status s = checkpoints->StoreLatest(key_before[i + 1], dataset);
      if (!s.ok()) DJ_LOG(Warning) << "checkpoint failed: " << s.ToString();
      if (options_.metrics != nullptr) {
        options_.metrics->GetCounter("checkpoint.saves")->Increment();
      }
    }
  }

  if (options_.metrics != nullptr) {
    options_.metrics->GetCounter("executor.runs")->Increment();
    options_.metrics->GetCounter("executor.rows_in")->Add(rep->rows_in);
    options_.metrics->GetCounter("executor.rows_out")->Add(dataset.NumRows());
    if (const obs::Histogram* h =
            options_.metrics->FindHistogram("executor.unit_seconds");
        h != nullptr) {
      rep->unit_seconds_p50 = h->Quantile(0.50);
      rep->unit_seconds_p95 = h->Quantile(0.95);
      rep->unit_seconds_p99 = h->Quantile(0.99);
    }
  }
  introspect::Heartbeat();

  rep->rows_out = dataset.NumRows();
  rep->total_seconds = total_watch.ElapsedSeconds();
  return dataset;
}

}  // namespace dj::core
