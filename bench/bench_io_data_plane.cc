// Parallel data plane benchmark: serial vs pooled throughput of the JSONL
// parse/serialize paths, the sharded DJDS v3 codec, and the block-parallel
// djlz frame. Backs the Sec. 7 scalability claim at the I/O layer: the
// data plane, not just OP compute, scales with workers. The key invariant
// (asserted here on every run) is that pooled output is byte-identical to
// serial output.

#include <algorithm>
#include <functional>
#include <optional>
#include <string>
#include <thread>

#include "bench_util.h"
#include "common/stopwatch.h"
#include "common/thread_pool.h"
#include "compress/djlz.h"
#include "data/io.h"
#include "workload/generator.h"

namespace {

using dj::bench::Fmt;

constexpr int kRepeats = 3;
const size_t kThreadCounts[] = {2, 4, 8};

/// Best-of-N wall milliseconds for `fn`.
double BestMillis(const std::function<void()>& fn) {
  double best = 1e18;
  for (int i = 0; i < kRepeats; ++i) {
    dj::Stopwatch watch;
    fn();
    best = std::min(best, watch.ElapsedMillis());
  }
  return best;
}

struct OpBench {
  std::string name;
  uint64_t bytes;  ///< bytes processed per run (for MiB/s)
  /// Runs the operation with the given pool (nullptr = serial).
  std::function<void(dj::ThreadPool*)> run;
};

}  // namespace

int main() {
  dj::bench::Banner(
      "Parallel data plane: parse / serialize / compress throughput",
      "Sec. 7 'Optimized ... Usability and System Efficiency' — the data "
      "plane scales with num_workers, byte-identically to serial");

  dj::workload::CorpusOptions corpus_options;
  corpus_options.style = dj::workload::Style::kWeb;
  corpus_options.num_docs = 12000;
  corpus_options.mean_words = 120;
  corpus_options.seed = 77;
  dj::data::Dataset dataset =
      dj::workload::CorpusGenerator(corpus_options).Generate();

  const std::string jsonl = dj::data::ToJsonl(dataset);
  const std::string blob = dj::data::SerializeDataset(dataset);
  const std::string frame = dj::compress::CompressFrame(blob);
  std::printf("corpus: %zu rows, %.1f MiB jsonl, %.1f MiB djds, "
              "%.1f MiB djlz\n",
              dataset.NumRows(), jsonl.size() / 1048576.0,
              blob.size() / 1048576.0, frame.size() / 1048576.0);

  // Every operation validates its pooled result against the serial bytes —
  // a benchmark that silently benchmarked wrong output would be worthless.
  bool determinism_ok = true;
  auto check = [&determinism_ok](bool ok, const char* what) {
    if (!ok) {
      std::fprintf(stderr, "DETERMINISM VIOLATION: %s\n", what);
      determinism_ok = false;
    }
  };

  const OpBench ops[] = {
      {"parse_jsonl", jsonl.size(),
       [&](dj::ThreadPool* pool) {
         auto ds = dj::data::ParseJsonl(jsonl, pool);
         check(ds.ok() && dj::data::SerializeDataset(ds.value()) == blob,
               "parse_jsonl");
       }},
      {"to_jsonl", jsonl.size(),
       [&](dj::ThreadPool* pool) {
         check(dj::data::ToJsonl(dataset, pool) == jsonl, "to_jsonl");
       }},
      {"serialize_djds", blob.size(),
       [&](dj::ThreadPool* pool) {
         check(dj::data::SerializeDataset(dataset, pool) == blob,
               "serialize_djds");
       }},
      {"deserialize_djds", blob.size(),
       [&](dj::ThreadPool* pool) {
         auto ds = dj::data::DeserializeDataset(blob, pool);
         check(ds.ok() && dj::data::SerializeDataset(ds.value()) == blob,
               "deserialize_djds");
       }},
      {"compress_djlz", blob.size(),
       [&](dj::ThreadPool* pool) {
         check(dj::compress::CompressFrame(blob, pool) == frame,
               "compress_djlz");
       }},
      {"decompress_djlz", frame.size(),
       [&](dj::ThreadPool* pool) {
         auto raw = dj::compress::DecompressFrame(frame, pool);
         check(raw.ok() && raw.value() == blob, "decompress_djlz");
       }},
  };

  dj::bench::Table table({"op", "serial_ms", "2t_ms", "4t_ms", "8t_ms",
                          "speedup_4t", "MiB/s_4t"});

  double parse_serialize_serial_ms = 0;
  double parse_serialize_4t_ms = 0;

  for (const OpBench& op : ops) {
    double serial_ms = BestMillis([&] { op.run(nullptr); });

    double ms_at[3] = {0, 0, 0};
    for (size_t t = 0; t < 3; ++t) {
      dj::ThreadPool pool(kThreadCounts[t]);
      ms_at[t] = BestMillis([&] { op.run(&pool); });
    }
    double speedup4 = ms_at[1] > 0 ? serial_ms / ms_at[1] : 0;
    double mibs4 =
        ms_at[1] > 0 ? (op.bytes / 1048576.0) / (ms_at[1] / 1000.0) : 0;
    table.Row({op.name, Fmt(serial_ms), Fmt(ms_at[0]), Fmt(ms_at[1]),
               Fmt(ms_at[2]), Fmt(speedup4) + "x", Fmt(mibs4, 1)});

    if (op.name == "parse_jsonl" || op.name == "serialize_djds") {
      parse_serialize_serial_ms += serial_ms;
      parse_serialize_4t_ms += ms_at[1];
    }
  }
  table.Print();

  // Acceptance metric: combined parse + serialize speedup at 4 threads.
  double combined = parse_serialize_4t_ms > 0
                        ? parse_serialize_serial_ms / parse_serialize_4t_ms
                        : 0;
  const unsigned hw = std::thread::hardware_concurrency();
  std::printf("\ncombined parse+serialize speedup at 4 threads: %.2fx "
              "(target >= 2x on >= 4 hardware threads; this host has %u)\n",
              combined, hw);
  if (hw < 4) {
    std::printf("note: fewer than 4 hardware threads — pooled runs time-slice "
                "one core, so wall-clock speedup is bounded near 1x; the "
                "byte-determinism checks above are the meaningful signal "
                "here.\n");
  }

  if (!determinism_ok) return 1;
  return 0;
}
