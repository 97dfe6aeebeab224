// First touch of fresh memory, with and without the huge-page hint that
// common/large_buffer.h gives multi-MiB data-plane buffers. Each trial maps
// 64 MiB of anonymous memory, optionally madvise(MADV_HUGEPAGE)s it, and
// writes it once, split across 1 or 4 threads; it reports the median time
// and the minor faults the write took. On a VM a fault on a fresh 4 KiB
// page costs microseconds and does not scale with threads; a 2 MiB huge
// page takes one fault for 512 of them. With THP set to `never` the hint
// does nothing and both rows read alike.
//
//   ./build/bench/bench_first_touch

#include <sys/mman.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"

namespace {

constexpr size_t kBytes = size_t{64} << 20;
constexpr int kTrials = 7;

long MinorFaults() {
  struct rusage ru;
  getrusage(RUSAGE_SELF, &ru);
  return ru.ru_minflt;
}

struct Trial {
  double ms = 0;
  long faults = 0;
};

Trial TouchOnce(size_t threads, bool huge) {
  void* p = mmap(nullptr, kBytes, PROT_READ | PROT_WRITE,
                 MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (p == MAP_FAILED) return {};
  auto* base = static_cast<char*>(p);
  if (huge) {
    constexpr uintptr_t kHuge = uintptr_t{2} << 20;
    const auto b = reinterpret_cast<uintptr_t>(base);
    const uintptr_t first = (b + kHuge - 1) & ~(kHuge - 1);
    const uintptr_t last = (b + kBytes) & ~(kHuge - 1);
    madvise(reinterpret_cast<void*>(first), last - first, MADV_HUGEPAGE);
  }
  const long faults_before = MinorFaults();
  const auto start = std::chrono::steady_clock::now();
  std::vector<std::thread> pool;
  const size_t slice = kBytes / threads;
  for (size_t t = 0; t < threads; ++t) {
    pool.emplace_back([=] { std::memset(base + t * slice, 1, slice); });
  }
  for (std::thread& th : pool) th.join();
  Trial trial;
  trial.ms = std::chrono::duration<double, std::milli>(
                 std::chrono::steady_clock::now() - start)
                 .count();
  trial.faults = MinorFaults() - faults_before;
  munmap(p, kBytes);
  return trial;
}

}  // namespace

int main() {
  dj::bench::Banner(
      "First touch of 64 MiB fresh memory: 4 KiB pages vs MADV_HUGEPAGE",
      "Sec. 7 — a cached rerun should cost little; fresh pages set its floor");
  dj::bench::Table table({"threads", "pages", "median_ms", "minor_faults"});
  for (size_t threads : {size_t{1}, size_t{4}}) {
    for (bool huge : {false, true}) {
      std::vector<Trial> trials;
      for (int i = 0; i < kTrials; ++i) {
        trials.push_back(TouchOnce(threads, huge));
      }
      std::sort(trials.begin(), trials.end(),
                [](const Trial& a, const Trial& b) { return a.ms < b.ms; });
      const Trial& mid = trials[kTrials / 2];
      char ms[32];
      std::snprintf(ms, sizeof(ms), "%.1f", mid.ms);
      table.Row({std::to_string(threads), huge ? "MADV_HUGEPAGE" : "4 KiB",
                 ms, std::to_string(mid.faults)});
    }
  }
  table.Print();
  return 0;
}
