// Tests for the always-on profiling stack: the thread-introspection
// substrate (span-tag stacks, heartbeats, held-lock mirror), the sampling
// profiler's per-OP CPU attribution, the stall watchdog, histogram
// quantiles and the /proc resource seams.
//
// Timing notes: the watchdog tests use generous thresholds (hundreds of
// milliseconds of deliberate stall against a sub-100ms detection window) so
// they stay deterministic on loaded machines. This suite is intentionally
// NOT part of the check.sh TSan re-run list — the seqlock readers are
// TSan-clean by design, but the tests' sleeps make them poor TSan money.

#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/mutex.h"
#include "common/resource_monitor.h"
#include "common/thread_introspect.h"
#include "common/thread_pool.h"
#include "core/executor.h"
#include "data/dataset.h"
#include "fault/fault.h"
#include "json/value.h"
#include "obs/metrics.h"
#include "obs/profiler.h"
#include "obs/watchdog.h"
#include "ops/registry.h"

namespace dj {
namespace {

using obs::Profiler;
using obs::Watchdog;

void SleepSeconds(double s) {
  std::this_thread::sleep_for(std::chrono::duration<double>(s));
}

/// Spins until `pred` is true or `deadline_seconds` elapse; returns whether
/// the predicate became true.
template <typename Pred>
bool WaitFor(Pred pred, double deadline_seconds) {
  auto start = std::chrono::steady_clock::now();
  while (!pred()) {
    if (std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start)
            .count() > deadline_seconds) {
      return false;
    }
    SleepSeconds(0.005);
  }
  return true;
}

// ------------------------------------------------- thread introspection --

TEST(ThreadIntrospectTest, TagPushPopLifo) {
  introspect::ScopedIntrospection on;
  introspect::ThreadState* state = introspect::CurrentThreadState();
  std::vector<std::string> stack;
  {
    introspect::SpanTag a("alpha");
    {
      introspect::SpanTag b("beta");
      ASSERT_TRUE(state->ReadStack(&stack));
      ASSERT_EQ(stack.size(), 2u);
      EXPECT_EQ(stack[0], "alpha");
      EXPECT_EQ(stack[1], "beta");
    }
    ASSERT_TRUE(state->ReadStack(&stack));
    ASSERT_EQ(stack.size(), 1u);
    EXPECT_EQ(stack[0], "alpha");
  }
  ASSERT_TRUE(state->ReadStack(&stack));
  EXPECT_TRUE(stack.empty());
}

TEST(ThreadIntrospectTest, OverflowFramesCountedNotStored) {
  introspect::ScopedIntrospection on;
  introspect::ThreadState* state = introspect::CurrentThreadState();
  std::vector<std::unique_ptr<introspect::SpanTag>> tags;
  for (size_t i = 0; i < introspect::ThreadState::kMaxFrames + 4; ++i) {
    tags.push_back(
        std::make_unique<introspect::SpanTag>("frame" + std::to_string(i)));
  }
  std::vector<std::string> stack;
  ASSERT_TRUE(state->ReadStack(&stack));
  ASSERT_EQ(stack.size(),
            static_cast<size_t>(introspect::ThreadState::kMaxFrames) + 1);
  EXPECT_EQ(stack.back(), "(truncated)");
  tags.clear();  // pops must rebalance despite the overflow
  ASSERT_TRUE(state->ReadStack(&stack));
  EXPECT_TRUE(stack.empty());
}

TEST(ThreadIntrospectTest, LongTagNamesTruncateToFrameChars) {
  introspect::ScopedIntrospection on;
  std::string long_name(2 * introspect::ThreadState::kFrameChars, 'x');
  introspect::SpanTag tag(long_name);
  std::vector<std::string> stack;
  ASSERT_TRUE(introspect::CurrentThreadState()->ReadStack(&stack));
  ASSERT_EQ(stack.size(), 1u);
  EXPECT_EQ(stack[0],
            std::string(introspect::ThreadState::kFrameChars - 1, 'x'));
}

TEST(ThreadIntrospectTest, TagsAreNoopsWhenDisabled) {
  // No ScopedIntrospection: probes must leave no trace.
  introspect::ThreadState* state = introspect::CurrentThreadState();
  introspect::SpanTag tag("invisible");
  std::vector<std::string> stack;
  ASSERT_TRUE(state->ReadStack(&stack));
  EXPECT_TRUE(stack.empty());
}

TEST(ThreadIntrospectTest, CrossThreadReadSeesOtherThreadsStack) {
  introspect::ScopedIntrospection on;
  std::atomic<introspect::ThreadState*> victim_state{nullptr};
  std::atomic<bool> release{false};
  std::thread victim([&] {
    introspect::SpanTag tag("victim.work");
    victim_state.store(introspect::CurrentThreadState());
    while (!release.load()) SleepSeconds(0.001);
  });
  ASSERT_TRUE(WaitFor([&] { return victim_state.load() != nullptr; }, 5.0));
  std::vector<std::string> stack;
  ASSERT_TRUE(victim_state.load()->ReadStack(&stack));
  ASSERT_EQ(stack.size(), 1u);
  EXPECT_EQ(stack[0], "victim.work");
  release.store(true);
  victim.join();
  EXPECT_FALSE(victim_state.load()->alive());
}

TEST(ThreadIntrospectTest, HeldLockMirrorTracksDjMutex) {
  introspect::ScopedIntrospection on;
  introspect::ThreadState* state = introspect::CurrentThreadState();
  Mutex mu{"IntrospectTest.mutex"};
  std::vector<const char*> held;
  {
    MutexLock lock(&mu);
    ASSERT_TRUE(state->ReadHeldLocks(&held));
    ASSERT_EQ(held.size(), 1u);
    EXPECT_STREQ(held[0], "IntrospectTest.mutex");
  }
  ASSERT_TRUE(state->ReadHeldLocks(&held));
  EXPECT_TRUE(held.empty());
}

TEST(ThreadIntrospectTest, ThreadPoolWorkersTagAndRebalance) {
  introspect::ScopedIntrospection on;
  ThreadPool pool(4);
  std::atomic<int> tagged{0};
  for (int i = 0; i < 64; ++i) {
    pool.Submit([&] {
      std::vector<std::string> stack;
      if (introspect::CurrentThreadState()->ReadStack(&stack) &&
          !stack.empty() && stack[0] == "threadpool.task") {
        tagged.fetch_add(1);
      }
    });
  }
  pool.Wait();
  EXPECT_EQ(tagged.load(), 64);
  // After the drain every worker must be idle with an empty tag stack.
  std::atomic<int> clean{0};
  for (int i = 0; i < 4; ++i) {
    pool.Submit([&] {
      if (introspect::CurrentThreadState()->tag_depth() == 1) {
        clean.fetch_add(1);  // exactly the task's own tag, nothing leaked
      }
    });
  }
  pool.Wait();
  EXPECT_EQ(clean.load(), 4);
}

// ------------------------------------------------------------- profiler --

TEST(ProfilerTest, AttributesBusyThreadsToInnermostUnitFrame) {
  std::atomic<bool> release{false};
  Profiler::Options options;
  options.interval_seconds = 0.005;
  options.emit_trace_ticks = false;
  Profiler profiler(options);
  profiler.Start();  // profiler enables introspection for its lifetime
  std::thread worker_a([&] {
    introspect::BusyScope busy;
    introspect::SpanTag tag("unit:op_a");
    while (!release.load()) SleepSeconds(0.001);
  });
  std::thread worker_b([&] {
    introspect::BusyScope busy;
    introspect::SpanTag outer("unit:op_b");
    introspect::SpanTag inner("batch:op_b");  // innermost unit: frame wins
    while (!release.load()) SleepSeconds(0.001);
  });
  ASSERT_TRUE(
      WaitFor([&] { return profiler.Snapshot().samples >= 20; }, 10.0));
  release.store(true);
  worker_a.join();
  worker_b.join();
  profiler.Stop();

  Profiler::Report report = profiler.Snapshot();
  EXPECT_GE(report.ticks, report.samples / 2);
  auto shares = report.OpCpuShares();
  double total = 0;
  for (const auto& [op, share] : shares) total += share;
  EXPECT_NEAR(total, 1.0, 1e-9);  // shares always sum to 1
  ASSERT_TRUE(shares.count("op_a"));
  ASSERT_TRUE(shares.count("op_b"));
  // Both spin loops run the whole window; each should get a real share.
  EXPECT_GT(shares["op_a"], 0.15);
  EXPECT_GT(shares["op_b"], 0.15);
}

TEST(ProfilerTest, CollapsedTextIsFlamegraphFormat) {
  Profiler::Report report;
  report.samples = 3;
  report.collapsed["executor.run;unit:clean_links"] = 2;
  report.collapsed["threadpool.task"] = 1;
  EXPECT_EQ(report.CollapsedText(),
            "executor.run;unit:clean_links 2\nthreadpool.task 1\n");
}

TEST(ProfilerTest, ReportJsonCarriesOpCpu) {
  Profiler::Report report;
  report.ticks = 10;
  report.samples = 4;
  report.interval_seconds = 0.002;
  report.collapsed["executor.run;unit:op_x"] = 3;
  report.collapsed["io.parse"] = 1;
  json::Value v = report.ToJson();
  ASSERT_TRUE(v.is_object());
  EXPECT_EQ(v.as_object().Find("ticks")->as_double(), 10);
  const json::Value* op_cpu = v.as_object().Find("op_cpu");
  ASSERT_NE(op_cpu, nullptr);
  EXPECT_DOUBLE_EQ(op_cpu->as_object().Find("op_x")->as_double(), 0.75);
  EXPECT_DOUBLE_EQ(op_cpu->as_object().Find("(other)")->as_double(), 0.25);
}

// ------------------------------------------------------------- watchdog --

TEST(WatchdogTest, ParseSpecVariants) {
  Watchdog::Options options;
  bool enabled = true;
  ASSERT_TRUE(Watchdog::ParseSpec("off", &options, &enabled).ok());
  EXPECT_FALSE(enabled);
  ASSERT_TRUE(Watchdog::ParseSpec("12.5", &options, &enabled).ok());
  EXPECT_TRUE(enabled);
  EXPECT_DOUBLE_EQ(options.stall_seconds, 12.5);
  ASSERT_TRUE(Watchdog::ParseSpec("stall=3;poll=0.5", &options, &enabled).ok());
  EXPECT_DOUBLE_EQ(options.stall_seconds, 3.0);
  EXPECT_DOUBLE_EQ(options.poll_seconds, 0.5);
  EXPECT_FALSE(Watchdog::ParseSpec("soon", &options, &enabled).ok());
  EXPECT_FALSE(Watchdog::ParseSpec("stall=-1", &options, &enabled).ok());
  EXPECT_FALSE(Watchdog::ParseSpec("nap=3", &options, &enabled).ok());
}

TEST(WatchdogTest, QuietWhileThreadsBeatOrIdle) {
  Watchdog::Options options;
  options.stall_seconds = 0.05;
  options.poll_seconds = 0.01;
  options.emit_trace_beats = false;
  Watchdog watchdog(options);
  watchdog.Start();
  std::atomic<bool> release{false};
  // A busy thread that beats faster than the threshold is healthy; an idle
  // thread that never beats must not count as stalled either.
  std::thread beating([&] {
    introspect::BusyScope busy;
    while (!release.load()) {
      introspect::Heartbeat();
      SleepSeconds(0.005);
    }
  });
  SleepSeconds(0.3);
  release.store(true);
  beating.join();
  watchdog.Stop();
  EXPECT_EQ(watchdog.stall_count(), 0u);
  EXPECT_TRUE(watchdog.LastDump().empty());
}

TEST(WatchdogTest, DumpsStalledThreadWithinTwiceThreshold) {
  Watchdog::Options options;
  options.stall_seconds = 0.15;
  options.emit_trace_beats = false;
  Watchdog watchdog(options);
  watchdog.Start();
  Mutex mu{"StallVictim.mutex"};
  std::atomic<bool> entered{false};
  std::thread victim([&] {
    introspect::BusyScope busy;
    introspect::SpanTag tag("unit:hung_op");
    MutexLock lock(&mu);
    entered.store(true);
    SleepSeconds(0.8);  // busy, holding a lock, never beating
  });
  ASSERT_TRUE(WaitFor([&] { return entered.load(); }, 5.0));
  // Acceptance bound: detection within 2x the stall threshold.
  EXPECT_TRUE(WaitFor([&] { return watchdog.stall_count() > 0; },
                      2 * options.stall_seconds + 0.05));
  victim.join();
  watchdog.Stop();
  std::string dump = watchdog.LastDump();
  EXPECT_NE(dump.find("[STALLED]"), std::string::npos);
  EXPECT_NE(dump.find("unit:hung_op"), std::string::npos);
  EXPECT_NE(dump.find("StallVictim.mutex"), std::string::npos);
}

TEST(WatchdogTest, OneReportPerStallEpisode) {
  Watchdog::Options options;
  options.stall_seconds = 0.05;
  options.poll_seconds = 0.01;
  options.emit_trace_beats = false;
  Watchdog watchdog(options);
  watchdog.Start();
  std::thread victim([&] {
    introspect::BusyScope busy;
    SleepSeconds(0.4);  // one long stall, polled many times
  });
  victim.join();
  watchdog.Stop();
  // ~40 polls saw the stall but it is one episode -> one report.
  EXPECT_EQ(watchdog.stall_count(), 1u);
}

TEST(WatchdogTest, ExecutorStallFaultTripsWatchdog) {
  fault::ScopedFaults faults("exec.stall=n1");
  Watchdog::Options options;
  options.stall_seconds = 0.1;
  options.emit_trace_beats = false;
  Watchdog watchdog(options);
  watchdog.Start();

  auto op = ops::OpRegistry::Global().Create("document_exact_deduplicator",
                                             json::Value(json::Object{}));
  ASSERT_TRUE(op.ok()) << op.status().ToString();
  std::vector<std::unique_ptr<ops::Op>> pipeline;
  pipeline.push_back(std::move(op).value());

  core::Executor::Options exec_options;
  exec_options.fault_stall_seconds = 0.35;
  core::Executor executor(exec_options);
  auto result = executor.Run(data::Dataset::FromTexts({"a", "b", "a"}),
                             pipeline, nullptr);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  watchdog.Stop();
  EXPECT_GE(watchdog.stall_count(), 1u);
  EXPECT_NE(watchdog.LastDump().find("executor"), std::string::npos);
}

// ------------------------------------------------------------ quantiles --

TEST(HistogramQuantileTest, InterpolatesWithinBuckets) {
  obs::Histogram h({1.0, 2.0, 4.0});
  for (int i = 0; i < 10; ++i) h.Observe(0.5);   // bucket [0, 1]
  for (int i = 0; i < 10; ++i) h.Observe(1.5);   // bucket (1, 2]
  EXPECT_DOUBLE_EQ(h.Quantile(0.5), 1.0);   // 10th of 20 = end of bucket 0
  EXPECT_DOUBLE_EQ(h.Quantile(1.0), 2.0);   // 20th = end of bucket 1
  EXPECT_DOUBLE_EQ(h.Quantile(0.25), 0.5);  // 5th of 10 in [0,1] -> midpoint
}

TEST(HistogramQuantileTest, EdgeCases) {
  obs::Histogram empty({1.0});
  EXPECT_DOUBLE_EQ(empty.Quantile(0.5), -1);  // no observations
  obs::Histogram h({1.0, 2.0});
  h.Observe(10.0);                            // overflow bucket
  EXPECT_DOUBLE_EQ(h.Quantile(0.5), 2.0);     // clamped to the last bound
  EXPECT_DOUBLE_EQ(h.Quantile(-0.1), -1);
  EXPECT_DOUBLE_EQ(h.Quantile(1.1), -1);
}

TEST(HistogramQuantileTest, SnapshotJsonCarriesQuantiles) {
  obs::MetricsRegistry registry;
  registry.GetHistogram("h", {1.0, 2.0})->Observe(0.5);
  json::Value v = registry.SnapshotJson();
  const json::Value* h =
      v.as_object().Find("histograms")->as_object().Find("h");
  ASSERT_NE(h, nullptr);
  for (const char* key : {"p50", "p95", "p99"}) {
    ASSERT_TRUE(h->as_object().Contains(key)) << key;
  }
}

// ------------------------------------------------------ resource seams --

TEST(ResourceMonitorTest, ReadCpuSecondsFromStatFormat) {
  std::string path = ::testing::TempDir() + "/dj_stat_fixture";
  // comm contains spaces and parens — fields must count from the last ')'.
  FILE* f = std::fopen(path.c_str(), "w");
  ASSERT_NE(f, nullptr);
  std::fputs(
      "1234 (weird (comm) name) S 1 1 1 0 -1 4194304 100 0 0 0 "
      "200 100 0 0 20 0 1 0 12345 1000000 50 18446744073709551615\n",
      f);
  std::fclose(f);
  double cpu = ResourceMonitor::ReadCpuSecondsFrom(path.c_str());
  long ticks = sysconf(_SC_CLK_TCK);
  EXPECT_NEAR(cpu, 300.0 / static_cast<double>(ticks), 1e-9);
  std::remove(path.c_str());
  EXPECT_DOUBLE_EQ(ResourceMonitor::ReadCpuSecondsFrom("/nonexistent"), 0);
}

TEST(ResourceMonitorTest, ReadMinorFaultsFromStatFormat) {
  std::string path = ::testing::TempDir() + "/dj_stat_minflt_fixture";
  FILE* f = std::fopen(path.c_str(), "w");
  ASSERT_NE(f, nullptr);
  // minflt is field 10 (100 here); tpgid (field 8) is -1.
  std::fputs(
      "1234 (weird (comm) name) S 1 1 1 0 -1 4194304 100 7 3 5 "
      "200 100 0 0 20 0 1 0 12345 1000000 50 18446744073709551615\n",
      f);
  std::fclose(f);
  EXPECT_EQ(ResourceMonitor::ReadMinorFaultsFrom(path.c_str()), 100u);
  std::remove(path.c_str());
  EXPECT_EQ(ResourceMonitor::ReadMinorFaultsFrom("/nonexistent"), 0u);
}

TEST(ResourceMonitorTest, FirstTouchShowsAsMinorFaults) {
  ResourceMonitor monitor(/*interval_seconds=*/10.0);
  monitor.Start();
  // 16 MiB of fresh, zero-filled memory: at least one fault per 2 MiB even
  // if the kernel backs it with huge pages.
  constexpr size_t kBytes = size_t{16} << 20;
  std::unique_ptr<char[]> fresh(new char[kBytes]());
  volatile char sink = fresh[kBytes - 1];
  (void)sink;
  ResourceReport report = monitor.Stop();
  EXPECT_GE(report.minor_faults, kBytes >> 21);
  EXPECT_GT(ResourceMonitor::ReadMinorFaultsFrom("/proc/self/stat"), 0u);
  EXPECT_GE(ResourceMonitor::CurrentMinorFaults(), report.minor_faults);
}

TEST(ResourceMonitorTest, ReadPeakRssFromStatusFormat) {
  std::string path = ::testing::TempDir() + "/dj_status_fixture";
  FILE* f = std::fopen(path.c_str(), "w");
  ASSERT_NE(f, nullptr);
  std::fputs("Name:\tdj\nVmPeak:\t  999 kB\nVmHWM:\t  256 kB\nVmRSS:\t 128 kB\n",
             f);
  std::fclose(f);
  EXPECT_EQ(ResourceMonitor::ReadPeakRssBytesFrom(path.c_str()),
            256u * 1024u);
  std::remove(path.c_str());
  EXPECT_EQ(ResourceMonitor::ReadPeakRssBytesFrom("/nonexistent"), 0u);
}

TEST(ResourceMonitorTest, LiveCountersArePlausible) {
  EXPECT_GT(ResourceMonitor::CurrentPeakRssBytes(), 0u);
  EXPECT_GE(ResourceMonitor::CurrentPeakRssBytes(),
            ResourceMonitor::CurrentRssBytes() / 2);
  // /proc/self/stat counts CPU time in clock ticks (usually 10 ms), so a
  // process that has not yet run for a whole tick reads 0. Burn CPU until
  // a tick registers — bounded, so a broken reader still fails, not hangs.
  double cpu_s = ResourceMonitor::ReadCpuSecondsFrom("/proc/self/stat");
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  volatile uint64_t sink = 0;
  while (cpu_s <= 0.0 && std::chrono::steady_clock::now() < deadline) {
    for (uint64_t i = 0; i < 1000000; ++i) sink = sink + i * i;
    cpu_s = ResourceMonitor::ReadCpuSecondsFrom("/proc/self/stat");
  }
  EXPECT_GT(cpu_s, 0.0);
}

}  // namespace
}  // namespace dj
