#ifndef DJ_COMMON_RESOURCE_MONITOR_H_
#define DJ_COMMON_RESOURCE_MONITOR_H_

#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"

namespace dj {

/// One sample of process resource usage.
struct ResourceSample {
  double wall_seconds = 0;   ///< Seconds since monitoring started.
  uint64_t rss_bytes = 0;    ///< Resident set size from /proc/self/statm.
  double cpu_seconds = 0;    ///< Cumulative user+system CPU time.
};

/// Aggregate over a monitored interval, mirroring the PSUTIL-based tool of
/// the paper (Appendix B.3.3): average memory and average CPU utilization.
struct ResourceReport {
  double wall_seconds = 0;
  uint64_t peak_rss_bytes = 0;
  uint64_t avg_rss_bytes = 0;
  double cpu_seconds = 0;
  /// Average CPU utilization over the interval: cpu_time / wall_time.
  /// 1.0 == one core fully busy.
  double avg_cpu_utilization = 0;
  /// Minor page faults over the interval: mostly first touches of fresh
  /// pages (4 KiB each, or one per 2 MiB huge page).
  uint64_t minor_faults = 0;
};

/// Background sampler of this process's RSS and CPU time (Linux /proc).
/// Start() launches a sampling thread; Stop() joins it and returns the
/// aggregate report.
class ResourceMonitor {
 public:
  explicit ResourceMonitor(double interval_seconds = 0.05);
  ~ResourceMonitor();

  ResourceMonitor(const ResourceMonitor&) = delete;
  ResourceMonitor& operator=(const ResourceMonitor&) = delete;

  void Start();
  ResourceReport Stop();

  /// Snapshot of the samples collected so far (or, after Stop(), of the
  /// whole monitored interval — samples persist until the next Start()).
  std::vector<ResourceSample> Samples() const;

  /// Current resident set size of this process, 0 if unavailable.
  static uint64_t CurrentRssBytes();
  /// RSS parsed from a statm-format file; 0 when the file is missing or
  /// malformed. Seam for testing the /proc read-failure path.
  static uint64_t ReadRssBytesFrom(const char* statm_path);
  /// Cumulative user+system CPU seconds of this process.
  static double CurrentCpuSeconds();
  /// CPU seconds parsed from a /proc/<pid>/stat-format file (utime+stime
  /// clock ticks); 0 when missing or malformed. Seam for testing; the
  /// getrusage path above stays the default because it also counts
  /// already-reaped children's time consistently.
  static double ReadCpuSecondsFrom(const char* stat_path);
  /// Cumulative minor page faults of this process (getrusage ru_minflt).
  static uint64_t CurrentMinorFaults();
  /// minflt (field 10) parsed from a /proc/<pid>/stat-format file; 0 when
  /// missing or malformed. Seam for testing, like ReadCpuSecondsFrom.
  static uint64_t ReadMinorFaultsFrom(const char* stat_path);
  /// Kernel-reported peak ("high water mark") RSS of this process, 0 if
  /// unavailable. Unlike the sampled peak this cannot miss a short spike
  /// between samples.
  static uint64_t CurrentPeakRssBytes();
  /// VmHWM parsed from a /proc/<pid>/status-format file; 0 when missing or
  /// malformed. Seam for testing.
  static uint64_t ReadPeakRssBytesFrom(const char* status_path);

 private:
  void SampleLoop();

  double interval_seconds_;
  std::atomic<bool> running_{false};
  std::thread sampler_;
  mutable Mutex mutex_{"ResourceMonitor.mutex"};
  std::vector<ResourceSample> samples_ DJ_GUARDED_BY(mutex_);
  // Written by Start() before the sampler thread exists and read by it (and
  // by Stop() after joining it): ordered by thread creation/join, no lock.
  double start_wall_ = 0;
  double start_cpu_ = 0;
  uint64_t start_minor_faults_ = 0;
};

}  // namespace dj

#endif  // DJ_COMMON_RESOURCE_MONITOR_H_
