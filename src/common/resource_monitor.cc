#include "common/resource_monitor.h"

#include <sys/resource.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstring>

namespace dj {
namespace {

double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

ResourceMonitor::ResourceMonitor(double interval_seconds)
    : interval_seconds_(interval_seconds) {}

ResourceMonitor::~ResourceMonitor() {
  if (running_.load()) Stop();
}

uint64_t ResourceMonitor::CurrentRssBytes() {
  return ReadRssBytesFrom("/proc/self/statm");
}

uint64_t ResourceMonitor::ReadRssBytesFrom(const char* statm_path) {
  FILE* f = std::fopen(statm_path, "r");
  if (f == nullptr) return 0;
  unsigned long long size = 0, resident = 0;
  int n = std::fscanf(f, "%llu %llu", &size, &resident);
  std::fclose(f);
  if (n != 2) return 0;
  return static_cast<uint64_t>(resident) *
         static_cast<uint64_t>(sysconf(_SC_PAGESIZE));
}

std::vector<ResourceSample> ResourceMonitor::Samples() const {
  MutexLock lock(&mutex_);
  return samples_;
}

double ResourceMonitor::CurrentCpuSeconds() {
  struct rusage ru;
  if (getrusage(RUSAGE_SELF, &ru) != 0) return 0;
  auto to_sec = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return to_sec(ru.ru_utime) + to_sec(ru.ru_stime);
}

namespace {

/// Reads `count` consecutive numeric fields of a /proc/<pid>/stat-format
/// file, starting at 1-based field `first` (> 2). False when the file is
/// missing or malformed.
bool ReadStatFields(const char* stat_path, int first, int count,
                    unsigned long long* out) {
  FILE* f = std::fopen(stat_path, "r");
  if (f == nullptr) return false;
  char line[1024];
  bool ok = std::fgets(line, sizeof(line), f) != nullptr;
  std::fclose(f);
  if (!ok) return false;
  // The comm field (2nd) is parenthesized and may contain spaces; fields
  // count from the ')' instead of the line start.
  const char* p = std::strrchr(line, ')');
  if (p == nullptr) return false;
  ++p;
  for (int field = 2; *p != '\0' && field < first - 1; ++field) {
    while (*p == ' ') ++p;
    while (*p != '\0' && *p != ' ') ++p;
  }
  for (int i = 0; i < count; ++i) {
    int used = 0;
    if (std::sscanf(p, " %llu%n", &out[i], &used) != 1) return false;
    p += used;
  }
  return true;
}

}  // namespace

double ResourceMonitor::ReadCpuSecondsFrom(const char* stat_path) {
  // utime/stime are fields 14/15.
  unsigned long long ticks_used[2];
  if (!ReadStatFields(stat_path, 14, 2, ticks_used)) return 0;
  long ticks = sysconf(_SC_CLK_TCK);
  if (ticks <= 0) return 0;
  return static_cast<double>(ticks_used[0] + ticks_used[1]) /
         static_cast<double>(ticks);
}

uint64_t ResourceMonitor::CurrentMinorFaults() {
  struct rusage ru;
  if (getrusage(RUSAGE_SELF, &ru) != 0) return 0;
  return static_cast<uint64_t>(ru.ru_minflt);
}

uint64_t ResourceMonitor::ReadMinorFaultsFrom(const char* stat_path) {
  // minflt is field 10.
  unsigned long long minflt = 0;
  if (!ReadStatFields(stat_path, 10, 1, &minflt)) return 0;
  return minflt;
}

uint64_t ResourceMonitor::CurrentPeakRssBytes() {
  return ReadPeakRssBytesFrom("/proc/self/status");
}

uint64_t ResourceMonitor::ReadPeakRssBytesFrom(const char* status_path) {
  FILE* f = std::fopen(status_path, "r");
  if (f == nullptr) return 0;
  char line[256];
  uint64_t kb = 0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    unsigned long long value = 0;
    if (std::sscanf(line, "VmHWM: %llu kB", &value) == 1) {
      kb = value;
      break;
    }
  }
  std::fclose(f);
  return kb * 1024;
}

void ResourceMonitor::Start() {
  if (running_.exchange(true)) return;
  {
    MutexLock lock(&mutex_);
    samples_.clear();
  }
  start_wall_ = NowSeconds();
  start_cpu_ = CurrentCpuSeconds();
  start_minor_faults_ = CurrentMinorFaults();
  sampler_ = std::thread([this] { SampleLoop(); });
}

ResourceReport ResourceMonitor::Stop() {
  ResourceReport report;
  if (!running_.exchange(false)) return report;
  if (sampler_.joinable()) sampler_.join();

  report.wall_seconds = NowSeconds() - start_wall_;
  report.cpu_seconds = CurrentCpuSeconds() - start_cpu_;
  report.minor_faults = CurrentMinorFaults() - start_minor_faults_;
  if (report.wall_seconds > 0) {
    report.avg_cpu_utilization = report.cpu_seconds / report.wall_seconds;
  }
  MutexLock lock(&mutex_);
  if (!samples_.empty()) {
    unsigned __int128 total = 0;
    for (const auto& s : samples_) {
      total += s.rss_bytes;
      if (s.rss_bytes > report.peak_rss_bytes) {
        report.peak_rss_bytes = s.rss_bytes;
      }
    }
    report.avg_rss_bytes = static_cast<uint64_t>(total / samples_.size());
  } else {
    report.peak_rss_bytes = report.avg_rss_bytes = CurrentRssBytes();
  }
  // The kernel high-water mark catches spikes shorter than the sampling
  // interval; it is lifetime-wide, so only take it when it exceeds what we
  // actually saw this interval.
  uint64_t hwm = CurrentPeakRssBytes();
  if (hwm > report.peak_rss_bytes) report.peak_rss_bytes = hwm;
  return report;
}

void ResourceMonitor::SampleLoop() {
  while (running_.load(std::memory_order_relaxed)) {
    ResourceSample s;
    s.wall_seconds = NowSeconds() - start_wall_;
    s.rss_bytes = CurrentRssBytes();
    s.cpu_seconds = CurrentCpuSeconds() - start_cpu_;
    {
      MutexLock lock(&mutex_);
      samples_.push_back(s);
    }
    std::this_thread::sleep_for(
        std::chrono::duration<double>(interval_seconds_));
  }
}

}  // namespace dj
