#include "common/logging.h"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <ctime>

#include "common/mutex.h"
#include "common/string_util.h"

namespace dj {
namespace {

// -1 = not yet initialized; first use reads DJ_LOG_LEVEL. A sentinel (rather
// than eager init) keeps the logger usable from static constructors.
std::atomic<int> g_min_level{-1};
Mutex g_log_mutex{"logging.stderr"};

int LevelFromEnv() {
  LogLevel level = LogLevel::kInfo;
  if (const char* env = std::getenv("DJ_LOG_LEVEL"); env != nullptr) {
    ParseLogLevel(env, &level);  // unparseable → keep Info
  }
  return static_cast<int>(level);
}

int MinLevel() {
  int level = g_min_level.load(std::memory_order_relaxed);
  if (level >= 0) return level;
  level = LevelFromEnv();
  // Another thread (or SetLogLevel) may have won the race; keep its value.
  int expected = -1;
  if (g_min_level.compare_exchange_strong(expected, level,
                                          std::memory_order_relaxed)) {
    return level;
  }
  return expected;
}

const char* LevelTag(LogLevel level) {
  switch (level) {
    case LogLevel::kDebug:
      return "DEBUG";
    case LogLevel::kInfo:
      return "INFO";
    case LogLevel::kWarning:
      return "WARN";
    case LogLevel::kError:
      return "ERROR";
  }
  return "?";
}

/// Wall-clock "YYYY-MM-DD HH:MM:SS.mmm" for log line prefixes.
void FormatTimestamp(char* buf, size_t buf_size) {
  auto now = std::chrono::system_clock::now();
  std::time_t seconds = std::chrono::system_clock::to_time_t(now);
  auto millis = std::chrono::duration_cast<std::chrono::milliseconds>(
                    now.time_since_epoch())
                    .count() %
                1000;
  struct tm tm_buf;
  localtime_r(&seconds, &tm_buf);
  size_t n = std::strftime(buf, buf_size, "%Y-%m-%d %H:%M:%S", &tm_buf);
  std::snprintf(buf + n, buf_size - n, ".%03d", static_cast<int>(millis));
}

}  // namespace

void SetLogLevel(LogLevel level) {
  g_min_level.store(static_cast<int>(level), std::memory_order_relaxed);
}

LogLevel GetLogLevel() { return static_cast<LogLevel>(MinLevel()); }

bool ParseLogLevel(std::string_view text, LogLevel* out) {
  const std::string lower = AsciiToLower(text);
  if (lower == "debug") {
    *out = LogLevel::kDebug;
  } else if (lower == "info") {
    *out = LogLevel::kInfo;
  } else if (lower == "warning" || lower == "warn") {
    *out = LogLevel::kWarning;
  } else if (lower == "error") {
    *out = LogLevel::kError;
  } else {
    return false;
  }
  return true;
}

namespace internal_logging {

LogMessage::LogMessage(LogLevel level, const char* file, int line)
    : level_(level) {
  // Keep only the basename so log lines stay short.
  const char* base = file;
  for (const char* p = file; *p != '\0'; ++p) {
    if (*p == '/') base = p + 1;
  }
  char ts[48];
  FormatTimestamp(ts, sizeof(ts));
  stream_ << "[" << ts << " " << LevelTag(level) << " " << base << ":" << line
          << "] ";
}

LogMessage::~LogMessage() {
  if (static_cast<int>(level_) < MinLevel()) return;
  MutexLock lock(&g_log_mutex);
  std::fprintf(stderr, "%s\n", stream_.str().c_str());
}

}  // namespace internal_logging
}  // namespace dj
