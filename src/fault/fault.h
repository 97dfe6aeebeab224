#ifndef DJ_FAULT_FAULT_H_
#define DJ_FAULT_FAULT_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "common/mutex.h"
#include "common/random.h"
#include "common/status.h"
#include "common/thread_annotations.h"

namespace dj::fault {

/// Seed-deterministic fail-point layer in the fail-point tradition of
/// TiKV/etcd and FoundationDB-style deterministic simulation: production
/// code marks the places where it can die (`DJ_FAULT("io.write.short")`),
/// and tests/operators arm those points by name with a trigger mode. With
/// nothing armed a fail point costs one relaxed atomic load.
///
/// Determinism: every armed point draws from its own RNG seeded from
/// (registry seed, point name), and draws are serialized per point — so the
/// decision sequence of a point (hit #1 triggers, hit #2 doesn't, ...) is a
/// pure function of the seed, independent of thread interleaving. Which
/// thread observes a given decision may vary; the sequence never does.

/// How an armed fail point decides to trigger.
enum class Mode {
  kOff,          ///< armed but never triggers (still counts hits)
  kAlways,       ///< every hit triggers
  kProbability,  ///< each hit triggers with probability `probability`
  kNthHit,       ///< exactly the `nth` hit triggers (1-based), once
};

struct FailPointConfig {
  Mode mode = Mode::kOff;
  double probability = 0.0;  ///< kProbability only
  uint64_t nth = 0;          ///< kNthHit only (1-based)
};

/// Per-point observed counts (for tests and reports).
struct FailPointStats {
  uint64_t hits = 0;
  uint64_t triggers = 0;
};

/// Process-wide fail-point registry. Every trigger bumps the globally
/// installed obs metrics ("fault.triggers" and "fault.<name>.triggers") and
/// emits a trace instant ("fault:<name>", category "fault") on the globally
/// installed span recorder, so injected runs are auditable from their
/// observability artifacts alone.
class FaultRegistry {
 public:
  static FaultRegistry& Global();

  FaultRegistry() = default;
  FaultRegistry(const FaultRegistry&) = delete;
  FaultRegistry& operator=(const FaultRegistry&) = delete;

  /// Applies a `DJ_FAULTS`-syntax spec: semicolon- or comma-separated
  /// `name=mode` entries, where mode is
  ///   `pF`     trigger each hit with probability F in [0,1]  (p0.25)
  ///   `nK`     trigger exactly on the K-th hit, once          (n3)
  ///   `always` trigger every hit
  ///   `off`    disarm the point
  /// plus the pseudo-entry `seed=U` which reseeds the registry (and must
  /// come first to affect the entries after it). Example:
  ///   DJ_FAULTS="seed=7;store.before_evict=n1;io.read.corrupt=p0.1"
  Status Configure(std::string_view spec);

  /// Configure() from the DJ_FAULTS environment variable; unset or empty is
  /// a no-op Ok.
  Status ConfigureFromEnv();

  /// Arms (or with Mode::kOff re-arms as hit-counting-only) a single point.
  void Arm(std::string name, FailPointConfig config);

  /// Removes a point entirely (hits stop being counted).
  void Disarm(std::string_view name);

  /// Disarms everything, zeroes counters, restores the default seed.
  void Reset();

  /// Reseeds the registry and resets every armed point's RNG and counters,
  /// so a seed fully determines the trigger sequences that follow.
  void SetSeed(uint64_t seed);
  uint64_t seed() const;

  /// The fail-point probe: counts a hit on `name` and returns true when the
  /// armed config says this hit triggers. Unarmed names return false.
  bool ShouldFail(std::string_view name);

  /// True when at least one point is armed (lock-free fast path).
  bool AnyArmed() const {
    return armed_count_.load(std::memory_order_relaxed) > 0;
  }

  FailPointStats Stats(std::string_view name) const;
  uint64_t TotalTriggers() const;
  std::vector<std::string> ArmedPoints() const;

 private:
  struct Point {
    FailPointConfig config;
    Rng rng;
    uint64_t hits = 0;
    uint64_t triggers = 0;
  };

  static constexpr uint64_t kDefaultSeed = 0xfa17fa17fa17ULL;

  void ReseedPointLocked(const std::string& name, Point* point)
      DJ_REQUIRES(mutex_);

  mutable Mutex mutex_{"FaultRegistry.mutex"};
  std::map<std::string, Point, std::less<>> points_ DJ_GUARDED_BY(mutex_);
  uint64_t seed_ DJ_GUARDED_BY(mutex_) = kDefaultSeed;
  uint64_t total_triggers_ DJ_GUARDED_BY(mutex_) = 0;
  std::atomic<int> armed_count_{0};
};

/// Convenience probe against the global registry with the cheap
/// nothing-armed fast path inlined.
inline bool ShouldFail(std::string_view name) {
  FaultRegistry& registry = FaultRegistry::Global();
  if (!registry.AnyArmed()) return false;
  return registry.ShouldFail(name);
}

/// RAII helper for tests: configures the global registry on construction
/// and Reset()s it on destruction, so armed points never leak across tests.
class ScopedFaults {
 public:
  explicit ScopedFaults(std::string_view spec) {
    status_ = FaultRegistry::Global().Configure(spec);
  }
  ~ScopedFaults() { FaultRegistry::Global().Reset(); }
  ScopedFaults(const ScopedFaults&) = delete;
  ScopedFaults& operator=(const ScopedFaults&) = delete;
  const Status& status() const { return status_; }

 private:
  Status status_;
};

}  // namespace dj::fault

/// Fail-point probe macro used at injection sites:
///   if (DJ_FAULT("store.torn_write")) return Status::IoError(...);
#define DJ_FAULT(name) (::dj::fault::ShouldFail(name))

#endif  // DJ_FAULT_FAULT_H_
