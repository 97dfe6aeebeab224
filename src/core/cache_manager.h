#ifndef DJ_CORE_CACHE_MANAGER_H_
#define DJ_CORE_CACHE_MANAGER_H_

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "common/status.h"
#include "data/dataset.h"
#include "obs/metrics.h"

namespace dj::core {

/// Dataset state store keyed by a configuration hash (paper Sec. 5.1.1 and
/// Sec. 7 "Caching OPs and Compression"). The key for OP i is the combined
/// hash of the input (see InitialKey) and the effective configs of OPs
/// 0..i, so any upstream parameter change invalidates downstream entries —
/// this is the "dedicated and simple hashing method" that sidesteps
/// serializing auxiliary models.
///
/// It serves both as the per-OP cache, which keeps every entry, and as the
/// checkpoint store, which keeps only its newest one (StoreLatest): a
/// checkpoint is the newest entry in its directory.
///
/// Entries are DJDS blobs, optionally djlz-compressed, named
/// "<16 hex digits of the key>.djds" / ".djds.djlz". Both containers carry
/// their own checksums, so a torn or flipped entry fails Load with
/// Corruption. Store writes a temp file, fsyncs it and renames it over the
/// entry (WriteStringToFileAtomic): a crash mid-store leaves the previous
/// entry for the key intact plus a stray "<entry>.tmp", which Clear()
/// removes. Other files in the directory are never touched.
///
/// Thread-compatibility: CacheManager holds no mutex by design. It is safe
/// to use distinct instances on distinct directories from distinct threads,
/// but a directory has one writer at a time (the executor drives its stores
/// from the pipeline thread only): two writers of the same key share one
/// temp file, and the entry they publish fails its checksums at Load.
class CacheManager {
 public:
  CacheManager(std::string dir, bool compression)
      : dir_(std::move(dir)), compression_(compression) {}

  const std::string& dir() const { return dir_; }
  bool compression() const { return compression_; }

  /// Attaches a metrics sink (not owned; nullptr detaches): Contains misses
  /// bump "cache.miss", successful Loads bump "cache.hit" and
  /// "cache.load_bytes", Stores bump "cache.stores" and "cache.store_bytes".
  void SetMetrics(obs::MetricsRegistry* metrics) { metrics_ = metrics; }

  /// Attaches a thread pool (not owned; nullptr detaches): Load and Store
  /// run the DJDS shard codec and djlz block codec on it. Entry bytes are
  /// identical with or without a pool.
  void SetPool(ThreadPool* pool) { pool_ = pool; }

  /// Extends a running key with the next OP's effective config.
  static uint64_t ExtendKey(uint64_t key, std::string_view op_name,
                            const json::Value& effective_config);

  /// Initial key of a dataset the caller decoded: a hash of `source_id`
  /// alone, so the id must change whenever the rows do (a path does not:
  /// an input edited in place would keep its stale entries).
  static uint64_t InitialKey(std::string_view source_id);

  /// Initial key of an input read as raw bytes: `source_id` (the path,
  /// which txt and code formatters write into meta.source), the name of
  /// the decoder, and ContentDigest of the bytes. Editing the input in
  /// place changes the key.
  static uint64_t InitialKey(std::string_view source_id,
                             std::string_view decoder,
                             uint64_t content_digest);

  /// swar::Hash64 over fixed 1 MiB blocks of `bytes` (on `pool` when
  /// given), then Hash64 over the block digests and the byte count. The
  /// value does not depend on the pool or its size.
  static uint64_t ContentDigest(std::string_view bytes,
                                ThreadPool* pool = nullptr);

  bool Contains(uint64_t key) const;

  /// Loads the entry for `key`; NotFound when absent, Corruption when its
  /// bytes fail the djlz or DJDS checks.
  Result<data::Dataset> Load(uint64_t key) const;

  /// Stores `dataset` under `key` (overwrites) via temp file + fsync +
  /// rename. Fail point "store.torn_write" leaves a torn temp file instead.
  Status Store(uint64_t key, const data::Dataset& dataset) const;

  /// Store, then evict every other entry: the directory keeps only the
  /// newest state. Fail point "store.before_evict" stops after the new
  /// entry lands, leaving the older entries in place.
  Status StoreLatest(uint64_t key, const data::Dataset& dataset) const;

  /// Removes the entry for `key` if present.
  void Evict(uint64_t key) const;

  /// Removes every entry and every leftover temp file in the directory,
  /// and an older build's checkpoint files ("checkpoint.json",
  /// "checkpoint-<key>.djds" and their temp files), which no key reaches.
  void Clear() const;

  /// Total bytes currently used by entries.
  uint64_t TotalBytes() const;

  /// Whether two directory paths name one directory (so one store).
  static bool SameDir(const std::string& a, const std::string& b);

 private:
  std::string PathFor(uint64_t key) const;
  /// Removes every entry and temp file but `keep_name`, and with
  /// `older_layout` an older build's checkpoint files too.
  void RemoveFiles(std::string_view keep_name, bool older_layout) const;
  void Bump(std::string_view counter, uint64_t delta = 1) const;

  std::string dir_;
  bool compression_;
  obs::MetricsRegistry* metrics_ = nullptr;
  ThreadPool* pool_ = nullptr;
};

}  // namespace dj::core

#endif  // DJ_CORE_CACHE_MANAGER_H_
