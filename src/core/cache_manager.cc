#include "core/cache_manager.h"

#include <cstdio>
#include <filesystem>
#include <vector>

#include "common/file_util.h"
#include "common/hash.h"
#include "common/string_util.h"
#include "common/swar.h"
#include "common/thread_pool.h"
#include "compress/djlz.h"
#include "data/io.h"
#include "fault/fault.h"
#include "json/writer.h"

namespace dj::core {
namespace fs = std::filesystem;
namespace {

/// Whether `name` is an entry as PathFor names it: "<16 hex>.djds" or
/// "<16 hex>.djds.djlz".
bool IsEntryName(std::string_view name) {
  if (name.size() < 16) return false;
  for (char c : name.substr(0, 16)) {
    if (!((c >= '0' && c <= '9') || (c >= 'a' && c <= 'f'))) return false;
  }
  const std::string_view ext = name.substr(16);
  return ext == ".djds" || ext == ".djds.djlz";
}

/// An entry, or the ".tmp" an interrupted Store left of one.
bool IsEntryOrTempName(std::string_view name) {
  if (EndsWith(name, ".tmp")) name.remove_suffix(4);
  return IsEntryName(name);
}

/// What an older build's checkpoint store wrote: a "checkpoint.json"
/// manifest naming a "checkpoint-<16 hex>.djds" blob, or the ".tmp" of
/// either. No current key reaches them.
bool IsOlderCheckpointName(std::string_view name) {
  if (EndsWith(name, ".tmp")) name.remove_suffix(4);
  return name == "checkpoint.json" ||
         (StartsWith(name, "checkpoint-") &&
          IsEntryName(name.substr(sizeof("checkpoint-") - 1)));
}

constexpr size_t kDigestBlock = size_t{1} << 20;

}  // namespace

uint64_t CacheManager::InitialKey(std::string_view source_id) {
  return Fnv1a64(source_id, 0xDA7A0CACE5ULL);
}

uint64_t CacheManager::InitialKey(std::string_view source_id,
                                  std::string_view decoder,
                                  uint64_t content_digest) {
  return HashCombine(HashCombine(InitialKey(source_id), Fnv1a64(decoder)),
                     content_digest);
}

uint64_t CacheManager::ContentDigest(std::string_view bytes,
                                     ThreadPool* pool) {
  // Fixed blocks make the digest independent of the worker count; the last
  // slot holds the byte count.
  const size_t blocks = (bytes.size() + kDigestBlock - 1) / kDigestBlock;
  std::vector<uint64_t> digests(blocks + 1);
  auto hash_blocks = [&](size_t begin, size_t end) {
    for (size_t b = begin; b < end; ++b) {
      std::string_view block = bytes.substr(b * kDigestBlock, kDigestBlock);
      digests[b] = swar::Hash64(block.data(), block.size());
    }
  };
  if (pool != nullptr && pool->num_threads() > 1 && blocks > 1) {
    pool->ParallelFor(blocks, hash_blocks);
  } else {
    hash_blocks(0, blocks);
  }
  digests[blocks] = bytes.size();
  return swar::Hash64(reinterpret_cast<const char*>(digests.data()),
                      digests.size() * sizeof(uint64_t));
}

uint64_t CacheManager::ExtendKey(uint64_t key, std::string_view op_name,
                                 const json::Value& effective_config) {
  // The effective config is serialized deterministically (insertion-ordered
  // objects), so equal configurations hash equally across runs.
  uint64_t op_hash = Fnv1a64(op_name);
  uint64_t config_hash = Fnv1a64(json::Write(effective_config));
  return HashCombine(HashCombine(key, op_hash), config_hash);
}

bool CacheManager::SameDir(const std::string& a, const std::string& b) {
  auto normal = [](const std::string& dir) {
    std::error_code ec;
    fs::path p = fs::weakly_canonical(dir, ec);
    if (ec) p = dir;
    p = p.lexically_normal();
    return p.has_filename() ? p : p.parent_path();  // drop a trailing '/'
  };
  return normal(a) == normal(b);
}

std::string CacheManager::PathFor(uint64_t key) const {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(key));
  return dir_ + "/" + buf + (compression_ ? ".djds.djlz" : ".djds");
}

// The Bump() names, accounted here because the call sites pass them
// through a string_view parameter:
// srclint-declare(counter): cache.hit
// srclint-declare(counter): cache.miss
// srclint-declare(counter): cache.stores
// srclint-declare(counter): cache.load_bytes
// srclint-declare(counter): cache.store_bytes
void CacheManager::Bump(std::string_view counter, uint64_t delta) const {
  if (metrics_ != nullptr) metrics_->GetCounter(counter)->Add(delta);
}

bool CacheManager::Contains(uint64_t key) const {
  std::error_code ec;
  bool present = fs::exists(PathFor(key), ec);
  if (!present) Bump("cache.miss");
  return present;
}

Result<data::Dataset> CacheManager::Load(uint64_t key) const {
  std::string path = PathFor(key);
  auto content = data::ReadFile(path);
  if (!content.ok()) {
    Bump("cache.miss");
    return Status::NotFound("cache miss for key " + path);
  }
  std::string blob = std::move(content).value();
  Bump("cache.hit");
  Bump("cache.load_bytes", blob.size());
  if (compress::IsFrame(blob)) {
    DJ_ASSIGN_OR_RETURN(blob, compress::DecompressFrame(blob, pool_));
  }
  return data::DeserializeDataset(blob, pool_);
}

Status CacheManager::Store(uint64_t key, const data::Dataset& dataset) const {
  std::string blob = data::SerializeDataset(dataset, pool_);
  if (compression_) blob = compress::CompressFrame(blob, pool_);
  Bump("cache.stores");
  Bump("cache.store_bytes", blob.size());
  const std::string path = PathFor(key);
  if (DJ_FAULT("store.torn_write")) {
    // Simulated crash mid-write: only a torn temp file lands on disk; the
    // previous entry for the key (if any) is untouched.
    WriteStringToFile(path + ".tmp",
                      std::string_view(blob).substr(0, blob.size() * 2 / 3));
    return Status::IoError("fault injected: store.torn_write on '" + path +
                           "' (torn temp file)");
  }
  return WriteStringToFileAtomic(path, blob);
}

Status CacheManager::StoreLatest(uint64_t key,
                                 const data::Dataset& dataset) const {
  DJ_RETURN_IF_ERROR(Store(key, dataset));
  if (DJ_FAULT("store.before_evict")) {
    // Simulated crash after the new entry landed: the older entries stay,
    // and a resume scan takes the deepest of them.
    return Status::IoError(
        "fault injected: store.before_evict (older entries not evicted)");
  }
  RemoveFiles(fs::path(PathFor(key)).filename().string(),
              /*older_layout=*/false);
  return Status::Ok();
}

void CacheManager::Evict(uint64_t key) const {
  std::error_code ec;
  fs::remove(PathFor(key), ec);
}

void CacheManager::RemoveFiles(std::string_view keep_name,
                               bool older_layout) const {
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir_, ec)) {
    const std::string name = entry.path().filename().string();
    if ((IsEntryOrTempName(name) ||
         (older_layout && IsOlderCheckpointName(name))) &&
        name != keep_name) {
      fs::remove(entry.path(), ec);
    }
  }
}

void CacheManager::Clear() const { RemoveFiles("", /*older_layout=*/true); }

uint64_t CacheManager::TotalBytes() const {
  std::error_code ec;
  uint64_t total = 0;
  for (const auto& entry : fs::directory_iterator(dir_, ec)) {
    if (entry.is_regular_file(ec) &&
        IsEntryName(entry.path().filename().string())) {
      total += entry.file_size(ec);
    }
  }
  return total;
}

}  // namespace dj::core
