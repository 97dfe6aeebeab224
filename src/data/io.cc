#include "data/io.h"

#include <algorithm>
#include <cstring>
#include <limits>

#include "common/file_util.h"
#include "common/large_buffer.h"
#include "common/swar.h"
#include "common/sched_point.h"
#include "common/stopwatch.h"
#include "common/string_util.h"
#include "common/thread_introspect.h"
#include "compress/djlz.h"
#include "fault/fault.h"
#include "json/parser.h"
#include "json/writer.h"
#include "obs/metrics.h"
#include "obs/span.h"

namespace dj::data {
namespace {

constexpr char kDatasetMagic[4] = {'D', 'J', 'D', 'S'};
// The only version read or written. A blob of any other version is
// rejected as corrupt, and the cache layer recomputes such an entry.
constexpr uint8_t kDatasetVersion = 3;

/// Sharding defaults for the container. The auto shard count depends
/// only on the row count — never on the pool — so serial and parallel
/// serialization produce identical bytes.
constexpr size_t kRowsPerShard = 2048;
constexpr size_t kMaxAutoShards = 64;

/// Inputs below this size parse serially even when a pool is given: chunk
/// scheduling would cost more than the parse.
constexpr size_t kParallelParseThreshold = 1 << 16;

// Value tags for the binary codec.
enum : uint8_t {
  kTagNull = 0,
  kTagFalse = 1,
  kTagTrue = 2,
  kTagInt = 3,
  kTagDouble = 4,
  kTagString = 5,
  kTagArray = 6,
  kTagObject = 7,
};

// Byte sinks of the binary encoder. Each encoder below is one template over
// its sink: a CountingSink run yields the exact size of the bytes a writing
// sink run emits, so a buffer sized by the one is filled exactly by the
// other and the two cannot drift apart.

/// Measures instead of writing.
class CountingSink {
 public:
  void Put(char) { ++size_; }
  void Append(const char*, size_t n) { size_ += n; }
  size_t size() const { return size_; }

 private:
  size_t size_ = 0;
};

/// Appends to a growing string (SerializeValue).
class StringSink {
 public:
  explicit StringSink(std::string* out) : out_(out) {}
  void Put(char c) { out_->push_back(c); }
  void Append(const char* p, size_t n) { out_->append(p, n); }

 private:
  std::string* out_;
};

/// Writes into memory a CountingSink run has already sized.
class BufferSink {
 public:
  explicit BufferSink(char* at) : at_(at) {}
  void Put(char c) { *at_++ = c; }
  void Append(const char* p, size_t n) {
    std::memcpy(at_, p, n);
    at_ += n;
  }

 private:
  char* at_;
};

template <typename Sink>
void PutVarint(uint64_t v, Sink* out) {
  while (v >= 0x80) {
    out->Put(static_cast<char>((v & 0x7F) | 0x80));
    v >>= 7;
  }
  out->Put(static_cast<char>(v));
}

bool GetVarint(std::string_view bytes, size_t* pos, uint64_t* out) {
  uint64_t v = 0;
  int shift = 0;
  while (*pos < bytes.size() && shift <= 63) {
    uint8_t b = static_cast<uint8_t>(bytes[*pos]);
    ++*pos;
    v |= static_cast<uint64_t>(b & 0x7F) << shift;
    if ((b & 0x80) == 0) {
      *out = v;
      return true;
    }
    shift += 7;
  }
  return false;
}

template <typename Sink>
void PutString(std::string_view s, Sink* out) {
  PutVarint(s.size(), out);
  out->Append(s.data(), s.size());
}

bool GetString(std::string_view bytes, size_t* pos, std::string* out) {
  uint64_t len = 0;
  if (!GetVarint(bytes, pos, &len)) return false;
  // `*pos + len` can wrap for adversarial lengths; compare against the
  // remaining byte count instead (GetVarint guarantees *pos <= size here).
  if (len > bytes.size() - *pos) return false;
  out->assign(bytes.substr(*pos, len));
  *pos += len;
  return true;
}

template <typename Sink>
void PutU64Fixed(uint64_t v, Sink* out) {
  for (int i = 0; i < 8; ++i) {
    out->Put(static_cast<char>((v >> (8 * i)) & 0xFF));
  }
}

template <typename Sink>
void EncodeValue(const json::Value& v, Sink* out) {
  switch (v.type()) {
    case json::Value::Type::kNull:
      out->Put(static_cast<char>(kTagNull));
      break;
    case json::Value::Type::kBool:
      out->Put(static_cast<char>(v.as_bool() ? kTagTrue : kTagFalse));
      break;
    case json::Value::Type::kInt: {
      out->Put(static_cast<char>(kTagInt));
      int64_t x = v.as_int();
      uint64_t zz = (static_cast<uint64_t>(x) << 1) ^
                    static_cast<uint64_t>(x >> 63);
      PutVarint(zz, out);
      break;
    }
    case json::Value::Type::kDouble: {
      out->Put(static_cast<char>(kTagDouble));
      double d = v.as_double();
      char buf[8];
      std::memcpy(buf, &d, 8);
      out->Append(buf, 8);
      break;
    }
    case json::Value::Type::kString:
      out->Put(static_cast<char>(kTagString));
      PutString(v.as_string(), out);
      break;
    case json::Value::Type::kArray: {
      out->Put(static_cast<char>(kTagArray));
      PutVarint(v.as_array().size(), out);
      for (const auto& e : v.as_array()) EncodeValue(e, out);
      break;
    }
    case json::Value::Type::kObject: {
      out->Put(static_cast<char>(kTagObject));
      PutVarint(v.as_object().size(), out);
      for (const auto& [key, value] : v.as_object().entries()) {
        PutString(key, out);
        EncodeValue(value, out);
      }
      break;
    }
  }
}

/// One row-range shard of the container, as its shard table entry.
struct ShardEntry {
  size_t rows = 0;
  size_t length = 0;
  uint64_t checksum = 0;
};

/// The header up to (not including) its checksum: magic, version, row
/// and column counts, column names, and the shard table. Checksums are
/// fixed-width, so the header's size does not depend on their values.
template <typename Sink>
void EncodeHeader(size_t num_rows, const std::vector<std::string>& names,
                  const std::vector<ShardEntry>& shards, Sink* out) {
  out->Append(kDatasetMagic, 4);
  out->Put(static_cast<char>(kDatasetVersion));
  PutVarint(num_rows, out);
  PutVarint(names.size(), out);
  for (const std::string& name : names) PutString(name, out);
  PutVarint(shards.size(), out);
  for (const ShardEntry& shard : shards) {
    PutVarint(shard.rows, out);
    PutVarint(shard.length, out);
    PutU64Fixed(shard.checksum, out);
  }
}

bool GetU64Fixed(std::string_view bytes, size_t* pos, uint64_t* out) {
  if (bytes.size() - *pos < 8) return false;
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<uint64_t>(static_cast<uint8_t>(bytes[*pos + i]))
         << (8 * i);
  }
  *pos += 8;
  *out = v;
  return true;
}

Status DeserializeValueAt(std::string_view bytes, size_t* pos,
                          json::Value* out, int depth) {
  if (depth > 256) return Status::Corruption("value nesting too deep");
  if (*pos >= bytes.size()) return Status::Corruption("truncated value");
  uint8_t tag = static_cast<uint8_t>(bytes[(*pos)++]);
  switch (tag) {
    case kTagNull:
      *out = json::Value(nullptr);
      return Status::Ok();
    case kTagFalse:
      *out = json::Value(false);
      return Status::Ok();
    case kTagTrue:
      *out = json::Value(true);
      return Status::Ok();
    case kTagInt: {
      uint64_t zz = 0;
      if (!GetVarint(bytes, pos, &zz)) {
        return Status::Corruption("truncated int");
      }
      int64_t v = static_cast<int64_t>(zz >> 1) ^ -static_cast<int64_t>(zz & 1);
      *out = json::Value(v);
      return Status::Ok();
    }
    case kTagDouble: {
      if (bytes.size() - *pos < 8) return Status::Corruption("truncated double");
      uint64_t bits = 0;
      std::memcpy(&bits, bytes.data() + *pos, 8);
      *pos += 8;
      double d;
      std::memcpy(&d, &bits, 8);
      *out = json::Value(d);
      return Status::Ok();
    }
    case kTagString: {
      std::string s;
      if (!GetString(bytes, pos, &s)) {
        return Status::Corruption("truncated string");
      }
      *out = json::Value(std::move(s));
      return Status::Ok();
    }
    case kTagArray: {
      uint64_t n = 0;
      if (!GetVarint(bytes, pos, &n)) {
        return Status::Corruption("truncated array size");
      }
      // Every element costs at least one tag byte, so a count beyond the
      // remaining bytes is corrupt — and must not drive reserve().
      if (n > bytes.size() - *pos) {
        return Status::Corruption("array size exceeds payload");
      }
      json::Array arr;
      arr.reserve(n);
      for (uint64_t i = 0; i < n; ++i) {
        json::Value v;
        DJ_RETURN_IF_ERROR(DeserializeValueAt(bytes, pos, &v, depth + 1));
        arr.push_back(std::move(v));
      }
      *out = json::Value(std::move(arr));
      return Status::Ok();
    }
    case kTagObject: {
      uint64_t n = 0;
      if (!GetVarint(bytes, pos, &n)) {
        return Status::Corruption("truncated object size");
      }
      if (n > bytes.size() - *pos) {
        return Status::Corruption("object size exceeds payload");
      }
      json::Object obj;
      for (uint64_t i = 0; i < n; ++i) {
        std::string key;
        if (!GetString(bytes, pos, &key)) {
          return Status::Corruption("truncated object key");
        }
        json::Value v;
        DJ_RETURN_IF_ERROR(DeserializeValueAt(bytes, pos, &v, depth + 1));
        obj.Set(std::move(key), std::move(v));
      }
      *out = json::Value(std::move(obj));
      return Status::Ok();
    }
    default:
      return Status::Corruption("unknown value tag");
  }
}

/// Bumps the io.* row/byte counters and the seconds histogram on the
/// globally installed registry (no-op without one).
void RecordIoMetrics(const char* op, uint64_t rows, uint64_t bytes,
                     double seconds) {
  obs::MetricsRegistry* m = obs::GlobalMetrics();
  if (m == nullptr) return;
  // srclint-declare(counter): io.*
  // srclint-declare(histogram): io.*
  std::string prefix = std::string("io.") + op;
  m->GetCounter(prefix + ".rows")->Add(rows);
  m->GetCounter(prefix + ".bytes")->Add(bytes);
  m->GetHistogram(prefix + "_seconds")->Observe(seconds);
  // Which kernel level the data plane dispatched to (0=scalar .. 2=sse2),
  // so metrics snapshots record the configuration a run measured.
  m->GetGauge("simd.kernel")->Set(swar::ActiveLevelMetric());
}

/// One newline-aligned piece of a JSONL buffer and what parsing it left.
struct JsonlChunk {
  std::string_view bytes;
  Dataset rows;
  size_t newlines = 0;    // '\n' bytes in the chunk
  Status status;          // the chunk's first error, if any
  size_t error_line = 0;  // its line, 1-based from the chunk's first line
};

/// Parses one chunk in two stages. Stage 1 (swar::StructuralScan) indexes
/// every '\n', '"' and '\\' of the chunk, positions relative to its first
/// byte. Stage 2 bounds lines by the newline index and hands each line the
/// quote/escape positions inside it, so the indexed field extractor never
/// scans bytes to find structure. A line the fast path cannot handle is
/// re-parsed with json::ParseStrict, so accepted values and error messages
/// are exactly the byte-wise parser's.
void IndexAndParseChunk(JsonlChunk* chunk) {
  const std::string_view content = chunk->bytes;
  // Reserves sized to typical JSONL (one quote per ~25 bytes of text, lines
  // a few hundred bytes) keep the push_backs from doubling the vectors.
  std::vector<uint32_t> newlines;
  std::vector<uint32_t> quotes_escapes;
  newlines.reserve(content.size() / 256 + 16);
  quotes_escapes.reserve(content.size() / 24 + 16);
  swar::StructuralScan(content.data(), content.size(), &newlines,
                       &quotes_escapes);
  chunk->newlines = newlines.size();

  size_t lineno = 0;
  size_t start = 0;
  size_t qe_i = 0;
  for (size_t nl_i = 0; start < content.size(); ++nl_i) {
    const size_t eol =
        nl_i < newlines.size() ? newlines[nl_i] : content.size();
    std::string_view line = content.substr(start, eol - start);
    start = eol + 1;
    ++lineno;
    std::string_view body = StripAsciiWhitespace(line);
    if (body.empty()) continue;
    const size_t body_begin =
        static_cast<size_t>(body.data() - content.data());
    const size_t body_end = body_begin + body.size();
    while (qe_i < quotes_escapes.size() && quotes_escapes[qe_i] < body_begin) {
      ++qe_i;
    }
    size_t qe_hi = qe_i;
    while (qe_hi < quotes_escapes.size() && quotes_escapes[qe_hi] < body_end) {
      ++qe_hi;
    }
    json::Value v;
    bool fast = json::TryParseStrictIndexed(
        body, quotes_escapes.data() + qe_i, qe_hi - qe_i, body_begin, &v);
    qe_i = qe_hi;
    if (!fast) {
      auto r = json::ParseStrict(body);
      if (!r.ok()) {
        chunk->status = r.status();
        chunk->error_line = lineno;
        return;
      }
      v = std::move(r.value());
    }
    if (!v.is_object()) {
      chunk->status = Status::Corruption("expected an object");
      chunk->error_line = lineno;
      return;
    }
    chunk->rows.AppendSample(Sample(std::move(v.as_object())));
  }
}

/// Cuts `content` right after raw '\n' bytes into about `target` chunks of
/// similar size. A raw newline never sits inside a valid JSON string, so
/// every such cut is safe. Chunk positions are indexed as uint32_t, so the
/// target grows until each share is at most 2 GiB: a chunk then stays
/// under 4 GiB unless one line alone is over 2 GiB long.
std::vector<JsonlChunk> CutJsonlChunks(std::string_view content,
                                       size_t target) {
  constexpr size_t kMaxShare = size_t{1} << 31;
  target = std::max(target, (content.size() + kMaxShare - 1) / kMaxShare);
  std::vector<JsonlChunk> chunks;
  size_t begin = 0;
  for (size_t i = 1; i < target && begin < content.size(); ++i) {
    const size_t at = content.size() * i / target;
    if (at <= begin) continue;
    const size_t cut = content.find('\n', at);
    if (cut == std::string_view::npos) break;
    chunks.emplace_back().bytes = content.substr(begin, cut + 1 - begin);
    begin = cut + 1;
  }
  if (begin < content.size()) {
    chunks.emplace_back().bytes = content.substr(begin);
  }
  return chunks;
}

/// Deterministic shard count for a dataset: one shard per kRowsPerShard
/// rows, capped. Depends only on the row count, never on the pool.
size_t AutoShardCount(size_t num_rows) {
  if (num_rows == 0) return 0;
  size_t shards = (num_rows + kRowsPerShard - 1) / kRowsPerShard;
  return std::min(shards, kMaxAutoShards);
}

/// Runs fn(begin, end) over [0, n) — on the pool when one is given and the
/// work is wide enough, inline otherwise.
void MaybeParallelFor(ThreadPool* pool, size_t n,
                      const std::function<void(size_t, size_t)>& fn) {
  if (pool != nullptr && pool->num_threads() > 1 && n > 1) {
    pool->ParallelFor(n, fn);
    DJ_SCHED_POINT("io.shard.gather");
    introspect::Heartbeat();
  } else {
    fn(0, n);
  }
}

Result<Dataset> DeserializeShardedDataset(std::string_view bytes,
                                          ThreadPool* pool) {
  auto checksum_of = [](std::string_view s) {
    return swar::Hash64(s.data(), s.size());
  };
  size_t pos = 5;
  uint64_t num_rows = 0, num_cols = 0;
  if (!GetVarint(bytes, &pos, &num_rows) ||
      !GetVarint(bytes, &pos, &num_cols)) {
    return Status::Corruption("truncated DJDS header");
  }
  if (num_cols > bytes.size() - pos) {
    return Status::Corruption("DJDS column count exceeds payload");
  }
  std::vector<std::string> col_names;
  col_names.reserve(num_cols);
  for (uint64_t c = 0; c < num_cols; ++c) {
    std::string name;
    if (!GetString(bytes, &pos, &name)) {
      return Status::Corruption("truncated column name");
    }
    col_names.push_back(std::move(name));
  }
  size_t header_begin = 0;
  uint64_t num_shards = 0;
  if (!GetVarint(bytes, &pos, &num_shards)) {
    return Status::Corruption("truncated DJDS shard count");
  }
  // Each shard table entry is >= 10 bytes (two varints + 8-byte checksum).
  if (num_shards > (bytes.size() - pos) / 10) {
    return Status::Corruption("DJDS shard table exceeds payload");
  }
  struct ShardEntry {
    size_t row_begin = 0;
    size_t row_count = 0;
    size_t offset = 0;
    size_t length = 0;
    uint64_t checksum = 0;
  };
  std::vector<ShardEntry> shards(num_shards);
  uint64_t rows_total = 0;
  uint64_t payload_total = 0;
  for (uint64_t s = 0; s < num_shards; ++s) {
    uint64_t row_count = 0, length = 0;
    if (!GetVarint(bytes, &pos, &row_count) ||
        !GetVarint(bytes, &pos, &length) ||
        !GetU64Fixed(bytes, &pos, &shards[s].checksum)) {
      return Status::Corruption("truncated DJDS shard table");
    }
    if (length > bytes.size() || row_count > num_rows) {
      return Status::Corruption("DJDS shard entry out of range");
    }
    shards[s].row_begin = static_cast<size_t>(rows_total);
    shards[s].row_count = static_cast<size_t>(row_count);
    shards[s].length = static_cast<size_t>(length);
    rows_total += row_count;
    payload_total += length;
    if (rows_total > num_rows || payload_total > bytes.size()) {
      return Status::Corruption("DJDS shard table out of range");
    }
  }
  if (rows_total != num_rows) {
    return Status::Corruption("DJDS shard rows do not sum to header rows");
  }
  // The shard checksums only cover payloads; this one covers everything
  // before it (magic, counts, column names, shard table).
  uint64_t header_checksum = 0;
  size_t header_end = pos;
  if (!GetU64Fixed(bytes, &pos, &header_checksum)) {
    return Status::Corruption("truncated DJDS header checksum");
  }
  if (checksum_of(bytes.substr(header_begin, header_end)) !=
      header_checksum) {
    return Status::Corruption("DJDS header checksum mismatch");
  }
  if (pos + payload_total != bytes.size()) {
    return Status::Corruption("DJDS payload size mismatch");
  }
  size_t cursor = pos;
  for (auto& shard : shards) {
    shard.offset = cursor;
    cursor += shard.length;
  }

  // Every cell costs at least one tag byte: a row count beyond that is
  // corrupt, and must not drive the column allocation below.
  if (!col_names.empty() && num_rows > payload_total / col_names.size()) {
    return Status::Corruption("DJDS row count exceeds payload");
  }

  // Whole columns are allocated once; shards decode concurrently straight
  // into their own row ranges, so nothing is gathered afterwards.
  std::vector<std::vector<json::Value>> cols(col_names.size());
  for (auto& col : cols) col.resize(num_rows);
  std::vector<Status> errors(num_shards, Status::Ok());
  auto decode_range = [&](size_t begin, size_t end) {
    for (size_t s = begin; s < end; ++s) {
      std::string_view payload = bytes.substr(shards[s].offset,
                                              shards[s].length);
      if (checksum_of(payload) != shards[s].checksum) {
        errors[s] = Status::Corruption("DJDS shard checksum mismatch");
        continue;
      }
      size_t p = 0;
      Status status;
      for (size_t c = 0; c < cols.size() && status.ok(); ++c) {
        json::Value* cells = cols[c].data() + shards[s].row_begin;
        for (size_t r = 0; r < shards[s].row_count && status.ok(); ++r) {
          status = DeserializeValueAt(payload, &p, &cells[r], 0);
        }
      }
      if (status.ok() && p != payload.size()) {
        status = Status::Corruption("trailing bytes in DJDS shard");
      }
      errors[s] = std::move(status);
    }
  };
  MaybeParallelFor(pool, num_shards, decode_range);
  for (Status& s : errors) {
    if (!s.ok()) return std::move(s);
  }
  return Dataset::FromColumns(std::move(col_names), std::move(cols));
}

/// WriteFile over content held in ordered pieces; the fault points see the
/// concatenation.
Status WriteFilePieces(const std::string& path,
                       std::vector<std::string_view> pieces) {
  if (DJ_FAULT("io.write.fail")) {
    return Status::IoError("fault injected: io.write.fail on '" + path + "'");
  }
  if (DJ_FAULT("io.write.short")) {
    // Torn write: persist only a prefix and report success — the crash that
    // truncated the file is only discoverable on the read path, which is
    // exactly what the container formats must survive.
    size_t keep = 0;
    for (std::string_view piece : pieces) keep += piece.size();
    keep = keep * 2 / 3;
    for (std::string_view& piece : pieces) {
      piece = piece.substr(0, keep);
      keep -= piece.size();
    }
  }
  return WriteStringsToFile(path, pieces);
}

}  // namespace

Result<std::string> ReadFile(const std::string& path) {
  if (DJ_FAULT("io.read.fail")) {
    return Status::IoError("fault injected: io.read.fail on '" + path + "'");
  }
  auto content = ReadFileToString(path);
  if (content.ok() && !content.value().empty() &&
      DJ_FAULT("io.read.corrupt")) {
    // Simulated bit rot between write and read: flip one mid-file byte so
    // the container checksums (DJDS header/shard, djlz block) must catch it.
    std::string corrupted = std::move(content).value();
    corrupted[corrupted.size() / 2] =
        static_cast<char>(corrupted[corrupted.size() / 2] ^ 0x5A);
    return corrupted;
  }
  return content;
}

Status WriteFile(const std::string& path, std::string_view content) {
  return WriteFilePieces(path, {content});
}

Result<Dataset> ParseJsonl(std::string_view content, ThreadPool* pool) {
  DJ_OBS_SPAN("io.parse_jsonl");
  Stopwatch watch;
  const bool parallel = pool != nullptr && pool->num_threads() > 1 &&
                        content.size() >= kParallelParseThreshold;
  std::vector<JsonlChunk> chunks =
      CutJsonlChunks(content, parallel ? pool->num_threads() : 1);
  auto parse_range = [&](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) {
      if (chunks[i].bytes.size() > std::numeric_limits<uint32_t>::max()) {
        chunks[i].status = Status::Corruption(
            "a line at or after this one is over 2 GiB long, past what the "
            "32-bit structural index can address");
        chunks[i].error_line = 1;
        continue;
      }
      IndexAndParseChunk(&chunks[i]);
    }
  };
  if (parallel && chunks.size() > 1) {
    pool->ParallelFor(chunks.size(), parse_range);
    DJ_SCHED_POINT("io.parse.gather");
    introspect::Heartbeat();
  } else {
    parse_range(0, chunks.size());
  }
  // Report the earliest failing line with its absolute line number: a
  // chunk's first line follows every newline of the chunks before it.
  size_t base_line = 0;
  for (const JsonlChunk& chunk : chunks) {
    if (!chunk.status.ok()) {
      return Status::Corruption(
          "jsonl line " + std::to_string(base_line + chunk.error_line) +
          ": " + chunk.status.message());
    }
    base_line += chunk.newlines;
  }
  Dataset out = chunks.empty() ? Dataset() : std::move(chunks.front().rows);
  for (size_t i = 1; i < chunks.size(); ++i) {
    out.Concat(std::move(chunks[i].rows));
  }
  RecordIoMetrics("parse", out.NumRows(), content.size(),
                  watch.ElapsedSeconds());
  return out;
}

Result<Dataset> ParseJsonlFile(std::string_view path, std::string_view content,
                               ThreadPool* pool) {
  auto r = ParseJsonl(content, pool);
  if (!r.ok()) {
    return Status::Corruption(std::string(path) + ": " + r.status().message());
  }
  return r;
}

Result<Dataset> ReadJsonl(const std::string& path, ThreadPool* pool) {
  DJ_ASSIGN_OR_RETURN(std::string content, ReadFile(path));
  return ParseJsonlFile(path, content, pool);
}

namespace {

/// A lower bound on the compact JSON size of `v`: every string at least its
/// raw bytes plus quotes (escapes only add), every number one digit.
size_t MinJsonBytes(const json::Value& v) {
  switch (v.type()) {
    case json::Value::Type::kNull:
    case json::Value::Type::kBool:
      return 4;
    case json::Value::Type::kInt:
    case json::Value::Type::kDouble:
      return 1;
    case json::Value::Type::kString:
      return v.as_string().size() + 2;
    case json::Value::Type::kArray: {
      size_t n = 1 + v.as_array().size();
      for (const json::Value& e : v.as_array()) n += MinJsonBytes(e);
      return n;
    }
    case json::Value::Type::kObject: {
      size_t n = 1 + v.as_object().size();
      for (const auto& [key, value] : v.as_object().entries()) {
        n += key.size() + 3 + MinJsonBytes(value);
      }
      return n;
    }
  }
  return 0;
}

/// The JSONL text of `dataset` as ordered parts: one part serially, fixed
/// row-range chunks (independent of scheduling) stringified concurrently on
/// a pool. Concatenated, the parts are the same bytes either way.
std::vector<std::string> JsonlParts(const Dataset& dataset, ThreadPool* pool) {
  DJ_OBS_SPAN("io.to_jsonl");
  Stopwatch watch;
  const size_t rows = dataset.NumRows();
  // Rows are written straight from the columns: non-null cells in column
  // order, exactly what MaterializeRow would collect — minus the Object
  // copy and the per-row temporary string. Keys are escaped once up front.
  const std::vector<std::string> names = dataset.ColumnNames();
  std::vector<const std::vector<json::Value>*> cols;
  cols.reserve(names.size());
  std::vector<std::string> keys;
  keys.reserve(names.size());
  for (const std::string& name : names) {
    cols.push_back(dataset.Column(name));
    std::string key;
    json::EscapeStringTo(name, &key);
    key.push_back(':');
    keys.push_back(std::move(key));
  }
  auto stringify_rows = [&](size_t begin, size_t end, std::string* out) {
    for (size_t i = begin; i < end; ++i) {
      out->push_back('{');
      bool first = true;
      for (size_t c = 0; c < cols.size(); ++c) {
        const json::Value& v = (*cols[c])[i];
        if (v.is_null()) continue;
        if (!first) out->push_back(',');
        first = false;
        out->append(keys[c]);
        json::WriteTo(v, out);
      }
      out->push_back('}');
      out->push_back('\n');
    }
  };
  // Reserve from a sampled row-size estimate so buffers grow once, not per
  // append. A few rows spread across the dataset bound the typical size.
  size_t est_row_bytes = 2;
  if (rows > 0) {
    std::string probe;
    const size_t samples = std::min<size_t>(rows, 4);
    for (size_t s = 0; s < samples; ++s) {
      stringify_rows(s * (rows / samples), s * (rows / samples) + 1, &probe);
    }
    est_row_bytes = probe.size() / samples + 16;
  }
  const size_t chunks = pool == nullptr || pool->num_threads() <= 1 || rows < 2
                            ? 1
                            : std::min(rows, pool->num_threads() * 4);
  const size_t per = (rows + chunks - 1) / chunks;
  std::vector<std::string> parts(chunks);
  auto stringify_chunks = [&](size_t begin, size_t end) {
    for (size_t c = begin; c < end; ++c) {
      const size_t row_begin = std::min(rows, c * per);
      const size_t row_end = std::min(rows, (c + 1) * per);
      // The sampled estimate can overstate a part, so huge pages cover only
      // the bytes a lower bound guarantees will be written.
      size_t min_bytes = 0;
      for (size_t i = row_begin; i < row_end; ++i) {
        min_bytes += 3;  // '{', '}', '\n'
        for (size_t k = 0; k < cols.size(); ++k) {
          const json::Value& v = (*cols[k])[i];
          if (!v.is_null()) min_bytes += keys[k].size() + MinJsonBytes(v);
        }
      }
      ReserveLarge(&parts[c],
                   std::max(est_row_bytes * (row_end - row_begin) + 64,
                            min_bytes),
                   min_bytes);
      stringify_rows(row_begin, row_end, &parts[c]);
    }
  };
  if (chunks > 1) {
    pool->ParallelFor(chunks, stringify_chunks);
    DJ_SCHED_POINT("io.to_jsonl.gather");
    introspect::Heartbeat();
  } else {
    stringify_chunks(0, chunks);
  }
  size_t total = 0;
  for (const std::string& p : parts) total += p.size();
  RecordIoMetrics("to_jsonl", rows, total, watch.ElapsedSeconds());
  return parts;
}

}  // namespace

std::string ToJsonl(const Dataset& dataset, ThreadPool* pool) {
  std::vector<std::string> parts = JsonlParts(dataset, pool);
  if (parts.size() == 1) return std::move(parts.front());
  size_t total = 0;
  for (const std::string& p : parts) total += p.size();
  std::string out;
  out.reserve(total);
  for (const std::string& p : parts) out += p;
  return out;
}

Status WriteJsonl(const Dataset& dataset, const std::string& path,
                  ThreadPool* pool) {
  const std::vector<std::string> parts = JsonlParts(dataset, pool);
  return WriteFilePieces(path, {parts.begin(), parts.end()});
}

void SerializeValue(const json::Value& v, std::string* out) {
  StringSink sink(out);
  EncodeValue(v, &sink);
}

Result<json::Value> DeserializeValue(std::string_view bytes) {
  size_t pos = 0;
  json::Value v;
  DJ_RETURN_IF_ERROR(DeserializeValueAt(bytes, &pos, &v, 0));
  if (pos != bytes.size()) {
    return Status::Corruption("trailing bytes after value");
  }
  return v;
}

std::string SerializeDataset(const Dataset& dataset, ThreadPool* pool,
                             size_t num_shards) {
  DJ_OBS_SPAN("io.serialize_dataset");
  Stopwatch watch;
  const size_t num_rows = dataset.NumRows();
  if (num_shards == 0) {
    num_shards = AutoShardCount(num_rows);
  } else {
    num_shards = std::max<size_t>(std::min(num_shards, num_rows),
                                  num_rows == 0 ? 0 : 1);
  }
  std::vector<std::string> names = dataset.ColumnNames();
  // Even row partition: shard i covers base + (i < rem ? 1 : 0) rows.
  const size_t base = num_shards == 0 ? 0 : num_rows / num_shards;
  const size_t rem = num_shards == 0 ? 0 : num_rows % num_shards;
  std::vector<size_t> row_begin(num_shards + 1, 0);
  for (size_t s = 0; s < num_shards; ++s) {
    row_begin[s + 1] = row_begin[s] + base + (s < rem ? 1 : 0);
  }
  std::vector<const std::vector<json::Value>*> cols;
  cols.reserve(names.size());
  for (const std::string& name : names) cols.push_back(dataset.Column(name));
  auto encode_shard = [&](size_t s, auto* sink) {
    for (const auto* cells : cols) {
      for (size_t r = row_begin[s]; r < row_begin[s + 1]; ++r) {
        EncodeValue((*cells)[r], sink);
      }
    }
  };
  // Pass 1: the exact encoded size of every shard.
  std::vector<ShardEntry> shards(num_shards);
  MaybeParallelFor(pool, num_shards, [&](size_t begin, size_t end) {
    for (size_t s = begin; s < end; ++s) {
      CountingSink counter;
      encode_shard(s, &counter);
      shards[s].rows = row_begin[s + 1] - row_begin[s];
      shards[s].length = counter.size();
    }
  });
  CountingSink header;
  EncodeHeader(num_rows, names, shards, &header);
  std::vector<size_t> offsets(num_shards);
  size_t total = header.size() + 8;  // + header checksum
  for (size_t s = 0; s < num_shards; ++s) {
    offsets[s] = total;
    total += shards[s].length;
  }
  // Pass 2: one allocation at the final size; each shard is encoded at its
  // own offset and hashed where it lies, so nothing is gathered or copied.
  std::string out;
  ReserveLarge(&out, total);
  out.resize(total);
  MaybeParallelFor(pool, num_shards, [&](size_t begin, size_t end) {
    for (size_t s = begin; s < end; ++s) {
      BufferSink sink(out.data() + offsets[s]);
      encode_shard(s, &sink);
      shards[s].checksum =
          swar::Hash64(out.data() + offsets[s], shards[s].length);
    }
  });
  // The header goes last: its shard table carries the checksums, and its
  // own checksum covers everything before it.
  BufferSink head(out.data());
  EncodeHeader(num_rows, names, shards, &head);
  PutU64Fixed(swar::Hash64(out.data(), header.size()), &head);
  RecordIoMetrics("serialize", num_rows, out.size(), watch.ElapsedSeconds());
  return out;
}

Result<Dataset> DeserializeDataset(std::string_view bytes, ThreadPool* pool) {
  DJ_OBS_SPAN("io.deserialize_dataset");
  Stopwatch watch;
  if (bytes.size() < 5 || std::memcmp(bytes.data(), kDatasetMagic, 4) != 0) {
    return Status::Corruption("not a DJDS dataset blob");
  }
  if (static_cast<uint8_t>(bytes[4]) != kDatasetVersion) {
    return Status::Corruption("unsupported DJDS version");
  }
  Result<Dataset> out = DeserializeShardedDataset(bytes, pool);
  if (out.ok()) {
    RecordIoMetrics("deserialize", out.value().NumRows(), bytes.size(),
                    watch.ElapsedSeconds());
  }
  return out;
}

Status ExportDataset(const Dataset& dataset, const std::string& path,
                     ThreadPool* pool) {
  if (EndsWith(path, ".jsonl")) return WriteJsonl(dataset, path, pool);
  if (EndsWith(path, ".djds.djlz")) {
    return WriteFile(
        path, compress::CompressFrame(SerializeDataset(dataset, pool), pool));
  }
  if (EndsWith(path, ".djds")) {
    return WriteFile(path, SerializeDataset(dataset, pool));
  }
  return Status::InvalidArgument(
      "unsupported export suffix for '" + path +
      "' (use .jsonl, .djds, or .djds.djlz)");
}

Result<Dataset> DecodeImport(std::string_view path, std::string_view bytes,
                             ThreadPool* pool) {
  if (EndsWith(path, ".jsonl")) return ParseJsonlFile(path, bytes, pool);
  if (EndsWith(path, ".djds.djlz")) {
    DJ_ASSIGN_OR_RETURN(std::string blob,
                        compress::DecompressFrame(bytes, pool));
    return DeserializeDataset(blob, pool);
  }
  if (EndsWith(path, ".djds")) return DeserializeDataset(bytes, pool);
  return Status::InvalidArgument(
      "unsupported import suffix for '" + std::string(path) +
      "' (use .jsonl, .djds, or .djds.djlz)");
}

Result<Dataset> ImportDataset(const std::string& path, ThreadPool* pool) {
  if (!EndsWith(path, ".jsonl") && !EndsWith(path, ".djds") &&
      !EndsWith(path, ".djds.djlz")) {
    return DecodeImport(path, {}, pool);  // the unsupported-suffix error
  }
  DJ_ASSIGN_OR_RETURN(std::string bytes, ReadFile(path));
  return DecodeImport(path, bytes, pool);
}

}  // namespace dj::data
