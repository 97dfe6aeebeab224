#ifndef DJ_COMMON_SWAR_H_
#define DJ_COMMON_SWAR_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace dj::swar {

/// Dispatch level of the data-plane kernels. Kernels come in pairs: a
/// byte-at-a-time scalar twin (the reference semantics) and an accelerated
/// body — portable 8-bytes-at-a-time SWAR, or 16-bytes-at-a-time SSE2
/// where the compiler targets x86-64. Every accelerated kernel is required to
/// be byte-identical to its scalar twin (tests/swar_test.cc enforces this
/// differentially); the level only changes speed, never bytes.
enum class Level : int {
  kScalar = 0,  ///< byte loops (DJ_FORCE_SCALAR, or differential baseline)
  kSwar = 1,    ///< 64-bit SWAR words, portable C++
  kSse2 = 2,    ///< 128-bit SSE2 (any x86-64)
};

/// Human-readable level name ("scalar", "swar", "sse2").
const char* LevelName(Level level);

/// Highest level this binary was compiled with.
Level CompiledLevel();

/// The level kernels currently dispatch to. Resolved once from the
/// environment: DJ_FORCE_SCALAR=1 pins kScalar; otherwise CompiledLevel().
Level ActiveLevel();

/// Numeric ActiveLevel() for the `simd.kernel` metrics gauge.
inline double ActiveLevelMetric() { return static_cast<double>(ActiveLevel()); }

/// Test hook: pins the dispatch level for the current scope (process-wide;
/// not for use while other threads run kernels). Restores on destruction.
class ScopedLevel {
 public:
  explicit ScopedLevel(Level level);
  ~ScopedLevel();
  ScopedLevel(const ScopedLevel&) = delete;
  ScopedLevel& operator=(const ScopedLevel&) = delete;

 private:
  int saved_;
};

// ---------------------------------------------------------------- kernels --
// Each kernel dispatches on ActiveLevel(); the scalar twins live in
// swar::scalar for direct differential testing.

/// Appends the positions (relative to `data`) of every '\n' to `*newlines`
/// and of every '"' or '\\' to `*quotes_escapes`, in ascending order. This
/// is stage 1 of the two-stage JSONL parse: one pass over the buffer finds
/// every byte the field extractor needs to look at.
void StructuralScan(const char* data, size_t n,
                    std::vector<uint32_t>* newlines,
                    std::vector<uint32_t>* quotes_escapes);

/// Number of occurrences of `b` in [data, data+n).
size_t CountByte(const char* data, size_t n, char b);

/// Index of the first occurrence of `b`, or `n` when absent.
size_t FindByte(const char* data, size_t n, char b);

/// Length of the longest common prefix of `a` and `b`, at most `max`.
/// Word-at-a-time XOR + count-trailing-zeros instead of a byte compare.
size_t MatchLength(const uint8_t* a, const uint8_t* b, size_t max);

/// Length of the longest prefix of [data, data+n) in which no byte needs
/// JSON string escaping (byte >= 0x20, not '"', not '\\'). Such spans are
/// appended to serializer output in one memcpy.
size_t JsonCleanSpan(const char* data, size_t n);

/// Writes `len` bytes at `dst`, copied from `offset` bytes before it (LZ77
/// match copy). Overlap-safe: offset < len is legal and replicates the
/// trailing pattern, byte-semantics identical to a forward byte-by-byte
/// copy. Writes exactly [dst, dst + len). Requires offset >= 1 and
/// [dst - offset, dst) readable.
void CopyMatch(char* dst, size_t offset, size_t len);

/// Word-at-a-time 64-bit checksum (multiply-xor over little-endian 8-byte
/// lanes, zero-padded tail, final avalanche). Roughly 4x the throughput of
/// the byte-serial FNV-1a it replaces in the v3 container/frame formats.
/// The value is defined by the lane math, not the dispatch level: every
/// level — including the byte-assembled scalar twin — produces the same
/// digest for the same bytes, so checksums written by one build verify
/// under any other.
uint64_t Hash64(const char* data, size_t n);
inline uint64_t Hash64(const std::string& s) {
  return Hash64(s.data(), s.size());
}

namespace scalar {
// Byte-at-a-time reference twins. Same contracts as the dispatching
// versions above; used directly by tests and as the kScalar bodies.
void StructuralScan(const char* data, size_t n,
                    std::vector<uint32_t>* newlines,
                    std::vector<uint32_t>* quotes_escapes);
size_t CountByte(const char* data, size_t n, char b);
size_t FindByte(const char* data, size_t n, char b);
size_t MatchLength(const uint8_t* a, const uint8_t* b, size_t max);
size_t JsonCleanSpan(const char* data, size_t n);
void CopyMatch(char* dst, size_t offset, size_t len);
uint64_t Hash64(const char* data, size_t n);
}  // namespace scalar

}  // namespace dj::swar

#endif  // DJ_COMMON_SWAR_H_
