#include "common/swar.h"

#include <atomic>
#include <bit>
#include <cstdlib>
#include <cstring>

#if defined(__SSE2__) || defined(__x86_64__) || defined(_M_X64)
#define DJ_SWAR_HAVE_SSE2 1
#include <emmintrin.h>
#endif

namespace dj::swar {
namespace {

constexpr uint64_t kOnes = 0x0101010101010101ULL;
constexpr uint64_t kHigh = 0x8080808080808080ULL;

inline uint64_t LoadWord(const char* p) {
  uint64_t w;
  std::memcpy(&w, p, 8);
  return w;
}

/// Exact per-byte zero mask: 0x80 in every byte of `x` that is zero, 0
/// elsewhere. The classic `(x - kOnes) & ~x & kHigh` has false positives in
/// bytes above a true zero (the subtraction borrows across bytes); this
/// variant sets every byte's high bit before subtracting so borrows never
/// cross, making the mask safe to iterate bit-by-bit.
inline uint64_t ZeroByteMask(uint64_t x) {
  return ~(x | ((x | kHigh) - kOnes)) & kHigh;
}

/// 0x80 in every byte of `w` equal to `b`.
inline uint64_t ByteMatchMask(uint64_t w, uint8_t b) {
  return ZeroByteMask(w ^ (kOnes * b));
}

/// 0x80 in every byte of `w` below 0x20 (byte < 0x20 iff its top three bits
/// are all zero).
inline uint64_t ControlByteMask(uint64_t w) {
  return ZeroByteMask(w & 0xE0E0E0E0E0E0E0E0ULL);
}

Level DetectCompiledLevel() {
#if defined(DJ_SWAR_HAVE_SSE2)
  return Level::kSse2;
#else
  return Level::kSwar;
#endif
}

Level ResolveLevel() {
  // The SWAR position math (count-trailing-zeros / 8) assumes little-endian
  // byte order; every supported target is little-endian, but a big-endian
  // build silently degrades to the scalar twins rather than mis-indexing.
  if constexpr (std::endian::native != std::endian::little) {
    return Level::kScalar;
  }
  const char* force = std::getenv("DJ_FORCE_SCALAR");
  if (force != nullptr && *force != '\0' && std::strcmp(force, "0") != 0) {
    return Level::kScalar;
  }
  return DetectCompiledLevel();
}

std::atomic<int> g_level{-1};

#if defined(DJ_SWAR_HAVE_SSE2)
/// 16-bit mask with bit i set when pred matches data[i].
inline int Sse2MoveMask(__m128i m) { return _mm_movemask_epi8(m); }
#endif

// ------------------------------------------------------- SWAR kernel bodies

void StructuralScanSwar(const char* data, size_t n,
                        std::vector<uint32_t>* newlines,
                        std::vector<uint32_t>* quotes_escapes) {
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    uint64_t w = LoadWord(data + i);
    uint64_t nl = ByteMatchMask(w, '\n');
    uint64_t qe = ByteMatchMask(w, '"') | ByteMatchMask(w, '\\');
    while (nl != 0) {
      newlines->push_back(
          static_cast<uint32_t>(i + (std::countr_zero(nl) >> 3)));
      nl &= nl - 1;
    }
    while (qe != 0) {
      quotes_escapes->push_back(
          static_cast<uint32_t>(i + (std::countr_zero(qe) >> 3)));
      qe &= qe - 1;
    }
  }
  for (; i < n; ++i) {
    char c = data[i];
    if (c == '\n') {
      newlines->push_back(static_cast<uint32_t>(i));
    } else if (c == '"' || c == '\\') {
      quotes_escapes->push_back(static_cast<uint32_t>(i));
    }
  }
}

size_t CountByteSwar(const char* data, size_t n, char b) {
  size_t count = 0;
  size_t i = 0;
  const auto ub = static_cast<uint8_t>(b);
  for (; i + 8 <= n; i += 8) {
    count += static_cast<size_t>(
        std::popcount(ByteMatchMask(LoadWord(data + i), ub)));
  }
  for (; i < n; ++i) count += data[i] == b ? 1 : 0;
  return count;
}

size_t FindByteSwar(const char* data, size_t n, char b) {
  size_t i = 0;
  const auto ub = static_cast<uint8_t>(b);
  for (; i + 8 <= n; i += 8) {
    uint64_t m = ByteMatchMask(LoadWord(data + i), ub);
    if (m != 0) return i + (std::countr_zero(m) >> 3);
  }
  for (; i < n; ++i) {
    if (data[i] == b) return i;
  }
  return n;
}

size_t MatchLengthWords(const uint8_t* a, const uint8_t* b, size_t max) {
  size_t i = 0;
  for (; i + 8 <= max; i += 8) {
    uint64_t wa = LoadWord(reinterpret_cast<const char*>(a) + i);
    uint64_t wb = LoadWord(reinterpret_cast<const char*>(b) + i);
    uint64_t x = wa ^ wb;
    if (x != 0) return i + (std::countr_zero(x) >> 3);
  }
  for (; i < max; ++i) {
    if (a[i] != b[i]) return i;
  }
  return max;
}

size_t JsonCleanSpanSwar(const char* data, size_t n) {
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    uint64_t w = LoadWord(data + i);
    uint64_t bad = ControlByteMask(w) | ByteMatchMask(w, '"') |
                   ByteMatchMask(w, '\\');
    if (bad != 0) return i + (std::countr_zero(bad) >> 3);
  }
  for (; i < n; ++i) {
    unsigned char c = static_cast<unsigned char>(data[i]);
    if (c < 0x20 || c == '"' || c == '\\') return i;
  }
  return n;
}

// ------------------------------------------------------- SSE2 kernel bodies

#if defined(DJ_SWAR_HAVE_SSE2)
void StructuralScanSse2(const char* data, size_t n,
                        std::vector<uint32_t>* newlines,
                        std::vector<uint32_t>* quotes_escapes) {
  const __m128i quote = _mm_set1_epi8('"');
  const __m128i backslash = _mm_set1_epi8('\\');
  const __m128i newline = _mm_set1_epi8('\n');
  size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    __m128i v = _mm_loadu_si128(reinterpret_cast<const __m128i*>(data + i));
    int nl = Sse2MoveMask(_mm_cmpeq_epi8(v, newline));
    int qe = Sse2MoveMask(_mm_or_si128(_mm_cmpeq_epi8(v, quote),
                                       _mm_cmpeq_epi8(v, backslash)));
    while (nl != 0) {
      newlines->push_back(static_cast<uint32_t>(
          i + static_cast<size_t>(std::countr_zero(
                  static_cast<unsigned>(nl)))));
      nl &= nl - 1;
    }
    while (qe != 0) {
      quotes_escapes->push_back(static_cast<uint32_t>(
          i + static_cast<size_t>(std::countr_zero(
                  static_cast<unsigned>(qe)))));
      qe &= qe - 1;
    }
  }
  for (; i < n; ++i) {
    char c = data[i];
    if (c == '\n') {
      newlines->push_back(static_cast<uint32_t>(i));
    } else if (c == '"' || c == '\\') {
      quotes_escapes->push_back(static_cast<uint32_t>(i));
    }
  }
}

size_t CountByteSse2(const char* data, size_t n, char b) {
  const __m128i needle = _mm_set1_epi8(b);
  size_t count = 0;
  size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    __m128i v = _mm_loadu_si128(reinterpret_cast<const __m128i*>(data + i));
    count += static_cast<size_t>(
        std::popcount(static_cast<unsigned>(
            Sse2MoveMask(_mm_cmpeq_epi8(v, needle)))));
  }
  for (; i < n; ++i) count += data[i] == b ? 1 : 0;
  return count;
}

size_t FindByteSse2(const char* data, size_t n, char b) {
  const __m128i needle = _mm_set1_epi8(b);
  size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    __m128i v = _mm_loadu_si128(reinterpret_cast<const __m128i*>(data + i));
    int m = Sse2MoveMask(_mm_cmpeq_epi8(v, needle));
    if (m != 0) {
      return i + static_cast<size_t>(
                     std::countr_zero(static_cast<unsigned>(m)));
    }
  }
  for (; i < n; ++i) {
    if (data[i] == b) return i;
  }
  return n;
}

size_t JsonCleanSpanSse2(const char* data, size_t n) {
  const __m128i quote = _mm_set1_epi8('"');
  const __m128i backslash = _mm_set1_epi8('\\');
  const __m128i space = _mm_set1_epi8(0x20);
  size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    __m128i v = _mm_loadu_si128(reinterpret_cast<const __m128i*>(data + i));
    // v >= 0x20 (unsigned) iff max_epu8(v, 0x20) == v; invert for controls.
    __m128i printable = _mm_cmpeq_epi8(_mm_max_epu8(v, space), v);
    __m128i bad = _mm_or_si128(_mm_cmpeq_epi8(v, quote),
                               _mm_cmpeq_epi8(v, backslash));
    int m = Sse2MoveMask(bad) | (~Sse2MoveMask(printable) & 0xFFFF);
    if (m != 0) {
      return i + static_cast<size_t>(
                     std::countr_zero(static_cast<unsigned>(m)));
    }
  }
  for (; i < n; ++i) {
    unsigned char c = static_cast<unsigned char>(data[i]);
    if (c < 0x20 || c == '"' || c == '\\') return i;
  }
  return n;
}
#endif  // DJ_SWAR_HAVE_SSE2

constexpr uint64_t kHashMul1 = 0x9E3779B185EBCA87ULL;
constexpr uint64_t kHashMul2 = 0xC2B2AE3D27D4EB4FULL;
constexpr uint64_t kHashSeed = 0x84222325CBF29CE4ULL;

inline uint64_t Hash64Lane(uint64_t h, uint64_t w) {
  return (h ^ (w * kHashMul1)) * kHashMul2;
}

inline uint64_t Hash64Finish(uint64_t h) {
  h ^= h >> 32;
  h *= kHashMul1;
  h ^= h >> 29;
  return h;
}

/// Four independent accumulators, 8-byte lane i feeding stripe i mod 4.
/// A single multiply-xor chain is latency-bound (~6 cycles per 8 bytes);
/// four interleaved chains overlap those latencies and run near load
/// throughput. The stripe fold at the end reuses the lane step so the
/// digest stays sensitive to stripe order.
uint64_t Hash64Words(const char* data, size_t n) {
  uint64_t h0 = (kHashSeed + 0 * kHashMul2) ^
                (static_cast<uint64_t>(n) * kHashMul1);
  uint64_t h1 = (kHashSeed + 1 * kHashMul2) ^
                (static_cast<uint64_t>(n) * kHashMul1);
  uint64_t h2 = (kHashSeed + 2 * kHashMul2) ^
                (static_cast<uint64_t>(n) * kHashMul1);
  uint64_t h3 = (kHashSeed + 3 * kHashMul2) ^
                (static_cast<uint64_t>(n) * kHashMul1);
  size_t i = 0;
  for (; i + 32 <= n; i += 32) {
    h0 = Hash64Lane(h0, LoadWord(data + i));
    h1 = Hash64Lane(h1, LoadWord(data + i + 8));
    h2 = Hash64Lane(h2, LoadWord(data + i + 16));
    h3 = Hash64Lane(h3, LoadWord(data + i + 24));
  }
  uint64_t* stripes[4] = {&h0, &h1, &h2, &h3};
  size_t lane = 0;
  for (; i + 8 <= n; i += 8, ++lane) {
    *stripes[lane & 3] = Hash64Lane(*stripes[lane & 3], LoadWord(data + i));
  }
  if (i < n) {
    uint64_t w = 0;
    std::memcpy(&w, data + i, n - i);
    *stripes[lane & 3] = Hash64Lane(*stripes[lane & 3], w);
  }
  uint64_t h = Hash64Lane(Hash64Lane(Hash64Lane(h0, h1), h2), h3);
  return Hash64Finish(h);
}

/// Accelerated match-copy body shared by every non-scalar level: word-wise
/// when source and destination are at least a word apart, byte-wise for the
/// short overlapping distances (which replicate runs). Never touches a byte
/// past dst + len.
void CopyMatchWords(char* dst, size_t offset, size_t len) {
  const char* src = dst - offset;
  if (offset >= 8) {
    size_t i = 0;
    for (; i + 8 <= len; i += 8) {
      uint64_t w;
      std::memcpy(&w, src + i, 8);
      std::memcpy(dst + i, &w, 8);
    }
    for (; i < len; ++i) dst[i] = src[i];
  } else {
    for (size_t i = 0; i < len; ++i) dst[i] = src[i];
  }
}

}  // namespace

const char* LevelName(Level level) {
  switch (level) {
    case Level::kScalar:
      return "scalar";
    case Level::kSwar:
      return "swar";
    case Level::kSse2:
      return "sse2";
  }
  return "?";
}

Level CompiledLevel() { return DetectCompiledLevel(); }

Level ActiveLevel() {
  int level = g_level.load(std::memory_order_relaxed);
  if (level < 0) {
    level = static_cast<int>(ResolveLevel());
    g_level.store(level, std::memory_order_relaxed);
  }
  return static_cast<Level>(level);
}

ScopedLevel::ScopedLevel(Level level) {
  saved_ = static_cast<int>(ActiveLevel());
  g_level.store(static_cast<int>(level), std::memory_order_relaxed);
}

ScopedLevel::~ScopedLevel() {
  g_level.store(saved_, std::memory_order_relaxed);
}

void StructuralScan(const char* data, size_t n,
                    std::vector<uint32_t>* newlines,
                    std::vector<uint32_t>* quotes_escapes) {
  switch (ActiveLevel()) {
    case Level::kScalar:
      return scalar::StructuralScan(data, n, newlines, quotes_escapes);
#if defined(DJ_SWAR_HAVE_SSE2)
    case Level::kSse2:
      return StructuralScanSse2(data, n, newlines, quotes_escapes);
#endif
    default:
      return StructuralScanSwar(data, n, newlines, quotes_escapes);
  }
}

size_t CountByte(const char* data, size_t n, char b) {
  switch (ActiveLevel()) {
    case Level::kScalar:
      return scalar::CountByte(data, n, b);
#if defined(DJ_SWAR_HAVE_SSE2)
    case Level::kSse2:
      return CountByteSse2(data, n, b);
#endif
    default:
      return CountByteSwar(data, n, b);
  }
}

size_t FindByte(const char* data, size_t n, char b) {
  switch (ActiveLevel()) {
    case Level::kScalar:
      return scalar::FindByte(data, n, b);
#if defined(DJ_SWAR_HAVE_SSE2)
    case Level::kSse2:
      return FindByteSse2(data, n, b);
#endif
    default:
      return FindByteSwar(data, n, b);
  }
}

size_t MatchLength(const uint8_t* a, const uint8_t* b, size_t max) {
  if (ActiveLevel() == Level::kScalar) return scalar::MatchLength(a, b, max);
  return MatchLengthWords(a, b, max);
}

size_t JsonCleanSpan(const char* data, size_t n) {
  switch (ActiveLevel()) {
    case Level::kScalar:
      return scalar::JsonCleanSpan(data, n);
#if defined(DJ_SWAR_HAVE_SSE2)
    case Level::kSse2:
      return JsonCleanSpanSse2(data, n);
#endif
    default:
      return JsonCleanSpanSwar(data, n);
  }
}

void CopyMatch(char* dst, size_t offset, size_t len) {
  if (ActiveLevel() == Level::kScalar) {
    return scalar::CopyMatch(dst, offset, len);
  }
  CopyMatchWords(dst, offset, len);
}

uint64_t Hash64(const char* data, size_t n) {
  if (ActiveLevel() == Level::kScalar) return scalar::Hash64(data, n);
  return Hash64Words(data, n);
}

namespace scalar {

void StructuralScan(const char* data, size_t n,
                    std::vector<uint32_t>* newlines,
                    std::vector<uint32_t>* quotes_escapes) {
  for (size_t i = 0; i < n; ++i) {
    char c = data[i];
    if (c == '\n') {
      newlines->push_back(static_cast<uint32_t>(i));
    } else if (c == '"' || c == '\\') {
      quotes_escapes->push_back(static_cast<uint32_t>(i));
    }
  }
}

size_t CountByte(const char* data, size_t n, char b) {
  size_t count = 0;
  for (size_t i = 0; i < n; ++i) count += data[i] == b ? 1 : 0;
  return count;
}

size_t FindByte(const char* data, size_t n, char b) {
  for (size_t i = 0; i < n; ++i) {
    if (data[i] == b) return i;
  }
  return n;
}

size_t MatchLength(const uint8_t* a, const uint8_t* b, size_t max) {
  size_t i = 0;
  while (i < max && a[i] == b[i]) ++i;
  return i;
}

size_t JsonCleanSpan(const char* data, size_t n) {
  for (size_t i = 0; i < n; ++i) {
    unsigned char c = static_cast<unsigned char>(data[i]);
    if (c < 0x20 || c == '"' || c == '\\') return i;
  }
  return n;
}

void CopyMatch(char* dst, size_t offset, size_t len) {
  for (size_t i = 0; i < len; ++i) dst[i] = dst[i - offset];
}

uint64_t Hash64(const char* data, size_t n) {
  // Assembles each little-endian lane a byte at a time so the digest matches
  // the word-wise body on any host byte order. Lane i feeds stripe i mod 4,
  // exactly as in the accelerated body.
  uint64_t stripes[4];
  for (uint64_t j = 0; j < 4; ++j) {
    stripes[j] = (kHashSeed + j * kHashMul2) ^
                 (static_cast<uint64_t>(n) * kHashMul1);
  }
  size_t lane = 0;
  for (size_t i = 0; i < n; i += 8, ++lane) {
    uint64_t w = 0;
    size_t lane_bytes = n - i < 8 ? n - i : 8;
    for (size_t j = 0; j < lane_bytes; ++j) {
      w |= static_cast<uint64_t>(static_cast<unsigned char>(data[i + j]))
           << (8 * j);
    }
    stripes[lane & 3] = Hash64Lane(stripes[lane & 3], w);
  }
  uint64_t h = Hash64Lane(
      Hash64Lane(Hash64Lane(stripes[0], stripes[1]), stripes[2]), stripes[3]);
  return Hash64Finish(h);
}

}  // namespace scalar
}  // namespace dj::swar
