#ifndef DJ_TEXT_UTF8_H_
#define DJ_TEXT_UTF8_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace dj::text {

namespace internal {
/// The multi-byte, malformed and end-of-input cases of DecodeUtf8.
bool DecodeUtf8Slow(std::string_view s, size_t* pos, uint32_t* codepoint);
}  // namespace internal

/// Decodes the UTF-8 sequence starting at `s[pos]`. On success writes the
/// codepoint and advances `pos`; on malformed input writes U+FFFD, advances
/// by one byte, and returns false. The one-byte (ASCII) case is inline so
/// per-codepoint loops over mostly-ASCII text make no call.
inline bool DecodeUtf8(std::string_view s, size_t* pos, uint32_t* codepoint) {
  if (*pos < s.size()) {
    const auto b0 = static_cast<uint8_t>(s[*pos]);
    if (b0 < 0x80) {
      *codepoint = b0;
      ++*pos;
      return true;
    }
  }
  return internal::DecodeUtf8Slow(s, pos, codepoint);
}

/// Appends the UTF-8 encoding of `codepoint` to `out`.
void EncodeUtf8(uint32_t codepoint, std::string* out);

/// Number of codepoints in `s` (malformed bytes count as one each).
size_t CodepointCount(std::string_view s);

/// True if `s` is entirely well-formed UTF-8.
bool IsValidUtf8(std::string_view s);

/// Decodes all codepoints (malformed bytes become U+FFFD).
std::vector<uint32_t> DecodeAll(std::string_view s);

// Codepoint class predicates used by OPs.

/// CJK unified ideographs + extensions.
inline bool IsCjk(uint32_t cp) {
  return (cp >= 0x4E00 && cp <= 0x9FFF) ||    // CJK Unified
         (cp >= 0x3400 && cp <= 0x4DBF) ||    // Extension A
         (cp >= 0xF900 && cp <= 0xFAFF) ||    // Compatibility
         (cp >= 0x20000 && cp <= 0x2A6DF) ||  // Extension B
         (cp >= 0x3040 && cp <= 0x30FF) ||    // Hiragana/Katakana
         (cp >= 0xAC00 && cp <= 0xD7AF);      // Hangul syllables
}

inline bool IsAsciiAlpha(uint32_t cp) {
  return (cp >= 'a' && cp <= 'z') || (cp >= 'A' && cp <= 'Z');
}

inline bool IsAsciiDigit(uint32_t cp) { return cp >= '0' && cp <= '9'; }

inline bool IsAsciiAlnum(uint32_t cp) {
  return IsAsciiAlpha(cp) || IsAsciiDigit(cp);
}

/// ASCII whitespace + NBSP + ideographic.
inline bool IsWhitespaceCp(uint32_t cp) {
  return cp == ' ' || cp == '\t' || cp == '\n' || cp == '\r' || cp == '\f' ||
         cp == '\v' || cp == 0x00A0 || cp == 0x3000 ||
         (cp >= 0x2000 && cp <= 0x200B);
}

bool IsPunctuationCp(uint32_t cp);     ///< ASCII punctuation + common unicode.
bool IsEmojiLike(uint32_t cp);         ///< Misc symbols / emoji blocks.

}  // namespace dj::text

#endif  // DJ_TEXT_UTF8_H_
