#include "text/tokenizer.h"

#include <algorithm>
#include <cctype>

#include "common/hash.h"
#include "common/string_util.h"
#include "text/utf8.h"

namespace dj::text {
namespace {

bool IsWordCp(uint32_t cp) {
  if (IsAsciiAlnum(cp) || cp == '\'') return true;
  // Latin-1 and Latin Extended letters.
  if (cp >= 0x00C0 && cp <= 0x024F && cp != 0x00D7 && cp != 0x00F7) {
    return true;
  }
  // Greek / Cyrillic letters.
  if (cp >= 0x0370 && cp <= 0x04FF) return true;
  return false;
}

/// Calls `emit(word)` for every word token of `s`, in order. A word is a
/// run of word codepoints, always contiguous in `s`, so tokens are views
/// into it.
template <typename Emit>
void ForEachWord(std::string_view s, Emit&& emit) {
  constexpr size_t kNoWord = std::string_view::npos;
  size_t word_start = kNoWord;
  size_t pos = 0;
  while (pos < s.size()) {
    size_t start = pos;
    uint32_t cp;
    DecodeUtf8(s, &pos, &cp);
    if (IsWordCp(cp)) {  // never CJK: word codepoints end at U+04FF
      if (word_start == kNoWord) word_start = start;
      continue;
    }
    if (word_start != kNoWord) {
      emit(s.substr(word_start, start - word_start));
      word_start = kNoWord;
    }
    if (IsCjk(cp)) emit(s.substr(start, pos - start));
  }
  if (word_start != kNoWord) emit(s.substr(word_start));
}

}  // namespace

std::vector<std::string_view> WordViews(std::string_view s) {
  std::vector<std::string_view> out;
  ForEachWord(s, [&](std::string_view w) { out.push_back(w); });
  return out;
}

std::vector<std::string> TokenizeWords(std::string_view s) {
  std::vector<std::string> out;
  ForEachWord(s, [&](std::string_view w) { out.emplace_back(w); });
  return out;
}

std::vector<std::string> TokenizeWordsLower(std::string_view s) {
  std::vector<std::string> out = TokenizeWords(s);
  for (std::string& w : out) {
    for (char& c : w) c = AsciiLower(c);
  }
  return out;
}

uint64_t LowerWordHash(std::string_view word) {
  // Fnv1a64 streams: hashing the folded bytes a chunk at a time, seeding
  // each chunk with the hash so far, equals hashing the whole folded word.
  char chunk[64];
  uint64_t h = Fnv1a64(std::string_view());
  while (!word.empty()) {
    size_t n = std::min(word.size(), sizeof(chunk));
    for (size_t i = 0; i < n; ++i) chunk[i] = AsciiLower(word[i]);
    h = Fnv1a64(std::string_view(chunk, n), h);
    word.remove_prefix(n);
  }
  return h;
}

std::vector<uint64_t> WordHashes(std::string_view s, bool lowercase) {
  std::vector<uint64_t> out;
  ForEachWord(s, [&](std::string_view w) {
    out.push_back(lowercase ? LowerWordHash(w) : Fnv1a64(w));
  });
  return out;
}

std::vector<std::string> TokenizeWhitespace(std::string_view s) {
  std::vector<std::string> out;
  size_t i = 0;
  while (i < s.size()) {
    while (i < s.size() && std::isspace(static_cast<unsigned char>(s[i]))) ++i;
    size_t start = i;
    while (i < s.size() && !std::isspace(static_cast<unsigned char>(s[i]))) ++i;
    if (i > start) out.emplace_back(s.substr(start, i - start));
  }
  return out;
}

size_t CountWords(std::string_view s) {
  size_t count = 0;
  ForEachWord(s, [&](std::string_view) { ++count; });
  return count;
}

size_t ApproxLlmTokenCount(std::string_view s) {
  // Words plus punctuation marks; long words contribute extra subword
  // pieces (~1 per 6 chars beyond the first 6), approximating BPE growth.
  size_t tokens = 0;
  size_t pos = 0;
  size_t word_len = 0;
  while (pos < s.size()) {
    uint32_t cp;
    DecodeUtf8(s, &pos, &cp);
    if (IsWordCp(cp)) {
      ++word_len;
    } else {
      if (word_len > 0) {
        tokens += 1 + (word_len > 6 ? (word_len - 1) / 6 : 0);
        word_len = 0;
      }
      if (IsCjk(cp) || IsPunctuationCp(cp)) ++tokens;
    }
  }
  if (word_len > 0) tokens += 1 + (word_len > 6 ? (word_len - 1) / 6 : 0);
  return tokens;
}

}  // namespace dj::text
