#include "text/ngram.h"

#include <algorithm>

#include "common/hash.h"
#include "text/utf8.h"

namespace dj::text {

std::vector<std::string> WordNgrams(const std::vector<std::string>& words,
                                    size_t n) {
  std::vector<std::string> out;
  if (n == 0 || words.size() < n) return out;
  out.reserve(words.size() - n + 1);
  for (size_t i = 0; i + n <= words.size(); ++i) {
    std::string gram = words[i];
    for (size_t j = 1; j < n; ++j) {
      gram.push_back('\x1f');
      gram += words[i + j];
    }
    out.push_back(std::move(gram));
  }
  return out;
}

std::vector<std::string> CharNgrams(std::string_view s, size_t n) {
  std::vector<std::string> out;
  if (n == 0) return out;
  // Collect codepoint byte offsets.
  std::vector<size_t> offsets;
  size_t pos = 0;
  uint32_t cp;
  while (pos < s.size()) {
    offsets.push_back(pos);
    DecodeUtf8(s, &pos, &cp);
  }
  offsets.push_back(s.size());
  if (offsets.size() <= n) return out;
  for (size_t i = 0; i + n < offsets.size(); ++i) {
    out.emplace_back(s.substr(offsets[i], offsets[i + n] - offsets[i]));
  }
  return out;
}

std::vector<uint64_t> HashedWordNgrams(const std::vector<std::string>& words,
                                       size_t n) {
  if (n == 0 || words.size() < n) return {};
  std::vector<uint64_t> wh(words.size());
  for (size_t i = 0; i < words.size(); ++i) wh[i] = Fnv1a64(words[i]);
  return NgramsOfWordHashes(wh, n);
}

std::vector<uint64_t> NgramsOfWordHashes(const std::vector<uint64_t>& hashes,
                                         size_t n) {
  std::vector<uint64_t> out;
  if (n == 0 || hashes.size() < n) return out;
  out.reserve(hashes.size() - n + 1);
  for (size_t i = 0; i + n <= hashes.size(); ++i) {
    uint64_t h = 0x9e3779b97f4a7c15ULL;
    for (size_t j = 0; j < n; ++j) h = HashCombine(h, hashes[i + j]);
    out.push_back(h);
  }
  return out;
}

std::vector<uint64_t> HashedCharNgrams(std::string_view s, size_t n) {
  std::vector<uint64_t> out;
  if (n == 0 || s.size() < n) return out;
  out.reserve(s.size() - n + 1);
  for (size_t i = 0; i + n <= s.size(); ++i) {
    out.push_back(Fnv1a64(s.substr(i, n)));
  }
  return out;
}

double DuplicateNgramRatio(const std::vector<uint64_t>& gram_hashes) {
  if (gram_hashes.empty()) return 0.0;
  std::vector<uint64_t> sorted = gram_hashes;
  std::sort(sorted.begin(), sorted.end());
  const size_t unique = static_cast<size_t>(
      std::unique(sorted.begin(), sorted.end()) - sorted.begin());
  return 1.0 - static_cast<double>(unique) /
                   static_cast<double>(gram_hashes.size());
}

double JaccardSimilarity(std::vector<uint64_t> a, std::vector<uint64_t> b) {
  std::sort(a.begin(), a.end());
  a.erase(std::unique(a.begin(), a.end()), a.end());
  std::sort(b.begin(), b.end());
  b.erase(std::unique(b.begin(), b.end()), b.end());
  return JaccardOfSortedSets(a, b);
}

double JaccardOfSortedSets(const std::vector<uint64_t>& a,
                           const std::vector<uint64_t>& b) {
  if (a.empty() && b.empty()) return 1.0;
  size_t i = 0, j = 0, inter = 0;
  while (i < a.size() && j < b.size()) {
    if (a[i] == b[j]) {
      ++inter;
      ++i;
      ++j;
    } else if (a[i] < b[j]) {
      ++i;
    } else {
      ++j;
    }
  }
  size_t uni = a.size() + b.size() - inter;
  return uni == 0 ? 1.0 : static_cast<double>(inter) / static_cast<double>(uni);
}

}  // namespace dj::text
