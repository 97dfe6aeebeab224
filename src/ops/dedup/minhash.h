#ifndef DJ_OPS_DEDUP_MINHASH_H_
#define DJ_OPS_DEDUP_MINHASH_H_

#include <cstdint>
#include <string>
#include <vector>

namespace dj::ops {

/// MinHash signature computation (Broder et al.): `num_perm` independent
/// hash families approximated by SplitMix-derived multiply-xor permutations
/// over word-shingle hashes.
class MinHasher {
 public:
  explicit MinHasher(size_t num_perm = 128, uint64_t seed = 0x5117e5);

  size_t num_perm() const { return num_perm_; }

  /// Signature of a set of shingle hashes. Empty input yields a signature
  /// of all-max values (matches other empty docs only).
  std::vector<uint64_t> Signature(const std::vector<uint64_t>& shingles) const;

  /// Estimated Jaccard similarity between two signatures.
  static double EstimateJaccard(const std::vector<uint64_t>& a,
                                const std::vector<uint64_t>& b);

 private:
  size_t num_perm_;
  std::vector<uint64_t> mul_;
  std::vector<uint64_t> xor_;
};

/// LSH banding over MinHash signatures: signatures agreeing on all rows of
/// any band become duplicate candidates. With b bands of r rows the match
/// probability at Jaccard s is 1-(1-s^r)^b.
struct LshParams {
  size_t bands = 16;
  size_t rows = 8;  // bands * rows must equal num_perm
};

/// One row's key in one band. A dedup keeps the entries of each band in one
/// slice; sorted by (key, row), every bucket is a run of equal keys.
struct LshEntry {
  uint64_t key = 0;
  size_t row = 0;

  friend bool operator<(const LshEntry& a, const LshEntry& b) {
    return a.key != b.key ? a.key < b.key : a.row < b.row;
  }
};

/// Computes the band keys (hash per band) of a signature.
std::vector<uint64_t> LshBandKeys(const std::vector<uint64_t>& signature,
                                  const LshParams& params);

/// 64-bit SimHash (Charikar) over feature hashes.
uint64_t SimHash(const std::vector<uint64_t>& features);

/// Hamming distance between two 64-bit fingerprints.
int HammingDistance64(uint64_t a, uint64_t b);

/// Union-find over [0,n) used to cluster duplicate candidates.
class UnionFind {
 public:
  explicit UnionFind(size_t n);
  size_t Find(size_t x);
  void Union(size_t a, size_t b);

 private:
  std::vector<size_t> parent_;
  std::vector<uint8_t> rank_;
};

}  // namespace dj::ops

#endif  // DJ_OPS_DEDUP_MINHASH_H_
