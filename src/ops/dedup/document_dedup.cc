#include "ops/dedup/document_dedup.h"

#include <algorithm>
#include <limits>
#include <unordered_map>

#include "common/mutex.h"
#include "common/string_util.h"
#include "obs/span.h"
#include "text/ngram.h"
#include "text/tokenizer.h"

namespace dj::ops {
namespace {

std::string_view RowText(data::RowRef row, const std::string& key) {
  const json::Value* v = row.Get(key);
  if (v == nullptr || !v->is_string()) return {};
  return v->as_string();
}

/// Fnv1a64 of each word of `text`: from the context's cached tokens when
/// there is one, straight from the text otherwise (text::WordHashes builds
/// no token strings).
std::vector<uint64_t> WordHashesOf(std::string_view text, SampleContext* ctx,
                                   bool lowercase) {
  if (ctx == nullptr) return text::WordHashes(text, lowercase);
  if (lowercase) return ctx->WordHashesLower();
  std::vector<uint64_t> hashes;
  hashes.reserve(ctx->Words().size());
  for (std::string_view w : ctx->Words()) hashes.push_back(Fnv1a64(w));
  return hashes;
}

/// The band -> bucket -> verify loop shared by the LSH dedups. `entries`
/// holds one slice of `n` entries (one per row) per band. Each slice is
/// sorted on the pool, so every bucket becomes a run of equal keys; the
/// pairs of each run are then verified with `similar(i, j)`, skipping pairs
/// already in one cluster. Clusters are the connected components of the
/// verified candidate pairs, so neither bucket order nor the skipped
/// checks can change which rows end up together.
template <typename Similar>
void ClusterBandCandidates(std::vector<LshEntry>* entries, size_t n,
                           ThreadPool* pool, UnionFind* uf,
                           const Similar& similar) {
  if (n == 0) return;
  const size_t bands = entries->size() / n;
  LshEntry* slices = entries->data();
  auto sort_bands = [&](size_t begin, size_t end) {
    for (size_t b = begin; b < end; ++b) {
      std::sort(slices + b * n, slices + (b + 1) * n);
    }
  };
  if (pool != nullptr) {
    pool->ParallelFor(bands, sort_bands);
  } else {
    sort_bands(0, bands);
  }
  for (size_t b = 0; b < bands; ++b) {
    const LshEntry* band = slices + b * n;
    size_t run = 0;
    while (run < n) {
      size_t end = run + 1;
      while (end < n && band[end].key == band[run].key) ++end;
      for (size_t x = run; x + 1 < end; ++x) {
        for (size_t y = x + 1; y < end; ++y) {
          size_t i = band[x].row, j = band[y].row;
          if (uf->Find(i) == uf->Find(j)) continue;
          if (similar(i, j)) uf->Union(i, j);
        }
      }
      run = end;
    }
  }
}

/// Selects survivors: for each union-find cluster the smallest row index is
/// kept; records removed->kept pairs. Kept rows are moved, not copied.
data::Dataset CollectSurvivors(data::Dataset ds, UnionFind* uf,
                               std::vector<DuplicatePair>* pairs,
                               double similarity) {
  constexpr size_t kNone = std::numeric_limits<size_t>::max();
  size_t n = ds.NumRows();
  std::vector<size_t> cluster_first(n, kNone);  // indexed by root
  std::vector<size_t> keep;
  keep.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    size_t& first = cluster_first[uf->Find(i)];
    if (first == kNone) {
      first = i;
      keep.push_back(i);
    } else if (pairs != nullptr) {
      pairs->push_back({first, i, similarity});
    }
  }
  return std::move(ds).TakeSelect(keep);
}

}  // namespace

// ------------------------------------------- DocumentExactDeduplicator --

DocumentExactDeduplicator::DocumentExactDeduplicator(const json::Value& config)
    : Deduplicator("document_exact_deduplicator", config),
      lowercase_(Param("lowercase", true)),
      ignore_whitespace_(Param("ignore_whitespace", true)) {
  SetEffectiveParam("lowercase", json::Value(lowercase_));
  SetEffectiveParam("ignore_whitespace", json::Value(ignore_whitespace_));
}

Fingerprint128 DocumentExactDeduplicator::FingerprintOf(
    std::string_view text) const {
  if (!lowercase_ && !ignore_whitespace_) return Fingerprint(text);
  std::string norm;
  norm.reserve(text.size());
  for (char c : text) {
    if (ignore_whitespace_ &&
        (c == ' ' || c == '\t' || c == '\n' || c == '\r')) {
      continue;
    }
    if (lowercase_ && c >= 'A' && c <= 'Z') c = static_cast<char>(c + 32);
    norm.push_back(c);
  }
  return Fingerprint(norm);
}

Status DocumentExactDeduplicator::ComputeHash(data::RowRef row,
                                              SampleContext*) {
  Fingerprint128 fp = FingerprintOf(RowText(row, text_key()));
  fingerprints_[row.row()] = fp;
  // Also expose the hash as a stat for tracing and analysis.
  return WriteStatSorted(row, "doc_hash", json::Value(FingerprintHex(fp)));
}

Result<data::Dataset> DocumentExactDeduplicator::Deduplicate(
    data::Dataset dataset, ThreadPool* pool,
    std::vector<DuplicatePair>* pairs) {
  size_t n = dataset.NumRows();
  fingerprints_.assign(n, Fingerprint128{});
  dataset.EnsureColumn(data::kStatsField);
  Status status;
  Mutex status_mutex{"ExactDedup.first_error"};
  {
    DJ_OBS_SPAN("exact_dedup.compute_hashes");
    ForEachIndex(n, pool, [&](size_t i) {
      Status s = ComputeHash(dataset.Row(i), nullptr);
      if (!s.ok()) {
        MutexLock lock(&status_mutex);
        if (status.ok()) status = std::move(s);
      }
    });
  }
  DJ_RETURN_IF_ERROR(status);
  DJ_OBS_SPAN("exact_dedup.select_survivors");
  std::unordered_map<Fingerprint128, size_t, Fingerprint128Hash> first_seen;
  first_seen.reserve(n);
  std::vector<size_t> keep;
  keep.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    auto [it, inserted] = first_seen.emplace(fingerprints_[i], i);
    if (inserted) {
      keep.push_back(i);
    } else if (pairs != nullptr) {
      pairs->push_back({it->second, i, 1.0});
    }
  }
  return std::move(dataset).TakeSelect(keep);
}

// ----------------------------------------- DocumentMinHashDeduplicator --

DocumentMinHashDeduplicator::DocumentMinHashDeduplicator(
    const json::Value& config)
    : Deduplicator("document_minhash_deduplicator", config),
      num_perm_(Param("num_perm", static_cast<int64_t>(128))),
      shingle_size_(Param("shingle_size", static_cast<int64_t>(5))),
      threshold_(Param("jaccard_threshold", 0.7)),
      lowercase_(Param("lowercase", true)),
      hasher_(static_cast<size_t>(num_perm_)) {
  SetEffectiveParam("num_perm", json::Value(num_perm_));
  SetEffectiveParam("shingle_size", json::Value(shingle_size_));
  SetEffectiveParam("jaccard_threshold", json::Value(threshold_));
  SetEffectiveParam("lowercase", json::Value(lowercase_));
  // Pick (bands, rows): rows such that the LSH S-curve crosses near the
  // Jaccard threshold, capped at num_perm so there is at least one band.
  size_t rows = threshold_ >= 0.85 ? 16 : threshold_ >= 0.6 ? 8 : 4;
  lsh_.rows =
      std::max<size_t>(1, std::min(rows, static_cast<size_t>(num_perm_)));
  lsh_.bands = static_cast<size_t>(num_perm_) / lsh_.rows;
}

Status DocumentMinHashDeduplicator::ComputeHash(data::RowRef row,
                                                SampleContext* ctx) {
  std::vector<uint64_t> words =
      WordHashesOf(RowText(row, text_key()), ctx, lowercase_);
  std::vector<uint64_t> shingles =
      text::NgramsOfWordHashes(words, static_cast<size_t>(shingle_size_));
  if (shingles.empty() && !words.empty()) {
    // Short docs: fall back to unigram shingles.
    shingles = text::NgramsOfWordHashes(words, 1);
  }
  const size_t n = signatures_.size();
  const size_t i = row.row();
  signatures_[i] = hasher_.Signature(shingles);
  std::vector<uint64_t> keys = LshBandKeys(signatures_[i], lsh_);
  for (size_t b = 0; b < keys.size(); ++b) {
    band_entries_[b * n + i] = {keys[b], i};
  }
  return Status::Ok();
}

Result<data::Dataset> DocumentMinHashDeduplicator::Deduplicate(
    data::Dataset dataset, ThreadPool* pool,
    std::vector<DuplicatePair>* pairs) {
  size_t n = dataset.NumRows();
  signatures_.assign(n, {});
  band_entries_.assign(lsh_.bands * n, LshEntry{});
  {
    DJ_OBS_SPAN("minhash.compute_signatures");
    ForEachIndex(n, pool,
                 [&](size_t i) { ComputeHash(dataset.Row(i), nullptr); });
  }
  DJ_OBS_SPAN("minhash.lsh_candidates");
  UnionFind uf(n);
  ClusterBandCandidates(&band_entries_, n, pool, &uf, [&](size_t i, size_t j) {
    return MinHasher::EstimateJaccard(signatures_[i], signatures_[j]) >=
           threshold_;
  });
  // Release the per-row state before the survivors are gathered.
  signatures_.clear();
  signatures_.shrink_to_fit();
  band_entries_.clear();
  band_entries_.shrink_to_fit();
  return CollectSurvivors(std::move(dataset), &uf, pairs, threshold_);
}

// ----------------------------------------- DocumentSimHashDeduplicator --

DocumentSimHashDeduplicator::DocumentSimHashDeduplicator(
    const json::Value& config)
    : Deduplicator("document_simhash_deduplicator", config),
      shingle_size_(Param("shingle_size", static_cast<int64_t>(3))),
      hamming_threshold_(Param("hamming_threshold", static_cast<int64_t>(4))) {
  SetEffectiveParam("shingle_size", json::Value(shingle_size_));
  SetEffectiveParam("hamming_threshold", json::Value(hamming_threshold_));
}

Status DocumentSimHashDeduplicator::ComputeHash(data::RowRef row,
                                                SampleContext* ctx) {
  uint64_t fp = SimHash(text::NgramsOfWordHashes(
      WordHashesOf(RowText(row, text_key()), ctx, /*lowercase=*/true),
      static_cast<size_t>(shingle_size_)));
  const size_t n = fingerprints_.size();
  const size_t i = row.row();
  fingerprints_[i] = fp;
  // Four 16-bit bands of the fingerprint.
  for (size_t b = 0; b < 4; ++b) {
    band_entries_[b * n + i] = {(fp >> (b * 16)) & 0xFFFF, i};
  }
  return Status::Ok();
}

Result<data::Dataset> DocumentSimHashDeduplicator::Deduplicate(
    data::Dataset dataset, ThreadPool* pool,
    std::vector<DuplicatePair>* pairs) {
  size_t n = dataset.NumRows();
  fingerprints_.assign(n, 0);
  band_entries_.assign(4 * n, LshEntry{});
  ForEachIndex(n, pool,
               [&](size_t i) { ComputeHash(dataset.Row(i), nullptr); });
  UnionFind uf(n);
  ClusterBandCandidates(&band_entries_, n, pool, &uf, [&](size_t i, size_t j) {
    return HammingDistance64(fingerprints_[i], fingerprints_[j]) <=
           hamming_threshold_;
  });
  return CollectSurvivors(std::move(dataset), &uf, pairs, 1.0);
}

// ------------------------------------------- NgramOverlapDeduplicator --

NgramOverlapDeduplicator::NgramOverlapDeduplicator(const json::Value& config)
    : Deduplicator("ngram_overlap_deduplicator", config),
      shingle_size_(Param("shingle_size", static_cast<int64_t>(3))),
      threshold_(Param("jaccard_threshold", 0.8)) {
  SetEffectiveParam("shingle_size", json::Value(shingle_size_));
  SetEffectiveParam("jaccard_threshold", json::Value(threshold_));
}

Status NgramOverlapDeduplicator::ComputeHash(data::RowRef row,
                                             SampleContext* ctx) {
  std::vector<uint64_t> grams = text::NgramsOfWordHashes(
      WordHashesOf(RowText(row, text_key()), ctx, /*lowercase=*/true),
      static_cast<size_t>(shingle_size_));
  std::sort(grams.begin(), grams.end());
  grams.erase(std::unique(grams.begin(), grams.end()), grams.end());
  shingles_[row.row()] = std::move(grams);
  return Status::Ok();
}

Result<data::Dataset> NgramOverlapDeduplicator::Deduplicate(
    data::Dataset dataset, ThreadPool* pool,
    std::vector<DuplicatePair>* pairs) {
  size_t n = dataset.NumRows();
  shingles_.assign(n, {});
  ForEachIndex(n, pool,
               [&](size_t i) { ComputeHash(dataset.Row(i), nullptr); });
  // Inverted index over a sample of shingles (every shingle for short docs,
  // min-K for long ones) to generate candidates.
  constexpr size_t kIndexPerDoc = 24;
  std::unordered_map<uint64_t, std::vector<size_t>> index;
  UnionFind uf(n);
  for (size_t i = 0; i < n; ++i) {
    const auto& grams = shingles_[i];
    size_t take = std::min(grams.size(), kIndexPerDoc);
    // grams are sorted, so the first K form a deterministic min-K sample —
    // identical documents sample identical shingles.
    std::vector<size_t> candidates;
    for (size_t g = 0; g < take; ++g) {
      auto it = index.find(grams[g]);
      if (it != index.end()) {
        for (size_t j : it->second) candidates.push_back(j);
      }
    }
    std::sort(candidates.begin(), candidates.end());
    candidates.erase(std::unique(candidates.begin(), candidates.end()),
                     candidates.end());
    for (size_t j : candidates) {
      if (uf.Find(i) == uf.Find(j)) continue;
      double sim = text::JaccardOfSortedSets(shingles_[i], shingles_[j]);
      if (sim >= threshold_) uf.Union(i, j);
    }
    for (size_t g = 0; g < take; ++g) index[grams[g]].push_back(i);
  }
  return CollectSurvivors(std::move(dataset), &uf, pairs, threshold_);
}

std::vector<OpSchema> DocumentDedupSchemas() {
  std::vector<OpSchema> out;
  out.emplace_back(
      OpSchema("document_exact_deduplicator", OpKind::kDeduplicator)
          .Bool("lowercase", true, "lowercase before fingerprinting")
          .Bool("ignore_whitespace", true,
                "collapse whitespace before fingerprinting"));
  out.emplace_back(
      OpSchema("document_minhash_deduplicator", OpKind::kDeduplicator)
          .Int("num_perm", 128, 8, 4096, "MinHash permutations")
          .Int("shingle_size", 5, 1, kParamInf, "word shingle length")
          .Double("jaccard_threshold", 0.7, 0, 1,
                  "similarity above which documents are duplicates")
          .Bool("lowercase", true, "lowercase before shingling"));
  out.emplace_back(
      OpSchema("document_simhash_deduplicator", OpKind::kDeduplicator)
          .Int("shingle_size", 3, 1, kParamInf, "word shingle length")
          .Int("hamming_threshold", 4, 0, 64,
               "maximum fingerprint bit distance for duplicates"));
  out.emplace_back(
      OpSchema("ngram_overlap_deduplicator", OpKind::kDeduplicator)
          .Int("shingle_size", 3, 1, kParamInf, "word n-gram length")
          .Double("jaccard_threshold", 0.8, 0, 1,
                  "exact shingle-set similarity threshold"));
  return out;
}


std::vector<OpEffects> DocumentDedupEffects() {
  std::vector<OpEffects> out;
  out.emplace_back(
      OpEffects("document_exact_deduplicator", Cardinality::kRowMerging)
          .Reads("@text_key")
          .ProducesStat("doc_hash"));
  for (const char* name :
       {"document_minhash_deduplicator", "document_simhash_deduplicator",
        "ngram_overlap_deduplicator"}) {
    out.emplace_back(
        OpEffects(name, Cardinality::kRowMerging).Reads("@text_key"));
  }
  return out;
}
}  // namespace dj::ops
