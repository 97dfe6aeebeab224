#ifndef DJ_OPS_DEDUP_GRANULAR_DEDUP_H_
#define DJ_OPS_DEDUP_GRANULAR_DEDUP_H_

#include <cstdint>
#include <string>
#include <vector>

#include "ops/op_base.h"
#include "ops/op_effects.h"
#include "ops/param_spec.h"

namespace dj::ops {

/// Common implementation of corpus-wide unit-level deduplication: text is
/// split into units (paragraphs or sentences); every unit seen before —
/// anywhere in the dataset — is removed from the sample, keeping only its
/// first occurrence. Units shorter than `min_unit_length` codepoints are
/// never removed. Samples left empty afterwards are dropped. This is the
/// line-level dedup that removes boilerplate repeated across web pages.
///
/// Only the first-occurrence decision is serial, and it touches hashes
/// alone: splitting and hashing, and rebuilding the changed rows, run on
/// the pool.
class GranularDeduplicatorBase : public Deduplicator {
 public:
  Status ComputeHash(data::RowRef row, SampleContext* ctx) override;
  Result<data::Dataset> Deduplicate(
      data::Dataset dataset, ThreadPool* pool,
      std::vector<DuplicatePair>* pairs) override;

 protected:
  GranularDeduplicatorBase(std::string name, const json::Value& config);

  /// Splits text into units with their joiner preserved on rebuild (the
  /// units stay owned by `ctx`).
  virtual const std::vector<std::string>& SplitUnits(
      SampleContext* ctx) const = 0;
  virtual std::string_view Joiner() const = 0;

 private:
  /// One unit of a row, in text order.
  struct UnitKey {
    uint64_t hash = 0;       ///< of the trimmed, lower-cased unit
    bool dedupable = false;  ///< at least min_unit_length codepoints
    bool duplicate = false;  ///< seen earlier; set by the serial pass
  };

  /// Rebuilds row `i` from its non-duplicate units.
  Status RewriteRow(data::Dataset* dataset, size_t i) const;

  int64_t min_unit_length_;
  std::vector<std::vector<UnitKey>> units_;
};

/// paragraph_exact_deduplicator: corpus-wide paragraph dedup.
class ParagraphExactDeduplicator : public GranularDeduplicatorBase {
 public:
  explicit ParagraphExactDeduplicator(const json::Value& config);
  double CostEstimate() const override { return 2.0; }

 protected:
  const std::vector<std::string>& SplitUnits(
      SampleContext* ctx) const override;
  std::string_view Joiner() const override { return "\n\n"; }
};

/// sentence_exact_deduplicator: corpus-wide sentence dedup.
class SentenceExactDeduplicator : public GranularDeduplicatorBase {
 public:
  explicit SentenceExactDeduplicator(const json::Value& config);
  double CostEstimate() const override { return 3.0; }

 protected:
  const std::vector<std::string>& SplitUnits(
      SampleContext* ctx) const override;
  std::string_view Joiner() const override { return " "; }
};

/// Declared parameter schemas of the granular deduplicators above.
std::vector<OpSchema> GranularDedupSchemas();

/// Declared effect signatures of this family (registered next to the
/// schemas; see OpEffects).
std::vector<OpEffects> GranularDedupEffects();

}  // namespace dj::ops

#endif  // DJ_OPS_DEDUP_GRANULAR_DEDUP_H_
