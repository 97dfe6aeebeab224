#ifndef DJ_OPS_OP_BASE_H_
#define DJ_OPS_OP_BASE_H_

#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "common/thread_pool.h"
#include "data/dataset.h"
#include "json/value.h"
#include "ops/sample_context.h"

namespace dj::ops {

/// Operator categories (paper Table 1).
enum class OpKind { kFormatter, kMapper, kFilter, kDeduplicator };

const char* OpKindName(OpKind kind);

/// Writes "stats.<key>" of `row`, keeping the stats object's keys in
/// lexicographic order: exported bytes must not depend on the order a plan
/// computed the stats in (fusion/reordering would otherwise change output).
/// The "stats" column must already exist (Dataset::EnsureColumn).
Status WriteStatSorted(data::RowRef row, std::string_view key,
                       json::Value value);

/// A recorded duplicate pair, surfaced to the Tracer.
struct DuplicatePair {
  size_t kept_row;
  size_t removed_row;
  double similarity;  ///< 1.0 for exact duplicates.
};

/// Base class of all operators. Concrete OPs are configured from a JSON
/// object (one entry of a recipe's "process" list) in their Configure()
/// and expose their effective configuration back for hashing/caching.
///
/// Common configuration keys understood by every OP:
///   text_key: which dot-path field to process (default "text"); this is the
///             per-OP field targeting of paper Sec. 4.3.
class Op {
 public:
  virtual ~Op() = default;

  Op(const Op&) = delete;
  Op& operator=(const Op&) = delete;

  /// Registry name, e.g. "language_id_score_filter".
  const std::string& name() const { return name_; }

  virtual OpKind kind() const = 0;

  /// Effective configuration (defaults filled in), serialized into cache
  /// keys. Deterministic.
  const json::Value& config() const { return config_; }

  /// The field this OP processes, e.g. "text" or "text.instruction".
  const std::string& text_key() const { return text_key_; }

  /// Relative single-sample cost estimate used by the reordering pass
  /// (paper Sec. 7): cheap metadata checks ~0.1, tokenizing filters ~1,
  /// model-backed filters ~5.
  virtual double CostEstimate() const { return 1.0; }

  /// Usage tags for navigation: "general", "latex", "code", "en", "zh", ...
  virtual std::vector<std::string> Tags() const { return {"general"}; }

 protected:
  Op(std::string name, const json::Value& config);

  /// Convenience accessors over config() with defaults.
  double Param(std::string_view key, double def) const {
    return config_.GetDouble(key, def);
  }
  int64_t Param(std::string_view key, int64_t def) const {
    return config_.GetInt(key, def);
  }
  bool Param(std::string_view key, bool def) const {
    return config_.GetBool(key, def);
  }
  std::string Param(std::string_view key, std::string_view def) const {
    return config_.GetString(key, def);
  }
  // const char* would otherwise decay to bool; route it to the string
  // overload explicitly.
  std::string Param(std::string_view key, const char* def) const {
    return config_.GetString(key, def);
  }
  /// Records an effective value back into the config (for cache keys).
  void SetEffectiveParam(std::string_view key, json::Value value);

 private:
  std::string name_;
  json::Value config_;
  std::string text_key_;
};

/// Mapper: in-place single-sample text editing (paper Table 1). Subclasses
/// implement TransformText; the base class reads/writes the configured
/// text field.
class Mapper : public Op {
 public:
  OpKind kind() const override { return OpKind::kMapper; }

  /// Transforms one text value. `ctx` provides shared representations.
  virtual Result<std::string> TransformText(std::string_view input,
                                            SampleContext* ctx) const = 0;

  /// Applies the transform to the configured field of `row`. Missing or
  /// non-string fields are left untouched (returns OK).
  Status ProcessRow(data::RowRef row, SampleContext* ctx) const;

 protected:
  using Op::Op;
};

/// Filter: decoupled per-sample statistics computation and keep decision
/// (paper Listing 1: compute_stats + process). ComputeStats writes into the
/// "stats" column; KeepRow reads only stats, enabling the Analyzer to reuse
/// them and the executor to fuse stats passes.
class Filter : public Op {
 public:
  OpKind kind() const override { return OpKind::kFilter; }

  /// Stats this filter writes (single key for most filters).
  virtual std::vector<std::string> StatsKeys() const = 0;

  /// Computes and stores stats for one row. Skips recomputation when the
  /// stats key is already present (e.g. from a previous Analyzer pass).
  virtual Status ComputeStats(data::RowRef row, SampleContext* ctx) const = 0;

  /// Pure predicate over previously computed stats.
  virtual Result<bool> KeepRow(data::RowRef row) const = 0;

  /// Whether ComputeStats consumes SampleContext representations (such
  /// filters benefit from fusion; paper Sec. 7 "fusible OPs").
  virtual bool UsesContext() const { return false; }

 protected:
  using Op::Op;

  /// Helpers shared by subclasses.
  Status WriteStat(data::RowRef row, std::string_view key,
                   json::Value value) const;
  bool HasStat(data::RowRef row, std::string_view key) const;
  double ReadStat(data::RowRef row, std::string_view key, double def) const;
};

/// Deduplicator: dataset-level duplicate removal with a decoupled per-sample
/// hash/fingerprint computation (paper Listing 1: compute_hash + process).
class Deduplicator : public Op {
 public:
  OpKind kind() const override { return OpKind::kDeduplicator; }

  /// Computes this op's fingerprint(s) for one row (stored internally or in
  /// stats, implementation-defined).
  virtual Status ComputeHash(data::RowRef row, SampleContext* ctx) = 0;

  /// Removes duplicates from `dataset`, returning the deduplicated dataset.
  /// `pairs` (optional) receives kept/removed row pairs for the Tracer.
  virtual Result<data::Dataset> Deduplicate(
      data::Dataset dataset, ThreadPool* pool,
      std::vector<DuplicatePair>* pairs) = 0;

  double CostEstimate() const override { return 2.0; }

 protected:
  using Op::Op;

  /// Runs `fn(i)` for every i in [0, n): on `pool` when it has more than one
  /// thread, inline otherwise. The row-parallel phases of every dedup use it.
  static void ForEachIndex(size_t n, ThreadPool* pool,
                           const std::function<void(size_t)>& fn);
};

/// Formatter: unifies an external representation into a Dataset
/// (paper Sec. 4.1). Subclasses parse one format; LoadDataset() in
/// formatters.h dispatches on file suffix.
class Formatter : public Op {
 public:
  OpKind kind() const override { return OpKind::kFormatter; }

  /// Parses in-memory content.
  virtual Result<data::Dataset> LoadFromString(std::string_view content,
                                               std::string_view origin) = 0;

  /// Reads and parses a file.
  Result<data::Dataset> LoadFile(const std::string& path);

 protected:
  using Op::Op;
};

}  // namespace dj::ops

#endif  // DJ_OPS_OP_BASE_H_
