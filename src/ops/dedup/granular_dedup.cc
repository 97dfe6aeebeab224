#include "ops/dedup/granular_dedup.h"

#include <optional>
#include <unordered_set>

#include "common/hash.h"
#include "common/string_util.h"
#include "obs/span.h"
#include "text/utf8.h"

namespace dj::ops {
namespace {

/// Whether `unit` has at least `min` codepoints. A codepoint takes one to
/// four bytes, so the byte length alone settles most units.
bool HasCodepoints(std::string_view unit, size_t min) {
  if (unit.size() < min) return false;
  if (unit.size() / 4 >= min) return true;
  return text::CodepointCount(unit) >= min;
}

}  // namespace

GranularDeduplicatorBase::GranularDeduplicatorBase(std::string name,
                                                   const json::Value& config)
    : Deduplicator(std::move(name), config),
      min_unit_length_(Param("min_unit_length", static_cast<int64_t>(8))) {
  SetEffectiveParam("min_unit_length", json::Value(min_unit_length_));
}

Status GranularDeduplicatorBase::ComputeHash(data::RowRef row,
                                             SampleContext* ctx) {
  std::vector<UnitKey>& keys = units_[row.row()];
  keys.clear();
  const json::Value* v = row.Get(text_key());
  if (v == nullptr || !v->is_string()) return Status::Ok();  // no units
  std::optional<SampleContext> local;
  if (ctx == nullptr) {
    local.emplace(v->as_string());
    ctx = &*local;
  }
  const std::vector<std::string>& units = SplitUnits(ctx);
  keys.resize(units.size());
  for (size_t u = 0; u < units.size(); ++u) {
    keys[u].dedupable =
        HasCodepoints(units[u], static_cast<size_t>(min_unit_length_));
    if (keys[u].dedupable) {
      keys[u].hash = Fnv1a64(AsciiToLower(StripAsciiWhitespace(units[u])));
    }
  }
  return Status::Ok();
}

Status GranularDeduplicatorBase::RewriteRow(data::Dataset* dataset,
                                            size_t i) const {
  data::RowRef row = dataset->Row(i);
  SampleContext ctx(row.Get(text_key())->as_string());
  const std::vector<std::string>& units = SplitUnits(&ctx);
  const std::vector<UnitKey>& keys = units_[i];
  std::string rebuilt;
  size_t kept_units = 0;
  for (size_t u = 0; u < units.size(); ++u) {
    if (keys[u].duplicate) continue;
    if (kept_units++ > 0) rebuilt.append(Joiner());
    rebuilt += units[u];
  }
  return row.Set(text_key(), json::Value(std::move(rebuilt)));
}

Result<data::Dataset> GranularDeduplicatorBase::Deduplicate(
    data::Dataset dataset, ThreadPool* pool,
    std::vector<DuplicatePair>* pairs) {
  size_t n = dataset.NumRows();
  units_.assign(n, {});
  {
    DJ_OBS_SPAN("granular_dedup.compute_hashes");
    ForEachIndex(n, pool,
                 [&](size_t i) { ComputeHash(dataset.Row(i), nullptr); });
  }
  DJ_OBS_SPAN("granular_dedup.rewrite_units");
  // Sequential pass over hashes only: the first occurrence of each unit
  // wins, later ones are marked duplicate.
  enum class Fate : uint8_t { kKeep, kRewrite, kDrop };
  std::vector<Fate> fate(n, Fate::kKeep);
  std::vector<size_t> rewrite;
  size_t total_units = 0;
  for (const std::vector<UnitKey>& keys : units_) total_units += keys.size();
  std::unordered_set<uint64_t> seen;
  seen.reserve(total_units);
  for (size_t i = 0; i < n; ++i) {
    bool any_dup = false;
    bool all_dup = !units_[i].empty();
    for (UnitKey& key : units_[i]) {
      key.duplicate = key.dedupable && !seen.insert(key.hash).second;
      any_dup = any_dup || key.duplicate;
      all_dup = all_dup && key.duplicate;
    }
    if (all_dup) {
      fate[i] = Fate::kDrop;
    } else if (any_dup) {
      fate[i] = Fate::kRewrite;
      rewrite.push_back(i);
    }
  }
  // Changed rows are rebuilt on the pool; the lowest row's error wins.
  std::vector<Status> status(rewrite.size());
  ForEachIndex(rewrite.size(), pool, [&](size_t r) {
    status[r] = RewriteRow(&dataset, rewrite[r]);
  });
  for (const Status& s : status) DJ_RETURN_IF_ERROR(s);
  units_.clear();
  units_.shrink_to_fit();
  std::vector<size_t> keep_rows;
  keep_rows.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    if (fate[i] != Fate::kDrop) {
      keep_rows.push_back(i);
    } else if (pairs != nullptr) {
      // Whole sample was duplicate boilerplate; report against itself.
      pairs->push_back({i, i, 1.0});
    }
  }
  return std::move(dataset).TakeSelect(keep_rows);
}

ParagraphExactDeduplicator::ParagraphExactDeduplicator(
    const json::Value& config)
    : GranularDeduplicatorBase("paragraph_exact_deduplicator", config) {}

const std::vector<std::string>& ParagraphExactDeduplicator::SplitUnits(
    SampleContext* ctx) const {
  return ctx->Paragraphs();
}

SentenceExactDeduplicator::SentenceExactDeduplicator(const json::Value& config)
    : GranularDeduplicatorBase("sentence_exact_deduplicator", config) {}

const std::vector<std::string>& SentenceExactDeduplicator::SplitUnits(
    SampleContext* ctx) const {
  return ctx->Sentences();
}

std::vector<OpSchema> GranularDedupSchemas() {
  std::vector<OpSchema> out;
  for (const char* name :
       {"paragraph_exact_deduplicator", "sentence_exact_deduplicator"}) {
    out.emplace_back(
        OpSchema(name, OpKind::kDeduplicator)
            .Int("min_unit_length", 8, 0, kParamInf,
                 "units shorter than this many codepoints are never deduped"));
  }
  return out;
}


std::vector<OpEffects> GranularDedupEffects() {
  std::vector<OpEffects> out;
  // Granular dedups rewrite the text field (duplicate paragraphs/sentences
  // are removed in place) on top of their cross-row decisions.
  for (const char* name :
       {"paragraph_exact_deduplicator", "sentence_exact_deduplicator"}) {
    out.emplace_back(OpEffects(name, Cardinality::kRowMerging)
                         .Reads("@text_key")
                         .Writes("@text_key"));
  }
  return out;
}
}  // namespace dj::ops
