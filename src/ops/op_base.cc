#include "ops/op_base.h"

#include <optional>

#include "data/io.h"
#include "data/sample.h"

namespace dj::ops {

const char* OpKindName(OpKind kind) {
  switch (kind) {
    case OpKind::kFormatter:
      return "formatter";
    case OpKind::kMapper:
      return "mapper";
    case OpKind::kFilter:
      return "filter";
    case OpKind::kDeduplicator:
      return "deduplicator";
  }
  return "unknown";
}

Op::Op(std::string name, const json::Value& config)
    : name_(std::move(name)),
      config_(config.is_object() ? config : json::Value(json::Object())),
      text_key_(config_.GetString("text_key", data::kTextField)) {
  SetEffectiveParam("text_key", json::Value(text_key_));
}

void Op::SetEffectiveParam(std::string_view key, json::Value value) {
  config_.as_object().Set(std::string(key), std::move(value));
}

Status Mapper::ProcessRow(data::RowRef row, SampleContext* ctx) const {
  const json::Value* v = row.Get(text_key());
  if (v == nullptr || !v->is_string()) return Status::Ok();
  std::optional<SampleContext> local;
  if (ctx == nullptr) {
    local.emplace(v->as_string());
    ctx = &*local;
  }
  DJ_ASSIGN_OR_RETURN(std::string out, TransformText(v->as_string(), ctx));
  if (out != v->as_string()) {
    DJ_RETURN_IF_ERROR(row.Set(text_key(), json::Value(std::move(out))));
  }
  return Status::Ok();
}

Status WriteStatSorted(data::RowRef row, std::string_view key,
                       json::Value value) {
  json::Value* cell = row.GetMutable(data::kStatsField);
  if (cell == nullptr) {
    return Status::NotFound("column 'stats' does not exist; call "
                            "EnsureColumn first");
  }
  if (cell->is_null()) *cell = json::Value(json::Object());
  if (!cell->is_object()) {
    return Status::InvalidArgument("cell 'stats' is not an object");
  }
  cell->as_object().SetSorted(std::string(key), std::move(value));
  return Status::Ok();
}

Status Filter::WriteStat(data::RowRef row, std::string_view key,
                         json::Value value) const {
  return WriteStatSorted(row, key, std::move(value));
}

namespace {

/// `key` of the row's "stats" object (the flat key WriteStatSorted writes),
/// or nullptr.
const json::Value* FindStat(data::RowRef row, std::string_view key) {
  const json::Value* stats = row.Get(data::kStatsField);
  if (stats == nullptr || !stats->is_object()) return nullptr;
  return stats->as_object().Find(key);
}

}  // namespace

bool Filter::HasStat(data::RowRef row, std::string_view key) const {
  const json::Value* v = FindStat(row, key);
  return v != nullptr && !v->is_null();
}

double Filter::ReadStat(data::RowRef row, std::string_view key,
                        double def) const {
  const json::Value* v = FindStat(row, key);
  return v != nullptr && v->is_number() ? v->as_double() : def;
}

Result<data::Dataset> Formatter::LoadFile(const std::string& path) {
  DJ_ASSIGN_OR_RETURN(std::string content, data::ReadFile(path));
  return LoadFromString(content, path);
}

void Deduplicator::ForEachIndex(size_t n, ThreadPool* pool,
                                const std::function<void(size_t)>& fn) {
  if (pool == nullptr || pool->num_threads() <= 1) {
    for (size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  pool->ParallelFor(n, [&](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) fn(i);
  });
}

}  // namespace dj::ops
