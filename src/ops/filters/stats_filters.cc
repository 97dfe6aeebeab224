#include "ops/filters/stats_filters.h"

#include <limits>
#include <optional>

#include "text/ngram.h"
#include "text/tokenizer.h"
#include "text/utf8.h"

namespace dj::ops {

// ------------------------------------------------------- RangeStatFilter --

RangeStatFilter::RangeStatFilter(std::string name, const json::Value& config,
                                 std::string stat_key, double default_min,
                                 double default_max)
    : Filter(std::move(name), config), stat_key_(std::move(stat_key)) {
  min_ = Param("min", default_min);
  max_ = Param("max", default_max);
  SetEffectiveParam("min", json::Value(min_));
  SetEffectiveParam("max", json::Value(max_));
}

Status RangeStatFilter::ComputeStats(data::RowRef row,
                                     SampleContext* ctx) const {
  if (HasStat(row, stat_key_)) return Status::Ok();
  const json::Value* v = row.Get(text_key());
  std::string_view text =
      (v != nullptr && v->is_string()) ? std::string_view(v->as_string())
                                       : std::string_view();
  std::optional<SampleContext> local;
  if (ctx == nullptr) {
    local.emplace(text);
    ctx = &*local;
  }
  return WriteStat(row, stat_key_, json::Value(ComputeValue(text, ctx)));
}

Result<bool> RangeStatFilter::KeepRow(data::RowRef row) const {
  double value = ReadStat(row, stat_key_, std::numeric_limits<double>::lowest());
  return value >= min_ && value <= max_;
}

// --------------------------------------------------- AlphanumericFilter --

AlphanumericFilter::AlphanumericFilter(const json::Value& config)
    : RangeStatFilter("alphanumeric_filter", config,
                      std::string(stats_keys::kAlnumRatio), 0.25, 1.0) {}

double AlphanumericFilter::ComputeValue(std::string_view text,
                                        SampleContext*) const {
  size_t pos = 0, total = 0, alnum = 0;
  uint32_t cp;
  while (pos < text.size()) {
    text::DecodeUtf8(text, &pos, &cp);
    ++total;
    if (text::IsAsciiAlnum(cp) || text::IsCjk(cp)) ++alnum;
  }
  return total == 0 ? 0.0 : static_cast<double>(alnum) / total;
}

// ---------------------------------------------- AverageLineLengthFilter --

AverageLineLengthFilter::AverageLineLengthFilter(const json::Value& config)
    : RangeStatFilter("average_line_length_filter", config,
                      std::string(stats_keys::kAvgLineLength), 10,
                      std::numeric_limits<double>::max()) {}

double AverageLineLengthFilter::ComputeValue(std::string_view,
                                             SampleContext* ctx) const {
  const auto& lines = ctx->Lines();
  if (lines.empty()) return 0.0;
  size_t total = 0;
  for (const std::string& line : lines) total += text::CodepointCount(line);
  return static_cast<double>(total) / static_cast<double>(lines.size());
}

// -------------------------------------------- CharacterRepetitionFilter --

CharacterRepetitionFilter::CharacterRepetitionFilter(const json::Value& config)
    : RangeStatFilter("character_repetition_filter", config,
                      std::string(stats_keys::kCharRepRatio), 0.0, 0.5),
      rep_len_(Param("rep_len", static_cast<int64_t>(10))) {
  SetEffectiveParam("rep_len", json::Value(rep_len_));
}

double CharacterRepetitionFilter::ComputeValue(std::string_view text,
                                               SampleContext*) const {
  return text::DuplicateNgramRatio(
      text::HashedCharNgrams(text, static_cast<size_t>(rep_len_)));
}

// ----------------------------------------------- MaximumLineLengthFilter --

MaximumLineLengthFilter::MaximumLineLengthFilter(const json::Value& config)
    : RangeStatFilter("maximum_line_length_filter", config,
                      std::string(stats_keys::kMaxLineLength), 10,
                      std::numeric_limits<double>::max()) {}

double MaximumLineLengthFilter::ComputeValue(std::string_view,
                                             SampleContext* ctx) const {
  size_t max_len = 0;
  for (const std::string& line : ctx->Lines()) {
    size_t len = text::CodepointCount(line);
    if (len > max_len) max_len = len;
  }
  return static_cast<double>(max_len);
}

// ---------------------------------------------- SpecialCharactersFilter --

SpecialCharactersFilter::SpecialCharactersFilter(const json::Value& config)
    : RangeStatFilter("special_characters_filter", config,
                      std::string(stats_keys::kSpecialCharRatio), 0.0, 0.25) {}

double SpecialCharactersFilter::ComputeValue(std::string_view text,
                                             SampleContext*) const {
  size_t pos = 0, total = 0, special = 0;
  uint32_t cp;
  while (pos < text.size()) {
    text::DecodeUtf8(text, &pos, &cp);
    ++total;
    if (!text::IsAsciiAlnum(cp) && !text::IsCjk(cp) &&
        !text::IsWhitespaceCp(cp)) {
      ++special;
    }
  }
  return total == 0 ? 1.0 : static_cast<double>(special) / total;
}

// ------------------------------------------------------ TextLengthFilter --

TextLengthFilter::TextLengthFilter(const json::Value& config)
    : RangeStatFilter("text_length_filter", config,
                      std::string(stats_keys::kTextLength), 10,
                      std::numeric_limits<double>::max()) {}

double TextLengthFilter::ComputeValue(std::string_view text,
                                      SampleContext*) const {
  return static_cast<double>(text::CodepointCount(text));
}

// -------------------------------------------------------- TokenNumFilter --

TokenNumFilter::TokenNumFilter(const json::Value& config)
    : RangeStatFilter("token_num_filter", config,
                      std::string(stats_keys::kNumTokens), 10,
                      std::numeric_limits<double>::max()) {}

double TokenNumFilter::ComputeValue(std::string_view text,
                                    SampleContext*) const {
  return static_cast<double>(text::ApproxLlmTokenCount(text));
}

// --------------------------------------------------------- WordNumFilter --

WordNumFilter::WordNumFilter(const json::Value& config)
    : RangeStatFilter("word_num_filter", config,
                      std::string(stats_keys::kNumWords), 10,
                      std::numeric_limits<double>::max()) {}

double WordNumFilter::ComputeValue(std::string_view,
                                   SampleContext* ctx) const {
  return static_cast<double>(ctx->Words().size());
}

// -------------------------------------------------- WordRepetitionFilter --

WordRepetitionFilter::WordRepetitionFilter(const json::Value& config)
    : RangeStatFilter("word_repetition_filter", config,
                      std::string(stats_keys::kWordRepRatio), 0.0, 0.6),
      rep_len_(Param("rep_len", static_cast<int64_t>(5))) {
  SetEffectiveParam("rep_len", json::Value(rep_len_));
}

double WordRepetitionFilter::ComputeValue(std::string_view,
                                          SampleContext* ctx) const {
  return text::DuplicateNgramRatio(text::NgramsOfWordHashes(
      ctx->WordHashesLower(), static_cast<size_t>(rep_len_)));
}

// ---------------------------------------------------- ParagraphNumFilter --

ParagraphNumFilter::ParagraphNumFilter(const json::Value& config)
    : RangeStatFilter("paragraph_num_filter", config,
                      std::string(stats_keys::kNumParagraphs), 1,
                      std::numeric_limits<double>::max()) {}

double ParagraphNumFilter::ComputeValue(std::string_view,
                                        SampleContext* ctx) const {
  return static_cast<double>(ctx->Paragraphs().size());
}

// ----------------------------------------------------- SentenceNumFilter --

SentenceNumFilter::SentenceNumFilter(const json::Value& config)
    : RangeStatFilter("sentence_num_filter", config,
                      std::string(stats_keys::kNumSentences), 1,
                      std::numeric_limits<double>::max()) {}

double SentenceNumFilter::ComputeValue(std::string_view,
                                       SampleContext* ctx) const {
  return static_cast<double>(ctx->Sentences().size());
}

// ----------------------------------------------------- declared schemas --

OpSchema RangeFilterSchema(std::string op_name, double default_min,
                           double default_max, double lo, double hi,
                           std::string stat_doc) {
  OpSchema schema(std::move(op_name), OpKind::kFilter);
  schema.Double("min", default_min, lo, hi, "keep samples with " + stat_doc +
                                                " >= min");
  schema.Double("max", default_max, lo, hi,
                "keep samples with " + stat_doc + " <= max");
  return schema;
}

std::vector<OpSchema> StatsFilterSchemas() {
  constexpr double kMax = std::numeric_limits<double>::max();
  std::vector<OpSchema> out;
  out.push_back(RangeFilterSchema("alphanumeric_filter", 0.25, 1.0, 0, 1,
                                  "alphanumeric codepoint ratio"));
  out.push_back(RangeFilterSchema("average_line_length_filter", 10, kMax, 0,
                                  kParamInf, "mean line length"));
  out.push_back(RangeFilterSchema("character_repetition_filter", 0.0, 0.5, 0,
                                  1, "duplicated char-n-gram ratio")
                    .Int("rep_len", 10, 1, kParamInf,
                         "character n-gram length"));
  out.push_back(RangeFilterSchema("maximum_line_length_filter", 10, kMax, 0,
                                  kParamInf, "longest line length"));
  out.push_back(RangeFilterSchema("special_characters_filter", 0.0, 0.25, 0,
                                  1, "special character ratio"));
  out.push_back(RangeFilterSchema("text_length_filter", 10, kMax, 0,
                                  kParamInf, "text length in codepoints"));
  out.push_back(RangeFilterSchema("token_num_filter", 10, kMax, 0, kParamInf,
                                  "approximate token count"));
  out.push_back(RangeFilterSchema("word_num_filter", 10, kMax, 0, kParamInf,
                                  "word count"));
  out.push_back(RangeFilterSchema("word_repetition_filter", 0.0, 0.6, 0, 1,
                                  "duplicated word-n-gram ratio")
                    .Int("rep_len", 5, 1, kParamInf, "word n-gram length"));
  out.push_back(RangeFilterSchema("paragraph_num_filter", 1, kMax, 0,
                                  kParamInf, "paragraph count"));
  out.push_back(RangeFilterSchema("sentence_num_filter", 1, kMax, 0,
                                  kParamInf, "sentence count"));
  return out;
}


namespace {

/// Shared effect shape of the range-stat filters: read the configured text
/// field, produce one stat, drop rows outside [min, max].
OpEffects RangeFilterEffects(const char* op_name, std::string_view stat_key,
                             bool uses_context) {
  OpEffects e(op_name, Cardinality::kRowDropping);
  e.Reads("@text_key").ProducesStat(std::string(stat_key));
  if (uses_context) e.WithContext();
  return e;
}

}  // namespace

std::vector<OpEffects> StatsFilterEffects() {
  namespace sk = stats_keys;
  std::vector<OpEffects> out;
  out.push_back(RangeFilterEffects("alphanumeric_filter", sk::kAlnumRatio,
                                   /*uses_context=*/false));
  out.push_back(RangeFilterEffects("average_line_length_filter",
                                   sk::kAvgLineLength, /*uses_context=*/true));
  out.push_back(RangeFilterEffects("character_repetition_filter",
                                   sk::kCharRepRatio,
                                   /*uses_context=*/false));
  out.push_back(RangeFilterEffects("maximum_line_length_filter",
                                   sk::kMaxLineLength, /*uses_context=*/true));
  out.push_back(RangeFilterEffects("special_characters_filter",
                                   sk::kSpecialCharRatio,
                                   /*uses_context=*/false));
  out.push_back(RangeFilterEffects("text_length_filter", sk::kTextLength,
                                   /*uses_context=*/false));
  out.push_back(RangeFilterEffects("token_num_filter", sk::kNumTokens,
                                   /*uses_context=*/false));
  out.push_back(RangeFilterEffects("word_num_filter", sk::kNumWords,
                                   /*uses_context=*/true));
  out.push_back(RangeFilterEffects("word_repetition_filter", sk::kWordRepRatio,
                                   /*uses_context=*/true));
  out.push_back(RangeFilterEffects("paragraph_num_filter", sk::kNumParagraphs,
                                   /*uses_context=*/true));
  out.push_back(RangeFilterEffects("sentence_num_filter", sk::kNumSentences,
                                   /*uses_context=*/true));
  return out;
}
}  // namespace dj::ops
