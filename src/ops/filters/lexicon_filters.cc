#include "ops/filters/lexicon_filters.h"

#include <cctype>
#include <limits>

namespace dj::ops {
namespace {

void ExtendFromConfig(const json::Value& config, std::string_view key,
                      text::Lexicon* lexicon) {
  if (!config.is_object()) return;
  const json::Value* list = config.as_object().Find(key);
  if (list == nullptr || !list->is_array()) return;
  for (const auto& v : list->as_array()) {
    if (v.is_string()) lexicon->Add(v.as_string());
  }
}

}  // namespace

// --------------------------------------------------- FlaggedWordsFilter --

FlaggedWordsFilter::FlaggedWordsFilter(const json::Value& config)
    : RangeStatFilter("flagged_words_filter", config,
                      std::string(stats_keys::kFlaggedWordsRatio), 0.0, 0.01),
      lexicon_(text::Lexicon::FlaggedWords()) {
  ExtendFromConfig(config, "extra_words", &lexicon_);
}

double FlaggedWordsFilter::ComputeValue(std::string_view,
                                        SampleContext* ctx) const {
  const auto& words = ctx->WordsLower();
  if (words.empty()) return 0.0;
  size_t flagged = 0;
  for (std::string_view w : words) {
    if (lexicon_.Contains(w)) ++flagged;
  }
  return static_cast<double>(flagged) / static_cast<double>(words.size());
}

// ------------------------------------------------------ StopwordsFilter --

StopwordsFilter::StopwordsFilter(const json::Value& config)
    : RangeStatFilter("stopwords_filter", config,
                      std::string(stats_keys::kStopwordsRatio), 0.1, 1.0) {}

double StopwordsFilter::ComputeValue(std::string_view,
                                     SampleContext* ctx) const {
  const auto& words = ctx->WordsLower();
  if (words.empty()) return 0.0;
  const text::Lexicon& stopwords = text::Lexicon::EnglishStopwords();
  size_t hits = 0;
  for (std::string_view w : words) {
    if (stopwords.Contains(w)) ++hits;
  }
  return static_cast<double>(hits) / static_cast<double>(words.size());
}

// ----------------------------------------------------- TextActionFilter --

TextActionFilter::TextActionFilter(const json::Value& config)
    : RangeStatFilter("text_action_filter", config,
                      std::string(stats_keys::kNumActionVerbs), 1,
                      std::numeric_limits<double>::max()) {}

double TextActionFilter::ComputeValue(std::string_view,
                                      SampleContext* ctx) const {
  const text::Lexicon& verbs = text::Lexicon::CommonVerbs();
  size_t count = 0;
  for (std::string_view w : ctx->WordsLower()) {
    if (verbs.Contains(w)) ++count;
  }
  return static_cast<double>(count);
}

// ------------------------------------------ TextEntityDependencyFilter --

TextEntityDependencyFilter::TextEntityDependencyFilter(
    const json::Value& config)
    : RangeStatFilter("text_entity_dependency_filter", config,
                      std::string(stats_keys::kNumEntities), 1,
                      std::numeric_limits<double>::max()) {}

double TextEntityDependencyFilter::ComputeValue(std::string_view,
                                                SampleContext* ctx) const {
  size_t entities = 0;
  const auto& sentences = ctx->Sentences();
  for (const std::string& sentence : sentences) {
    bool first_word = true;
    size_t i = 0;
    while (i < sentence.size()) {
      while (i < sentence.size() &&
             !std::isalnum(static_cast<unsigned char>(sentence[i]))) {
        ++i;
      }
      size_t start = i;
      while (i < sentence.size() &&
             std::isalnum(static_cast<unsigned char>(sentence[i]))) {
        ++i;
      }
      if (i == start) break;
      std::string_view word(sentence.data() + start, i - start);
      if (!first_word && word.size() >= 2 &&
          std::isupper(static_cast<unsigned char>(word[0])) &&
          std::islower(static_cast<unsigned char>(word[1]))) {
        ++entities;
      }
      first_word = false;
    }
  }
  return static_cast<double>(entities);
}

std::vector<OpSchema> LexiconFilterSchemas() {
  constexpr double kMax = std::numeric_limits<double>::max();
  std::vector<OpSchema> out;
  out.push_back(RangeFilterSchema("flagged_words_filter", 0.0, 0.01, 0, 1,
                                  "flagged word ratio")
                    .List("extra_words", "additional flagged words"));
  out.push_back(RangeFilterSchema("stopwords_filter", 0.1, 1.0, 0, 1,
                                  "stopword ratio"));
  out.push_back(RangeFilterSchema("text_action_filter", 1, kMax, 0, kParamInf,
                                  "action verb count"));
  out.push_back(RangeFilterSchema("text_entity_dependency_filter", 1, kMax, 0,
                                  kParamInf, "entity token count"));
  return out;
}


std::vector<OpEffects> LexiconFilterEffects() {
  namespace sk = stats_keys;
  std::vector<OpEffects> out;
  out.emplace_back(OpEffects("flagged_words_filter", Cardinality::kRowDropping)
                       .Reads("@text_key")
                       .ProducesStat(std::string(sk::kFlaggedWordsRatio))
                       .WithContext());
  out.emplace_back(OpEffects("stopwords_filter", Cardinality::kRowDropping)
                       .Reads("@text_key")
                       .ProducesStat(std::string(sk::kStopwordsRatio))
                       .WithContext());
  out.emplace_back(OpEffects("text_action_filter", Cardinality::kRowDropping)
                       .Reads("@text_key")
                       .ProducesStat(std::string(sk::kNumActionVerbs))
                       .WithContext());
  out.emplace_back(
      OpEffects("text_entity_dependency_filter", Cardinality::kRowDropping)
          .Reads("@text_key")
          .ProducesStat(std::string(sk::kNumEntities))
          .WithContext());
  return out;
}
}  // namespace dj::ops
