#include "ops/sample_context.h"

#include <algorithm>

#include "common/string_util.h"
#include "text/sentence.h"
#include "text/tokenizer.h"

namespace dj::ops {

std::atomic<uint64_t> SampleContext::Counters::words{0};
std::atomic<uint64_t> SampleContext::Counters::lines{0};
std::atomic<uint64_t> SampleContext::Counters::sentences{0};
std::atomic<uint64_t> SampleContext::Counters::paragraphs{0};

void SampleContext::Counters::Reset() {
  words.store(0);
  lines.store(0);
  sentences.store(0);
  paragraphs.store(0);
}

uint64_t SampleContext::Counters::Total() {
  return words.load() + lines.load() + sentences.load() + paragraphs.load();
}

const std::vector<std::string_view>& SampleContext::Words() {
  if (!words_.has_value()) {
    words_ = text::WordViews(text_);
    Counters::words.fetch_add(1, std::memory_order_relaxed);
  }
  return *words_;
}

const std::vector<std::string_view>& SampleContext::WordsLower() {
  if (!words_lower_.has_value()) {
    // The fold keeps every byte offset and every token boundary, so each
    // word of Words() has its lower-cased form at the same offset of the
    // folded text.
    const std::vector<std::string_view>& words = Words();
    lower_text_.resize(text_.size());
    std::transform(text_.begin(), text_.end(), lower_text_.begin(),
                   AsciiLower);
    std::vector<std::string_view> lower;
    lower.reserve(words.size());
    for (std::string_view w : words) {
      lower.emplace_back(lower_text_.data() + (w.data() - text_.data()),
                         w.size());
    }
    words_lower_ = std::move(lower);
  }
  return *words_lower_;
}

const std::vector<uint64_t>& SampleContext::WordHashesLower() {
  if (!word_hashes_lower_.has_value()) {
    const std::vector<std::string_view>& words = Words();
    std::vector<uint64_t> hashes;
    hashes.reserve(words.size());
    for (std::string_view w : words) hashes.push_back(text::LowerWordHash(w));
    word_hashes_lower_ = std::move(hashes);
  }
  return *word_hashes_lower_;
}

const std::vector<std::string>& SampleContext::Lines() {
  if (!lines_.has_value()) {
    lines_ = SplitLines(text_);
    Counters::lines.fetch_add(1, std::memory_order_relaxed);
  }
  return *lines_;
}

const std::vector<std::string>& SampleContext::Sentences() {
  if (!sentences_.has_value()) {
    sentences_ = text::SplitSentences(text_);
    Counters::sentences.fetch_add(1, std::memory_order_relaxed);
  }
  return *sentences_;
}

const std::vector<std::string>& SampleContext::Paragraphs() {
  if (!paragraphs_.has_value()) {
    paragraphs_ = text::SplitParagraphs(text_);
    Counters::paragraphs.fetch_add(1, std::memory_order_relaxed);
  }
  return *paragraphs_;
}

}  // namespace dj::ops
