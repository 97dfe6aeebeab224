#ifndef DJ_OPS_SAMPLE_CONTEXT_H_
#define DJ_OPS_SAMPLE_CONTEXT_H_

#include <atomic>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace dj::ops {

/// Per-sample cache of derived text representations (paper Sec. 7, "Context
/// management"): segmented words, split lines, sentences. When several OPs
/// in a fused group need the same representation, it is computed once here
/// instead of once per OP.
///
/// The text is tokenized once, into views: Words(), WordsLower() and
/// WordHashesLower() are all derived from that one pass, and none of them
/// builds a string per token. Views into the text stay valid for as long as
/// the text passed to the constructor does.
///
/// Global counters record how many times each representation was actually
/// computed — the fusion benchmarks and tests use them to demonstrate the
/// saved work.
class SampleContext {
 public:
  explicit SampleContext(std::string_view text) : text_(text) {}

  SampleContext(const SampleContext&) = delete;
  SampleContext& operator=(const SampleContext&) = delete;

  std::string_view text() const { return text_; }

  /// Word tokens as views into text() (lazily computed, cached); equal to
  /// text::TokenizeWords.
  const std::vector<std::string_view>& Words();

  /// Lower-cased word tokens; equal to text::TokenizeWordsLower. Views into
  /// one folded copy of the text owned by this context.
  const std::vector<std::string_view>& WordsLower();

  /// text::LowerWordHash of each word; equal to
  /// text::WordHashes(text(), /*lowercase=*/true).
  const std::vector<uint64_t>& WordHashesLower();

  /// Lines (split on '\n').
  const std::vector<std::string>& Lines();

  /// Sentences (rule-based splitter).
  const std::vector<std::string>& Sentences();

  /// Paragraphs (split on blank lines).
  const std::vector<std::string>& Paragraphs();

  /// Instrumentation: total representation computations since process start.
  struct Counters {
    static std::atomic<uint64_t> words;
    static std::atomic<uint64_t> lines;
    static std::atomic<uint64_t> sentences;
    static std::atomic<uint64_t> paragraphs;
    static void Reset();
    static uint64_t Total();
  };

 private:
  std::string_view text_;
  std::optional<std::vector<std::string_view>> words_;
  std::string lower_text_;  ///< text_ folded by AsciiLower
  std::optional<std::vector<std::string_view>> words_lower_;
  std::optional<std::vector<uint64_t>> word_hashes_lower_;
  std::optional<std::vector<std::string>> lines_;
  std::optional<std::vector<std::string>> sentences_;
  std::optional<std::vector<std::string>> paragraphs_;
};

}  // namespace dj::ops

#endif  // DJ_OPS_SAMPLE_CONTEXT_H_
