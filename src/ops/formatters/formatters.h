#ifndef DJ_OPS_FORMATTERS_FORMATTERS_H_
#define DJ_OPS_FORMATTERS_FORMATTERS_H_

#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "ops/op_base.h"
#include "ops/op_effects.h"
#include "ops/param_spec.h"

namespace dj::ops {

/// jsonl_formatter: one strict-JSON object per line.
class JsonlFormatter : public Formatter {
 public:
  explicit JsonlFormatter(const json::Value& config);
  Result<data::Dataset> LoadFromString(std::string_view content,
                                       std::string_view origin) override;
};

/// json_formatter: a JSON array of objects (or one object).
class JsonFormatter : public Formatter {
 public:
  explicit JsonFormatter(const json::Value& config);
  Result<data::Dataset> LoadFromString(std::string_view content,
                                       std::string_view origin) override;
};

/// txt_formatter: plain text. With `per_line=true` every non-empty line is a
/// sample; otherwise the whole content is one sample.
class TxtFormatter : public Formatter {
 public:
  explicit TxtFormatter(const json::Value& config);
  Result<data::Dataset> LoadFromString(std::string_view content,
                                       std::string_view origin) override;

 private:
  bool per_line_;
};

/// csv_formatter / tsv_formatter: header row defines columns; a column named
/// "text" (or the first column otherwise) becomes the text field, the rest
/// go under "meta". Quoted fields with embedded separators are supported.
class CsvFormatter : public Formatter {
 public:
  explicit CsvFormatter(const json::Value& config);
  Result<data::Dataset> LoadFromString(std::string_view content,
                                       std::string_view origin) override;

 protected:
  CsvFormatter(std::string name, const json::Value& config, char sep);

 private:
  char sep_;
};

class TsvFormatter : public CsvFormatter {
 public:
  explicit TsvFormatter(const json::Value& config);
};

/// code_formatter: a source file becomes one sample with meta.language
/// derived from the file suffix and meta.suffix recorded.
class CodeFormatter : public Formatter {
 public:
  explicit CodeFormatter(const json::Value& config);
  Result<data::Dataset> LoadFromString(std::string_view content,
                                       std::string_view origin) override;
  std::vector<std::string> Tags() const override { return {"code"}; }
};

/// The decode step of loading one file: the codec its path selects, as a
/// name and a function from the file's bytes to a dataset.
struct DatasetDecoder {
  /// "jsonl", "djds", "djds.djlz" or the formatter's name. The executor's
  /// content key includes it: one byte string decodes differently per
  /// format.
  std::string name;
  std::function<Result<data::Dataset>(std::string_view bytes,
                                      ThreadPool* pool)>
      decode;
};

/// Dispatches on the path suffix (.jsonl/.json/.txt/.md/.csv/.tsv/code
/// suffixes, plus the binary .djds / .djds.djlz containers) to the matching
/// formatter — the unified loading entry point of paper Sec. 4.1. JSONL and
/// binary containers parse/decode on `pool` when given.
DatasetDecoder DecoderFor(const std::string& path);

/// data::ReadFile, then DecoderFor(path).
Result<data::Dataset> LoadDataset(const std::string& path,
                                  ThreadPool* pool = nullptr);

/// Declared parameter schemas of the formatter OPs above.
std::vector<OpSchema> FormatterSchemas();

/// Declared effect signatures of this family (registered next to the
/// schemas; see OpEffects).
std::vector<OpEffects> FormatterEffects();

}  // namespace dj::ops

#endif  // DJ_OPS_FORMATTERS_FORMATTERS_H_
