// Golden test of the refine-path OPs: the mappers of pretrain_arxiv, the
// stats filters that recipe runs, character_repetition_filter and a
// WordsLower lexicon filter, pinned to recorded output bytes.
//
// The benchmark's byte oracle compares two plans of one binary, so a kernel
// change that moves both plans alike passes it. These digests were recorded
// from an earlier build of the text kernels: any change to a mapper's output
// bytes or to a stat value shows here.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/thread_pool.h"
#include "data/dataset.h"
#include "data/io.h"
#include "json/parser.h"
#include "ops/registry.h"
#include "test_sha256.h"
#include "workload/generator.h"

namespace dj::ops {
namespace {

json::Value Config(std::string_view text) {
  auto r = json::Parse(text);
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  return std::move(r).value();
}

data::Sample TextRow(json::Value text) {
  json::Object fields;
  fields.Set("text", std::move(text));
  return data::Sample(std::move(fields));
}

/// A "References" heading in both halves of a document: only the last one,
/// past the middle, may cut.
std::string TwoReferencesDoc() {
  std::string doc = "Intro paragraph about graphs and trees.\n";
  doc += "References\n[1] An early citation in the first half.\n";
  for (int i = 0; i < 12; ++i) {
    doc += "Body line " + std::to_string(i) +
           " discusses the method in some detail.\n";
  }
  doc += "References\n[2] The real bibliography.\n[3] Another entry.\n";
  return doc;
}

/// Two "References" headings past the middle: the cut is at the last one.
std::string TwoLateReferencesDoc() {
  std::string doc;
  for (int i = 0; i < 12; ++i) {
    doc += "Body line " + std::to_string(i) + " states a result.\n";
  }
  doc += "References\n[1] Cited inside an appendix.\nMore appendix text.\n";
  doc += "References\n[2] The closing bibliography.\n";
  return doc;
}

/// One 5-word phrase repeated in changing letter case: its word n-grams
/// repeat only after case folding.
std::string MixedCaseRepeatsDoc() {
  const char* const phrases[] = {"Alpha beta Gamma delta Epsilon",
                                 "alpha BETA gamma Delta epsilon",
                                 "ALPHA Beta gamma DELTA EPSILON"};
  std::string doc;
  for (int i = 0; i < 12; ++i) {
    doc += phrases[i % 3];
    doc += i % 4 == 3 ? ".\n" : " ";
  }
  return doc;
}

/// Seeded arXiv and web documents plus hand-written rows for the text
/// kernels' edge cases: Latin-1, Greek and CJK text; malformed, truncated,
/// overlong, surrogate and out-of-range UTF-8; the two mojibake patterns;
/// CRLF line ends; LaTeX macros, tables and headings; word repeats that
/// differ only in case; and rows without a string text.
data::Dataset RefineCorpus() {
  workload::CorpusOptions arxiv;
  arxiv.style = workload::Style::kArxiv;
  arxiv.num_docs = 120;
  arxiv.mean_words = 150;
  arxiv.noise_rate = 0.2;
  arxiv.seed = 17;
  data::Dataset ds = workload::CorpusGenerator(arxiv).Generate();

  workload::CorpusOptions web;
  web.style = workload::Style::kWeb;
  web.num_docs = 80;
  web.near_dup_rate = 0.1;
  web.boilerplate_rate = 0.3;
  web.spam_rate = 0.2;
  web.noise_rate = 0.3;
  web.foreign_rate = 0.1;
  web.short_doc_rate = 0.1;
  web.seed = 23;
  data::Dataset web_ds = workload::CorpusGenerator(web).Generate();
  for (size_t i = 0; i < web_ds.NumRows(); ++i) {
    ds.AppendSample(web_ds.Row(i).Materialize());
  }

  const std::string edge_texts[] = {
      // Latin-1, Greek, Cyrillic and CJK words, NBSP and ideographic space.
      "Caf\xC3\xA9 na\xC3\xAFve \xC3\x9C" "BER stra\xC3\x9F" "e \xC3\x97 "
      "\xCE\x91\xCE\xBB\xCF\x86\xCE\xB1 \xD0\x9F\xD1\x80\xD0\xB8 "
      "\xE4\xB8\xAD\xE6\x96\x87\xE3\x80\x80\xE6\x96\x87\xE5\xAD\x97"
      "\xC2\xA0MiXeD CaSe WORDS words Words.",
      // Malformed: stray continuation bytes, invalid lead bytes.
      "bad \x80\x81 bytes \xFF\xFE in \xC0 the middle \xBF of text",
      // Overlong encodings, a surrogate and a codepoint above U+10FFFF.
      "over \xC0\xAF long \xE0\x80\xAF enc \xF0\x80\x80\xAF sur "
      "\xED\xA0\x80 big \xF4\x90\x80\x80 end",
      // Sequences truncated by the end of the text.
      "truncated two \xC3", "truncated three \xE4\xB8",
      "truncated four \xF0\x9F\x98",
      // Mojibake: right quote and NBSP read as Latin-1, plus a BOM,
      // zero-width space, replacement char and control bytes.
      "It\xC3\xA2\xE2\x82\xAC\xE2\x84\xA2s a \xC3\xA2\xE2\x82\xAC\xC5\x93quote"
      "\xC3\xA2\xE2\x82\xAC\xC2\x9D \xC3\xA2\xE2\x82\xAC\xE2\x80\x9C dash"
      "\xC3\x82\xC2\xA0space \xEF\xBB\xBF" "bom\xE2\x80\x8Bzw \xEF\xBF\xBD"
      " ctl\x01\x02\x7F end",
      // CRLF line ends, tabs and runs of blank lines.
      "line one\r\nline  two\t\ttabbed\r\n\r\n\r\n\r\nline three \r\n  "
      "indented\r\n",
      // Macros, comments, a table and a bibliography command.
      "\\documentclass{article}\n\\newcommand{\\R}{\\mathbb{R}}\n"
      "\\def\\eps{\\varepsilon}\n\\begin{document}\nLet $x \\in \\R$ and "
      "\\eps{} be small. % a comment\n100\\% sure.\n"
      "a | b | c\n---|---|---\n1 & 2 & 3 \\\\\n"
      "Closing words of the paper.\n\\bibliography{refs}\n",
      TwoReferencesDoc(),
      TwoLateReferencesDoc(),
      MixedCaseRepeatsDoc(),
      "Short text.\n\n# References\nREFERENCES\n",
      "repeat repeat repeat repeat repeat repeat repeat repeat repeat "
      "repeat repeat repeat repeat repeat repeat repeat repeat repeat",
      "",
  };
  for (const std::string& t : edge_texts) {
    ds.AppendSample(TextRow(json::Value(t)));
  }
  ds.AppendSample(TextRow(json::Value(int64_t{42})));
  json::Object meta_only;
  meta_only.Set("meta", json::Value(std::string("no text")));
  ds.AppendSample(data::Sample(std::move(meta_only)));
  return ds;
}

struct OpSpec {
  const char* name;
  const char* config;
};

constexpr OpSpec kMappers[] = {
    {"expand_macro_mapper", "{}"},
    {"remove_header_mapper", "{}"},
    {"remove_comments_mapper", "{}"},
    {"remove_bibliography_mapper", "{}"},
    {"remove_table_text_mapper", "{}"},
    {"fix_unicode_mapper", "{}"},
    {"whitespace_normalization_mapper", "{}"},
};

constexpr OpSpec kFilters[] = {
    {"text_length_filter", R"({"min": 200})"},
    {"word_num_filter", R"({"min": 50})"},
    {"alphanumeric_filter", R"({"min": 0.5})"},
    {"special_characters_filter", R"({"max": 0.4})"},
    {"word_repetition_filter", R"({"max": 0.5})"},
    {"character_repetition_filter", "{}"},
    {"stopwords_filter", "{}"},
};

/// Computes every filter's stats and keep decisions over all rows of `ds`
/// and returns its JSONL (stats column included) followed by one line of
/// keep bits per row. With `shared_context` one SampleContext per row
/// serves all filters, as in a fused unit; without it each filter builds
/// its own.
std::string FilterStats(data::Dataset ds, ThreadPool* pool,
                        bool shared_context) {
  std::vector<std::unique_ptr<Op>> owned;
  std::vector<const Filter*> filters;
  for (const OpSpec& spec : kFilters) {
    auto op = OpRegistry::Global().Create(spec.name, Config(spec.config));
    EXPECT_TRUE(op.ok()) << spec.name << ": " << op.status().ToString();
    if (!op.ok()) return {};
    filters.push_back(static_cast<const Filter*>(op.value().get()));
    owned.push_back(std::move(op).value());
  }
  ds.EnsureColumn(data::kStatsField);
  std::vector<std::string> keep(ds.NumRows(), std::string(filters.size(), '?'));
  Status st = ds.Map(
      [&](data::RowRef row) -> Status {
        SampleContext ctx(row.GetText(data::kTextField));
        for (const Filter* f : filters) {
          DJ_RETURN_IF_ERROR(
              f->ComputeStats(row, shared_context ? &ctx : nullptr));
        }
        for (size_t k = 0; k < filters.size(); ++k) {
          DJ_ASSIGN_OR_RETURN(bool kept, filters[k]->KeepRow(row));
          keep[row.row()][k] = kept ? '1' : '0';
        }
        return Status::Ok();
      },
      pool);
  EXPECT_TRUE(st.ok()) << st.ToString();
  std::string out = data::ToJsonl(ds);
  for (const std::string& bits : keep) {
    out += bits;
    out.push_back('\n');
  }
  return out;
}

/// The filters' output over the raw corpus (so they also meet the malformed
/// bytes the mappers would remove), then the mappers' output with the
/// filters' stats over it.
std::string RunRefine(ThreadPool* pool, bool shared_context) {
  data::Dataset ds = RefineCorpus();
  std::string out = FilterStats(ds, pool, shared_context);
  for (const OpSpec& spec : kMappers) {
    auto op = OpRegistry::Global().Create(spec.name, Config(spec.config));
    EXPECT_TRUE(op.ok()) << spec.name << ": " << op.status().ToString();
    if (!op.ok()) return {};
    const auto* mapper = static_cast<const Mapper*>(op.value().get());
    Status st = ds.Map(
        [mapper](data::RowRef row) { return mapper->ProcessRow(row, nullptr); },
        pool);
    EXPECT_TRUE(st.ok()) << spec.name << ": " << st.ToString();
  }
  return out + FilterStats(std::move(ds), pool, shared_context);
}

TEST(RefineGoldenTest, SerialAndPooledMatchRecordedDigest) {
  // Recorded from the text kernels before they moved to word views, the
  // inline ASCII decode and run-at-a-time copies.
  constexpr const char* kDigest =
      "5162f4b4c9994b17217131bd2ec6b44c7d7351e5848f7f658a087c4bb6e563ac";
  ThreadPool pool(4);
  const std::string serial = RunRefine(nullptr, /*shared_context=*/true);
  const std::string pooled = RunRefine(&pool, /*shared_context=*/true);
  const std::string unshared = RunRefine(&pool, /*shared_context=*/false);
  ASSERT_FALSE(serial.empty());
  EXPECT_EQ(serial, pooled);
  EXPECT_EQ(serial, unshared);
  EXPECT_EQ(test_util::Sha256Hex(serial), kDigest);
}

}  // namespace
}  // namespace dj::ops
