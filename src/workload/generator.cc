#include "workload/generator.h"

#include <algorithm>
#include <cctype>

#include "common/string_util.h"
#include "text/tokenizer.h"

namespace dj::workload {
namespace {

// Word banks. Subjects/verbs/objects/modifiers compose grammatical
// sentences; domain banks flavor each style's vocabulary.
constexpr std::string_view kSubjects[] = {
    "the researchers", "the committee",  "the system",     "the model",
    "the community",   "the government", "the author",     "the students",
    "the engineers",   "the company",    "the scientists", "the teacher",
    "the network",     "the library",    "the farmers",    "the museum",
    "the journalists", "the analysts",   "the villagers",  "the observers"};

constexpr std::string_view kVerbs[] = {
    "describe",  "analyze",   "present",  "evaluate", "develop",
    "propose",   "examine",   "discover", "report",   "summarize",
    "explain",   "compare",   "improve",  "measure",  "observe",
    "document",  "implement", "study",    "review",   "investigate"};

constexpr std::string_view kObjects[] = {
    "the experimental results", "a new method",        "the ancient city",
    "the economic policy",      "the training data",   "the climate record",
    "a detailed framework",     "the historical text", "the novel approach",
    "the public dataset",       "an efficient pipeline", "the rural region",
    "the chemical process",     "the annual report",   "a formal proof",
    "the musical tradition",    "the coastal ecosystem", "the voting system",
    "the software architecture", "the medical trial"};

constexpr std::string_view kModifiers[] = {
    "with great care",        "in the final chapter", "over several years",
    "across three continents", "during the experiment", "with strong evidence",
    "in a controlled setting", "for the first time",  "with limited resources",
    "under realistic conditions", "at an unprecedented scale",
    "through careful analysis", "in collaboration with partners",
    "despite early setbacks",  "according to the records"};

constexpr std::string_view kBookPhrases[] = {
    "It was a long and quiet morning when",
    "Nobody in the village remembered exactly how",
    "She had always believed that",
    "Years later he would recall the moment when",
    "The letter arrived on a cold afternoon and",
    "In the beginning there was only the sound of",
};

constexpr std::string_view kGermanSentences[] = {
    "die forscher beschreiben das neue verfahren mit grosser sorgfalt.",
    "das komitee bewertet die ergebnisse des experiments im bericht.",
    "die studenten untersuchen die historischen texte in der bibliothek.",
    "die regierung verbessert die wirtschaftspolitik in diesem jahr.",
    "das system verarbeitet die daten schnell und zuverlaessig.",
};

constexpr std::string_view kChineseSentences[] = {
    "\xe7\xa0\x94\xe7\xa9\xb6\xe4\xba\xba\xe5\x91\x98\xe4\xbb\x94\xe7\xbb\x86"
    "\xe5\x88\x86\xe6\x9e\x90\xe4\xba\x86\xe5\xae\x9e\xe9\xaa\x8c\xe7\xbb\x93"
    "\xe6\x9e\x9c\xe3\x80\x82",
    "\xe5\xa7\x94\xe5\x91\x98\xe4\xbc\x9a\xe5\x8f\x91\xe5\xb8\x83\xe4\xba\x86"
    "\xe5\xb9\xb4\xe5\xba\xa6\xe6\x8a\xa5\xe5\x91\x8a\xe3\x80\x82",
    "\xe5\xad\xa6\xe7\x94\x9f\xe4\xbb\xac\xe5\x9c\xa8\xe5\x9b\xbe\xe4\xb9\xa6"
    "\xe9\xa6\x86\xe5\xad\xa6\xe4\xb9\xa0\xe5\x8e\x86\xe5\x8f\xb2\xe3\x80\x82",
    "\xe6\x96\xb0\xe7\x9a\x84\xe6\x96\xb9\xe6\xb3\x95\xe6\x8f\x90\xe9\xab\x98"
    "\xe4\xba\x86\xe6\x95\xb0\xe6\x8d\xae\xe5\xa4\x84\xe7\x90\x86\xe7\x9a\x84"
    "\xe6\x95\x88\xe7\x8e\x87\xe3\x80\x82",
};

constexpr std::string_view kSpamWords[] = {
    "viagra", "casino", "jackpot", "lottery", "xxx",  "porn", "gambling",
    "pills",  "cialis", "clickbait", "nsfw", "adult", "betting"};

constexpr std::string_view kCodeIdentifiers[] = {
    "buffer", "index", "count", "result", "value", "node",  "table",
    "stream", "cache", "queue", "config", "batch", "token", "handle"};

template <size_t N>
std::string_view Pick(Rng* rng, const std::string_view (&bank)[N]) {
  return bank[rng->NextBelow(N)];
}

std::string Capitalize(std::string s) {
  if (!s.empty() && s[0] >= 'a' && s[0] <= 'z') {
    s[0] = static_cast<char>(s[0] - 32);
  }
  return s;
}

std::string ArxivDocument(Rng* rng, size_t mean_words) {
  std::string doc;
  doc += "\\documentclass{article}\n\\usepackage{amsmath}\n";
  doc += "\\title{On ";
  doc += Pick(rng, kObjects);
  doc += "}\n\\author{A. Author and B. Author}\n\\begin{document}\n";
  doc += "\\maketitle\n\\section{Introduction}\n";
  size_t words = 0;
  while (words < mean_words) {
    std::string para = CorpusGenerator::CleanParagraph(rng, 3);
    words += text::CountWords(para);
    doc += para;
    doc += "\n\n";
    if (rng->Bernoulli(0.2)) {
      doc += "% reviewer note: tighten this paragraph\n";
    }
    if (rng->Bernoulli(0.15)) {
      doc += "\\begin{tabular}{ll}\na & 1 \\\\\nb & 2 \\\\\n\\end{tabular}\n";
    }
    if (rng->Bernoulli(0.3)) {
      doc += "\\section{";
      doc += Capitalize(std::string(Pick(rng, kVerbs)));
      doc += "}\n";
    }
  }
  doc += "\\begin{thebibliography}{9}\n\\bibitem{a} A. Author. ";
  doc += "A prior paper. 2019.\n\\end{thebibliography}\n\\end{document}\n";
  return doc;
}

std::string StackExchangeDocument(Rng* rng, size_t mean_words) {
  std::string doc = "Q: How do I ";
  doc += Pick(rng, kVerbs);
  doc += " ";
  doc += Pick(rng, kObjects);
  doc += "?\n\n";
  doc += CorpusGenerator::CleanParagraph(rng, 2);
  doc += "\n\nA: ";
  size_t words = text::CountWords(doc);
  while (words < mean_words) {
    std::string para = CorpusGenerator::CleanParagraph(rng, 2);
    words += text::CountWords(para);
    doc += para;
    doc += "\n\n";
    if (rng->Bernoulli(0.4)) {
      doc += "    for (int ";
      doc += Pick(rng, kCodeIdentifiers);
      doc += " = 0; i < n; ++i) process(";
      doc += Pick(rng, kCodeIdentifiers);
      doc += ");\n\n";
    }
  }
  return doc;
}

std::string CodeDocument(Rng* rng, size_t mean_words, bool high_quality) {
  std::string doc;
  if (high_quality) {
    doc += "// Copyright 2023 The Synthetic Authors.\n";
    doc += "// Licensed under the Apache License, Version 2.0.\n\n";
  }
  size_t lines = std::max<size_t>(mean_words / 8, 5);
  for (size_t i = 0; i < lines; ++i) {
    std::string_view fn = Pick(rng, kCodeIdentifiers);
    std::string_view arg = Pick(rng, kCodeIdentifiers);
    if (high_quality && rng->Bernoulli(0.3)) {
      doc += "// ";
      doc += CorpusGenerator::CleanSentence(rng);
      doc += "\n";
    }
    doc += "int ";
    doc += fn;
    doc += "_";
    doc += std::to_string(rng->NextBelow(100));
    doc += "(int ";
    doc += arg;
    doc += ") { return ";
    doc += arg;
    if (high_quality) {
      doc += " + ";
      doc += std::to_string(rng->NextBelow(10));
    } else {
      // Low-quality code: minified repetition.
      for (int k = 0; k < 4; ++k) {
        doc += "+";
        doc += arg;
      }
    }
    doc += "; }\n";
  }
  return doc;
}

std::string WebDocument(Rng* rng, size_t mean_words) {
  std::string doc;
  if (rng->Bernoulli(0.3)) {
    doc += "<div class=\"content\"><p>";
    doc += CorpusGenerator::CleanParagraph(rng, 2);
    doc += "</p></div>\n";
  }
  size_t words = text::CountWords(doc);
  while (words < mean_words) {
    std::string para = CorpusGenerator::CleanParagraph(rng, 3);
    words += text::CountWords(para);
    doc += para;
    doc += "\n\n";
  }
  if (rng->Bernoulli(0.25)) {
    doc += "Contact us at info@example.com or visit https://example.com/more\n";
  }
  return doc;
}

}  // namespace

std::string SyntheticCodeDocument(Rng* rng, size_t mean_words,
                                  bool high_quality) {
  return CodeDocument(rng, mean_words, high_quality);
}

const char* StyleName(Style style) {
  switch (style) {
    case Style::kWiki:
      return "wiki";
    case Style::kBooks:
      return "books";
    case Style::kArxiv:
      return "arxiv";
    case Style::kStackExchange:
      return "stackexchange";
    case Style::kCode:
      return "code";
    case Style::kWeb:
      return "web";
    case Style::kCrawl:
      return "crawl";
    case Style::kChinese:
      return "chinese";
  }
  return "unknown";
}

CorpusGenerator::CorpusGenerator(CorpusOptions options)
    : options_(options) {}

std::string CorpusGenerator::CleanSentence(Rng* rng) {
  std::string s = Capitalize(std::string(Pick(rng, kSubjects)));
  s += " ";
  s += Pick(rng, kVerbs);
  s += " ";
  s += Pick(rng, kObjects);
  if (rng->Bernoulli(0.7)) {
    s += " ";
    s += Pick(rng, kModifiers);
  }
  s += ".";
  return s;
}

std::string CorpusGenerator::CleanParagraph(Rng* rng, size_t sentences) {
  std::string out;
  for (size_t i = 0; i < sentences; ++i) {
    if (i > 0) out += " ";
    out += CleanSentence(rng);
  }
  return out;
}

std::string CorpusGenerator::SpamLine(Rng* rng) {
  std::string out = "buy now";
  for (int i = 0; i < 8; ++i) {
    out += " ";
    out += Pick(rng, kSpamWords);
  }
  out += " click here !!!";
  return out;
}

std::string CorpusGenerator::BoilerplateParagraph() {
  return "Home | About | Contact | Privacy Policy | Terms of Service | "
         "Subscribe to our newsletter for the latest updates.";
}

std::string CorpusGenerator::GenerateDocument(Rng* rng) const {
  switch (options_.style) {
    case Style::kWiki: {
      std::string doc;
      size_t words = 0;
      while (words < options_.mean_words) {
        std::string para = CleanParagraph(rng, 4);
        words += text::CountWords(para);
        doc += para;
        doc += "\n\n";
      }
      return doc;
    }
    case Style::kBooks: {
      std::string doc;
      size_t words = 0;
      while (words < options_.mean_words) {
        std::string para(Pick(rng, kBookPhrases));
        para += " ";
        std::string rest = CleanParagraph(rng, 4);
        rest[0] = static_cast<char>(std::tolower(rest[0]));
        para += rest;
        words += text::CountWords(para);
        doc += para;
        doc += "\n\n";
      }
      return doc;
    }
    case Style::kArxiv:
      return ArxivDocument(rng, options_.mean_words);
    case Style::kStackExchange:
      return StackExchangeDocument(rng, options_.mean_words);
    case Style::kCode:
      return CodeDocument(rng, options_.mean_words, /*high_quality=*/true);
    case Style::kWeb:
      return WebDocument(rng, options_.mean_words);
    case Style::kCrawl: {
      // Crawl text: web-like but always degraded — raw CommonCrawl pages
      // carry navigation boilerplate at minimum, usually more.
      std::string doc = WebDocument(rng, options_.mean_words / 2);
      bool degraded = false;
      if (rng->Bernoulli(0.6)) {
        doc += SpamLine(rng);
        doc += "\n";
        degraded = true;
      }
      if (rng->Bernoulli(0.5)) {
        // Keyword-stuffed word salad.
        for (int i = 0; i < 40; ++i) {
          doc += Pick(rng, kCodeIdentifiers);
          doc += " ";
        }
        doc += "\n";
        degraded = true;
      }
      if (!degraded || rng->Bernoulli(0.6)) {
        doc = BoilerplateParagraph() + "\n" + doc + "\n" +
              BoilerplateParagraph();
      }
      return doc;
    }
    case Style::kChinese: {
      std::string doc;
      for (size_t i = 0; i < std::max<size_t>(options_.mean_words / 12, 3);
           ++i) {
        doc += Pick(rng, kChineseSentences);
      }
      return doc;
    }
  }
  return "";
}

std::string CorpusGenerator::DecorateWithNoise(std::string doc,
                                               Rng* rng) const {
  if (rng->Bernoulli(options_.boilerplate_rate)) {
    doc = BoilerplateParagraph() + "\n\n" + doc + "\n" +
          BoilerplateParagraph();
  }
  if (rng->Bernoulli(options_.spam_rate)) {
    doc += "\n";
    doc += SpamLine(rng);
  }
  if (rng->Bernoulli(options_.noise_rate)) {
    // Mojibake, control characters, and an absurdly long token.
    doc += "\n\xC3\xA2\xE2\x82\xAC\xE2\x84\xA2 \x01\x02 ";
    doc.append(80, 'x');
  }
  return doc;
}

data::Dataset CorpusGenerator::Generate() {
  Rng rng(options_.seed);
  data::Dataset ds;
  std::vector<std::string> previous;
  previous.reserve(options_.num_docs);
  for (size_t i = 0; i < options_.num_docs; ++i) {
    std::string doc;
    bool duplicate = false;
    if (!previous.empty() && rng.Bernoulli(options_.exact_dup_rate)) {
      doc = previous[rng.NextBelow(previous.size())];
      duplicate = true;
    } else if (!previous.empty() && rng.Bernoulli(options_.near_dup_rate)) {
      doc = previous[rng.NextBelow(previous.size())];
      doc += " ";
      doc += CleanSentence(&rng);  // light perturbation
      duplicate = true;
    } else if (rng.Bernoulli(options_.foreign_rate)) {
      for (int s = 0; s < 6; ++s) {
        doc += kGermanSentences[rng.NextBelow(
            sizeof(kGermanSentences) / sizeof(kGermanSentences[0]))];
        doc += " ";
      }
    } else if (rng.Bernoulli(options_.short_doc_rate)) {
      doc = "ok thanks";
    } else {
      doc = GenerateDocument(&rng);
    }
    if (!duplicate) doc = DecorateWithNoise(std::move(doc), &rng);
    previous.push_back(doc);

    data::Sample sample = data::Sample::FromText(std::move(doc));
    sample.Set("meta.source", json::Value(StyleName(options_.style)));
    sample.Set("meta.doc_id", json::Value(static_cast<int64_t>(i)));
    if (options_.style == Style::kCode) {
      sample.Set("meta.language", json::Value("cpp"));
      sample.Set("meta.stars",
                 json::Value(static_cast<int64_t>(rng.NextBelow(3000))));
      sample.Set("meta.suffix", json::Value(".cpp"));
    }
    sample.Set("meta.lang", json::Value(options_.style == Style::kChinese
                                            ? "zh"
                                            : "en"));
    ds.AppendSample(std::move(sample));
  }
  return ds;
}

data::Dataset GenerateCorpusWithTokens(Style style, uint64_t approx_tokens,
                                       uint64_t seed,
                                       const CorpusOptions* base) {
  CorpusOptions options = base != nullptr ? *base : CorpusOptions{};
  options.style = style;
  options.seed = seed;
  if (options.mean_words == 0) options.mean_words = 180;
  options.num_docs = std::max<size_t>(
      1, static_cast<size_t>(approx_tokens / options.mean_words));
  return CorpusGenerator(options).Generate();
}

data::Dataset GenerateInstructionDataset(const InstructionOptions& options) {
  Rng rng(options.seed);
  data::Dataset ds;
  std::vector<std::string> previous_instructions;
  for (size_t i = 0; i < options.num_samples; ++i) {
    std::string instruction;
    if (!previous_instructions.empty() && rng.Bernoulli(options.dup_rate)) {
      instruction =
          previous_instructions[rng.NextBelow(previous_instructions.size())];
    } else {
      instruction = Capitalize(std::string(Pick(&rng, kVerbs)));
      instruction += " ";
      instruction += Pick(&rng, kObjects);
      instruction += rng.Bernoulli(0.5) ? "." : " in a few sentences.";
    }
    previous_instructions.push_back(instruction);

    std::string output;
    bool low_quality = rng.Bernoulli(options.low_quality_rate);
    if (low_quality) {
      output = rng.Bernoulli(0.5) ? "ok" : CorpusGenerator::SpamLine(&rng);
    } else {
      output = CorpusGenerator::CleanParagraph(&rng, 2 + rng.NextBelow(3));
    }

    data::Sample sample;
    sample.Set("text.instruction", json::Value(instruction));
    sample.Set("text.input", json::Value(""));
    sample.Set("text.output", json::Value(output));
    // A flat rendering for OPs that process the whole example.
    sample.Set("text.full", json::Value(instruction + "\n" + output));
    sample.Set("meta.dataset", json::Value(options.dataset_name));
    sample.Set("meta.usage", json::Value(options.usage));
    sample.Set("meta.lang", json::Value(options.lang));
    sample.Set("meta.quality_label",
               json::Value(low_quality ? "low" : "high"));
    ds.AppendSample(std::move(sample));
  }
  return ds;
}

}  // namespace dj::workload
