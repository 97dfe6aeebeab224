#include "text/normalize.h"

#include <unordered_set>
#include <vector>

#include "common/string_util.h"
#include "text/utf8.h"

namespace dj::text {

std::string NormalizeWhitespace(std::string_view s) {
  constexpr size_t kNoRun = std::string_view::npos;
  std::string out;
  out.reserve(s.size());
  int pending_newlines = 0;
  bool pending_space = false;
  bool at_line_start = true;
  // Non-whitespace codepoints are copied a run at a time: pending
  // separators change only on whitespace, so they are emitted once, where a
  // run starts.
  size_t run_start = kNoRun;
  size_t pos = 0;
  while (pos < s.size()) {
    size_t start = pos;
    uint32_t cp;
    DecodeUtf8(s, &pos, &cp);
    if (!IsWhitespaceCp(cp)) {
      if (run_start != kNoRun) continue;
      if (pending_newlines > 0) {
        if (!out.empty()) {
          out.append(pending_newlines >= 2 ? "\n\n" : "\n");
        }
        pending_newlines = 0;
        pending_space = false;
      } else if (pending_space) {
        out.push_back(' ');
        pending_space = false;
      }
      run_start = start;
      at_line_start = false;
      continue;
    }
    if (run_start != kNoRun) {
      out.append(s.substr(run_start, start - run_start));
      run_start = kNoRun;
    }
    if (cp == '\n') {
      ++pending_newlines;
      pending_space = false;
      at_line_start = true;
    } else if (cp != '\r' && !at_line_start) {
      pending_space = true;
    }
  }
  if (run_start != kNoRun) out.append(s.substr(run_start));
  return out;
}

std::string NormalizePunctuation(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  size_t pos = 0;
  while (pos < s.size()) {
    size_t start = pos;
    uint32_t cp;
    DecodeUtf8(s, &pos, &cp);
    switch (cp) {
      case 0x2018:  // ' left single quote
      case 0x2019:  // ' right single quote
      case 0x201A:
      case 0x2032:
        out.push_back('\'');
        break;
      case 0x201C:  // " left double quote
      case 0x201D:  // " right double quote
      case 0x201E:
      case 0x2033:
        out.push_back('"');
        break;
      case 0x2013:  // en dash
      case 0x2014:  // em dash
      case 0x2015:
      case 0x2212:  // minus sign
        out.push_back('-');
        break;
      case 0x2026:  // ellipsis
        out.append("...");
        break;
      case 0x00A0:  // NBSP
        out.push_back(' ');
        break;
      case 0x00B7:  // middle dot
        out.push_back('.');
        break;
      default:
        // Fullwidth ASCII block FF01..FF5E maps to 0x21..0x7E.
        if (cp >= 0xFF01 && cp <= 0xFF5E) {
          out.push_back(static_cast<char>(cp - 0xFF01 + 0x21));
        } else {
          out.append(s.substr(start, pos - start));
        }
    }
  }
  return out;
}

std::string FixUnicode(std::string_view s) {
  // First pass: textual replacements for the classic UTF-8-as-Latin-1
  // mojibake ("â€™" for right quote, etc.). Every pattern starts with byte
  // 0xC3, so text without that byte skips the pass and its copies.
  static const std::pair<std::string_view, std::string_view> kMojibake[] = {
      {"\xC3\xA2\xE2\x82\xAC\xE2\x84\xA2", "'"},   // â€™
      {"\xC3\xA2\xE2\x82\xAC\xC5\x93", "\""},      // â€œ
      {"\xC3\xA2\xE2\x82\xAC\xC2\x9D", "\""},      // â€<9d>
      {"\xC3\xA2\xE2\x82\xAC\xE2\x80\x9C", "-"},   // â€“
      {"\xC3\x82\xC2\xA0", " "},                   // Â<nbsp>
  };
  std::string fixed;
  std::string_view text = s;
  if (text.find('\xC3') != std::string_view::npos) {
    fixed = std::string(s);
    for (const auto& [from, to] : kMojibake) {
      fixed = ReplaceAll(fixed, from, to);
    }
    text = fixed;
  }
  // Second pass: drop replacement chars, control chars, BOM, zero-width.
  // Kept codepoints are copied a run at a time.
  std::string out;
  out.reserve(text.size());
  size_t run_start = 0;
  size_t pos = 0;
  while (pos < text.size()) {
    size_t start = pos;
    uint32_t cp;
    bool valid = DecodeUtf8(text, &pos, &cp);
    bool drop = !valid || cp == 0xFFFD ||
                (cp < 0x20 && cp != '\n' && cp != '\t') || cp == 0x7F ||
                cp == 0xFEFF || (cp >= 0x200B && cp <= 0x200F);
    if (drop) {
      out.append(text.substr(run_start, start - run_start));
      run_start = pos;
    }
  }
  out.append(text.substr(run_start));
  return out;
}

std::string RemoveChars(std::string_view s, std::string_view chars) {
  std::unordered_set<uint32_t> drop;
  {
    size_t pos = 0;
    uint32_t cp;
    while (pos < chars.size()) {
      DecodeUtf8(chars, &pos, &cp);
      drop.insert(cp);
    }
  }
  std::string out;
  out.reserve(s.size());
  size_t pos = 0;
  while (pos < s.size()) {
    size_t start = pos;
    uint32_t cp;
    DecodeUtf8(s, &pos, &cp);
    if (drop.count(cp) > 0) continue;
    out.append(s.substr(start, pos - start));
  }
  return out;
}

}  // namespace dj::text
