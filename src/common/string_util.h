#ifndef DJ_COMMON_STRING_UTIL_H_
#define DJ_COMMON_STRING_UTIL_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace dj {

/// Splits `s` on `sep`, keeping empty pieces (like Python's str.split(sep)).
std::vector<std::string> Split(std::string_view s, char sep);

/// Splits `s` on any run of ASCII whitespace, dropping empty pieces.
std::vector<std::string> SplitWhitespace(std::string_view s);

/// Splits `s` into lines on '\n' (a trailing newline does not yield an empty
/// final line).
std::vector<std::string> SplitLines(std::string_view s);

/// Joins `parts` with `sep`.
std::string Join(const std::vector<std::string>& parts, std::string_view sep);

/// Removes leading/trailing ASCII whitespace.
std::string_view StripAsciiWhitespace(std::string_view s);

/// The one ASCII case fold: 'A'..'Z' become 'a'..'z' and every other byte
/// is kept. Unlike std::tolower it ignores the C locale, and it never alters
/// a byte of a multi-byte UTF-8 sequence, so a folded text keeps every byte
/// offset (and every token boundary) of the original.
inline char AsciiLower(char c) {
  return c >= 'A' && c <= 'Z' ? static_cast<char>(c + ('a' - 'A')) : c;
}

/// The twin of AsciiLower: 'a'..'z' become 'A'..'Z', every other byte is
/// kept.
inline char AsciiUpper(char c) {
  return c >= 'a' && c <= 'z' ? static_cast<char>(c - ('a' - 'A')) : c;
}

/// AsciiLower / AsciiUpper over every byte of `s`.
std::string AsciiToLower(std::string_view s);
std::string AsciiToUpper(std::string_view s);

bool StartsWith(std::string_view s, std::string_view prefix);
bool EndsWith(std::string_view s, std::string_view suffix);
bool Contains(std::string_view s, std::string_view needle);

/// Start of the last occurrence of `needle` in `s`, or npos; the same answer
/// as std::string_view::rfind. Candidates are found with memrchr on the
/// needle's first byte, so only positions holding that byte are compared.
size_t FindLast(std::string_view s, std::string_view needle);

/// Replaces every occurrence of `from` (must be non-empty) with `to`.
std::string ReplaceAll(std::string_view s, std::string_view from,
                       std::string_view to);

/// Parses a non-negative/negative integer or a double; returns false on any
/// trailing garbage or empty input.
bool ParseInt64(std::string_view s, int64_t* out);
bool ParseDouble(std::string_view s, double* out);

/// Formats a double with up to `precision` significant decimals, trimming
/// trailing zeros ("1.5", "3", "0.25").
std::string FormatDouble(double v, int precision = 6);

/// Formats a byte count using binary units ("1.50 MiB").
std::string FormatBytes(uint64_t bytes);

/// Levenshtein edit distance between `a` and `b` (unit-cost insert/delete/
/// substitute, byte-wise). Powers "did you mean ...?" suggestions.
size_t EditDistance(std::string_view a, std::string_view b);

}  // namespace dj

#endif  // DJ_COMMON_STRING_UTIL_H_
