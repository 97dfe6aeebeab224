#include "json/writer.h"

#include <charconv>
#include <cmath>
#include <string_view>
#include <system_error>

#include "common/swar.h"

namespace dj::json {
namespace {

void WriteValue(const Value& v, const WriteOptions& opts, int depth,
                std::string* out);

void Indent(int depth, std::string* out) {
  out->push_back('\n');
  out->append(static_cast<size_t>(depth) * 2, ' ');
}

void WriteNumber(const Value& v, std::string* out) {
  char buf[64];
  if (v.is_int()) {
    out->append(buf, std::to_chars(buf, buf + sizeof(buf), v.as_int()).ptr);
    return;
  }
  double d = v.as_double();
  if (!std::isfinite(d)) {
    // JSON has no Inf/NaN; mirror common libraries and emit null.
    out->append("null");
    return;
  }
  // 17 significant digits round-trip any double; take the shortest of
  // 15/16/17 that parses back equal. to_chars/from_chars are the
  // locale-free twins of printf("%.*g") and strtod, digit for digit.
  char* end = buf;
  for (int prec : {15, 16, 17}) {
    end = std::to_chars(buf, buf + sizeof(buf), d, std::chars_format::general,
                        prec)
              .ptr;
    double back = 0;
    auto parsed = std::from_chars(buf, end, back);
    if (parsed.ec == std::errc() && back == d) break;
  }
  const std::string_view sv(buf, static_cast<size_t>(end - buf));
  out->append(sv);
  // Ensure a double stays a double on re-parse.
  if (sv.find_first_of(".e") == std::string_view::npos) out->append(".0");
}

void WriteArray(const Array& arr, const WriteOptions& opts, int depth,
                std::string* out) {
  if (arr.empty()) {
    out->append("[]");
    return;
  }
  out->push_back('[');
  for (size_t i = 0; i < arr.size(); ++i) {
    if (i > 0) out->push_back(',');
    if (opts.pretty) Indent(depth + 1, out);
    WriteValue(arr[i], opts, depth + 1, out);
  }
  if (opts.pretty) Indent(depth, out);
  out->push_back(']');
}

void WriteObject(const Object& obj, const WriteOptions& opts, int depth,
                 std::string* out) {
  if (obj.empty()) {
    out->append("{}");
    return;
  }
  out->push_back('{');
  bool first = true;
  for (const auto& [key, value] : obj.entries()) {
    if (!first) out->push_back(',');
    first = false;
    if (opts.pretty) Indent(depth + 1, out);
    EscapeStringTo(key, out);
    out->push_back(':');
    if (opts.pretty) out->push_back(' ');
    WriteValue(value, opts, depth + 1, out);
  }
  if (opts.pretty) Indent(depth, out);
  out->push_back('}');
}

void WriteValue(const Value& v, const WriteOptions& opts, int depth,
                std::string* out) {
  switch (v.type()) {
    case Value::Type::kNull:
      out->append("null");
      break;
    case Value::Type::kBool:
      out->append(v.as_bool() ? "true" : "false");
      break;
    case Value::Type::kInt:
    case Value::Type::kDouble:
      WriteNumber(v, out);
      break;
    case Value::Type::kString:
      EscapeStringTo(v.as_string(), out);
      break;
    case Value::Type::kArray:
      WriteArray(v.as_array(), opts, depth, out);
      break;
    case Value::Type::kObject:
      WriteObject(v.as_object(), opts, depth, out);
      break;
  }
}

}  // namespace

void EscapeStringTo(std::string_view s, std::string* out) {
  out->reserve(out->size() + s.size() + 2);
  out->push_back('"');
  size_t i = 0;
  while (i < s.size()) {
    // Bulk-append the span that needs no escaping, then handle the one byte
    // that stopped the scan.
    size_t clean = swar::JsonCleanSpan(s.data() + i, s.size() - i);
    out->append(s.data() + i, clean);
    i += clean;
    if (i >= s.size()) break;
    unsigned char c = static_cast<unsigned char>(s[i]);
    switch (c) {
      case '"':
        out->append("\\\"");
        break;
      case '\\':
        out->append("\\\\");
        break;
      case '\b':
        out->append("\\b");
        break;
      case '\f':
        out->append("\\f");
        break;
      case '\n':
        out->append("\\n");
        break;
      case '\r':
        out->append("\\r");
        break;
      case '\t':
        out->append("\\t");
        break;
      default: {
        // c < 0x20 here: JsonCleanSpan only stops on '"', '\\', or control
        // bytes.
        static constexpr char kHex[] = "0123456789abcdef";
        const char escaped[6] = {'\\', 'u', '0', '0', kHex[c >> 4],
                                 kHex[c & 0xF]};
        out->append(escaped, sizeof(escaped));
      }
    }
    ++i;
  }
  out->push_back('"');
}

std::string EscapeString(std::string_view s) {
  std::string out;
  EscapeStringTo(s, &out);
  return out;
}

std::string Write(const Value& v, const WriteOptions& options) {
  std::string out;
  WriteValue(v, options, 0, &out);
  return out;
}

void WriteTo(const Value& v, std::string* out, const WriteOptions& options) {
  WriteValue(v, options, 0, out);
}

}  // namespace dj::json
