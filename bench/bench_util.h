#ifndef DJ_BENCH_BENCH_UTIL_H_
#define DJ_BENCH_BENCH_UTIL_H_

#include <cstdio>
#include <string>
#include <utility>
#include <vector>

namespace dj::bench {

/// Prints a section banner naming the paper artifact being reproduced.
inline void Banner(const std::string& title, const std::string& paper_ref) {
  std::printf("\n================================================================\n");
  std::printf("%s\n", title.c_str());
  std::printf("reproduces: %s\n", paper_ref.c_str());
  std::printf("================================================================\n");
}

/// Simple aligned table printer: column widths derived from the header.
class Table {
 public:
  explicit Table(std::vector<std::string> headers)
      : headers_(std::move(headers)) {
    widths_.reserve(headers_.size());
    for (const auto& header : headers_) {
      widths_.push_back(header.size() < 8 ? 10 : header.size() + 2);
    }
  }

  void Row(const std::vector<std::string>& cells) { rows_.push_back(cells); }

  void Print() {
    // Widen columns to fit the widest cell.
    for (const auto& row : rows_) {
      for (size_t i = 0; i < row.size() && i < widths_.size(); ++i) {
        if (row[i].size() + 2 > widths_[i]) widths_[i] = row[i].size() + 2;
      }
    }
    PrintAligned();
  }

 private:
  void PrintAligned() const {
    auto print_row = [&](const std::vector<std::string>& cells) {
      for (size_t i = 0; i < cells.size(); ++i) {
        std::printf("%-*s", static_cast<int>(i < widths_.size() ? widths_[i]
                                                                : 12),
                    cells[i].c_str());
      }
      std::printf("\n");
    };
    print_row(headers_);
    size_t total = 0;
    for (size_t width : widths_) total += width;
    std::printf("%s\n", std::string(total, '-').c_str());
    for (const auto& row : rows_) print_row(row);
  }

  std::vector<std::string> headers_;
  std::vector<size_t> widths_;
  std::vector<std::vector<std::string>> rows_;
};

inline std::string Fmt(double v, int precision = 2) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", precision, v);
  return buf;
}

inline std::string FmtPct(double v, int precision = 1) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f%%", precision, v * 100);
  return buf;
}

}  // namespace dj::bench

#endif  // DJ_BENCH_BENCH_UTIL_H_
