#include "eval/reporting.h"

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <sstream>

#include "util/status.h"
#include "util/string_util.h"

namespace fewner::eval {

std::string FormatCell(const ScoreSummary& summary) {
  return util::FormatDouble(summary.mean * 100.0, 2) + " ± " +
         util::FormatDouble(summary.ci95 * 100.0, 2) + "%";
}

std::string Fnv1aHex(const std::vector<tensor::Tensor>& tensors) {
  uint64_t hash = 0xCBF29CE484222325ull;
  for (const tensor::Tensor& t : tensors) {
    for (float v : t.data()) {
      unsigned char bytes[sizeof(float)];
      std::memcpy(bytes, &v, sizeof(float));
      for (unsigned char b : bytes) {
        hash ^= b;
        hash *= 0x100000001B3ull;
      }
    }
  }
  char hex[17];
  std::snprintf(hex, sizeof(hex), "%016llx", static_cast<unsigned long long>(hash));
  return hex;
}

Table::Table(std::vector<std::string> headers) : headers_(std::move(headers)) {
  FEWNER_CHECK(!headers_.empty(), "table needs headers");
}

void Table::AddRow(std::vector<std::string> cells) {
  FEWNER_CHECK(cells.size() == headers_.size(),
               "row has " << cells.size() << " cells for " << headers_.size()
                          << " headers");
  Row row;
  row.cells = std::move(cells);
  rows_.push_back(std::move(row));
}

void Table::AddSection(std::string label) {
  Row row;
  row.is_section = true;
  row.section = std::move(label);
  rows_.push_back(std::move(row));
}

std::string Table::Render() const {
  std::vector<size_t> widths(headers_.size());
  for (size_t c = 0; c < headers_.size(); ++c) widths[c] = headers_[c].size();
  for (const Row& row : rows_) {
    if (row.is_section) continue;
    for (size_t c = 0; c < row.cells.size(); ++c) {
      widths[c] = std::max(widths[c], row.cells[c].size());
    }
  }
  size_t total = widths.size() * 3 + 1;
  for (size_t w : widths) total += w;

  std::ostringstream oss;
  auto rule = [&]() { oss << std::string(total, '-') << "\n"; };
  auto emit_row = [&](const std::vector<std::string>& cells) {
    oss << "|";
    for (size_t c = 0; c < cells.size(); ++c) {
      oss << " " << util::Pad(cells[c], widths[c], /*pad_left=*/c != 0) << " |";
    }
    oss << "\n";
  };
  rule();
  emit_row(headers_);
  rule();
  for (const Row& row : rows_) {
    if (row.is_section) {
      oss << "| " << util::Pad(row.section, total - 4, /*pad_left=*/false) << " |\n";
      rule();
    } else {
      emit_row(row.cells);
    }
  }
  rule();
  return oss.str();
}

}  // namespace fewner::eval
