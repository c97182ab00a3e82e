// Table rendering in the paper's format: "23.74 ± 0.65%", and the bit
// fingerprints the byte-identity checks compare.

#pragma once

#include <string>
#include <vector>

#include "eval/statistics.h"
#include "tensor/tensor.h"

namespace fewner::eval {

/// Formats a summary (scores in [0, 1]) as a percentage cell.
std::string FormatCell(const ScoreSummary& summary);

/// 64-bit FNV-1a over the bytes of the tensors' floats, in order, as 16 hex
/// digits.  At a CI budget every F1 cell can read 0.00 and every tag O, so
/// lines carrying these hashes are what carries θ's and the served model's
/// bits from one run (or one commit) to the next.
std::string Fnv1aHex(const std::vector<tensor::Tensor>& tensors);

/// Simple fixed-width table for console output.
class Table {
 public:
  /// First column is the row label ("Methods"), others are result columns.
  explicit Table(std::vector<std::string> headers);

  void AddRow(std::vector<std::string> cells);

  /// Inserts a full-width section label (the paper's group separators, e.g.
  /// "Static Token Representation: GloVe + CNN").
  void AddSection(std::string label);

  std::string Render() const;

 private:
  struct Row {
    bool is_section = false;
    std::string section;
    std::vector<std::string> cells;
  };
  std::vector<std::string> headers_;
  std::vector<Row> rows_;
};

}  // namespace fewner::eval
