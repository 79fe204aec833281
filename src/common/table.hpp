// Plain-text table rendering for benchmark harnesses.
//
// Every bench binary reproduces one table or figure from the paper; Table
// gives them a uniform, aligned textual form so the output can be compared
// against the thesis row-by-row.
#pragma once

#include <string>
#include <vector>

namespace clflow {

class Table {
 public:
  explicit Table(std::vector<std::string> header);

  /// Appends a row; must have the same arity as the header.
  void AddRow(std::vector<std::string> cells);

  /// Renders with column alignment and a header rule.
  [[nodiscard]] std::string ToString() const;

  /// Renders and writes to stdout.
  void Print() const;

  [[nodiscard]] const std::vector<std::string>& header() const {
    return header_;
  }
  [[nodiscard]] const std::vector<std::vector<std::string>>& rows() const {
    return rows_;
  }

  /// Formats a double with `digits` fractional digits.
  [[nodiscard]] static std::string Num(double v, int digits = 2);
  /// Formats a ratio as e.g. "4.57x".
  [[nodiscard]] static std::string Speedup(double v, int digits = 2);
  /// Formats a fraction as e.g. "37%".
  [[nodiscard]] static std::string Pct(double fraction, int digits = 0);

 private:
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace clflow
