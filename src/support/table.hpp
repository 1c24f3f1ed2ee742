#pragma once
// ASCII table and heat-map rendering for the benchmark harness. The paper
// reports its evaluation as heat maps (Figs. 2-5) and tables (Tables 1-2);
// these classes render the same rows/series as text.

#include <optional>
#include <string>
#include <vector>

namespace pareval::support {

/// Simple column-aligned text table.
class TextTable {
 public:
  explicit TextTable(std::vector<std::string> header);

  void add_row(std::vector<std::string> cells);
  std::string render() const;

 private:
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

/// A labelled 2-D grid of optional values: empty cells print as blank
/// (the paper's "not run" cells), present values with fixed precision.
class HeatMap {
 public:
  HeatMap(std::string title, std::vector<std::string> row_labels,
          std::vector<std::string> col_labels);

  void set(std::size_t row, std::size_t col, double value);
  std::optional<double> at(std::size_t row, std::size_t col) const;

  std::size_t rows() const { return row_labels_.size(); }
  std::size_t cols() const { return col_labels_.size(); }
  const std::string& title() const { return title_; }

  /// Render with `digits` decimals per cell.
  std::string render(int digits = 2) const;

 private:
  std::string title_;
  std::vector<std::string> row_labels_;
  std::vector<std::string> col_labels_;
  std::vector<std::optional<double>> cells_;
};

/// Render several heat maps side by side (the paper's technique columns).
std::string render_side_by_side(const std::vector<HeatMap>& maps,
                                int digits = 2);

}  // namespace pareval::support
