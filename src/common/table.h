// Console table formatter used by benches and examples to print the rows of
// the paper's tables/figures in a readable, diff-friendly layout.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

namespace oal::common {

class Table {
 public:
  explicit Table(std::vector<std::string> headers);

  void add_row(std::vector<std::string> cells);
  /// Convenience: formats doubles with the given precision.
  void add_row(const std::string& label, const std::vector<double>& values, int precision = 3);

  /// Renders with aligned columns and a header separator.
  std::string to_string() const;
  void print(std::ostream& os) const;

  static std::string fmt(double v, int precision = 3);

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace oal::common
