#include "common/table.h"

#include <algorithm>
#include <iomanip>
#include <ostream>
#include <sstream>
#include <stdexcept>

namespace oal::common {

Table::Table(std::vector<std::string> headers) : headers_(std::move(headers)) {
  if (headers_.empty()) throw std::invalid_argument("Table: empty header list");
}

void Table::add_row(std::vector<std::string> cells) {
  if (cells.size() != headers_.size())
    throw std::invalid_argument("Table::add_row: cell count != header count");
  rows_.push_back(std::move(cells));
}

void Table::add_row(const std::string& label, const std::vector<double>& values, int precision) {
  std::vector<std::string> cells;
  cells.reserve(values.size() + 1);
  cells.push_back(label);
  for (double v : values) cells.push_back(fmt(v, precision));
  add_row(std::move(cells));
}

std::string Table::fmt(double v, int precision) {
  std::ostringstream os;
  os << std::fixed << std::setprecision(precision) << v;
  return os.str();
}

std::string Table::to_string() const {
  std::vector<std::size_t> width(headers_.size());
  for (std::size_t c = 0; c < headers_.size(); ++c) width[c] = headers_[c].size();
  for (const auto& row : rows_)
    for (std::size_t c = 0; c < row.size(); ++c) width[c] = std::max(width[c], row[c].size());

  std::ostringstream os;
  auto emit_row = [&](const std::vector<std::string>& row) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      os << "| " << std::left << std::setw(static_cast<int>(width[c])) << row[c] << ' ';
    }
    os << "|\n";
  };
  emit_row(headers_);
  for (std::size_t c = 0; c < headers_.size(); ++c) {
    os << "|" << std::string(width[c] + 2, '-');
  }
  os << "|\n";
  for (const auto& row : rows_) emit_row(row);
  return os.str();
}

void Table::print(std::ostream& os) const { os << to_string(); }

}  // namespace oal::common
