#include "ml/scaler.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "common/stats.h"

namespace oal::ml {

void StandardScaler::fit(const std::vector<common::Vec>& samples) {
  if (samples.empty()) throw std::invalid_argument("StandardScaler::fit: no samples");
  mean_.assign(samples.front().size(), 0.0);
  m2_.assign(samples.front().size(), 0.0);
  count_ = 0;
  for (const auto& s : samples) partial_fit(s);
}

void StandardScaler::partial_fit(const common::Vec& x) {
  if (mean_.empty()) {
    mean_.assign(x.size(), 0.0);
    m2_.assign(x.size(), 0.0);
  }
  if (x.size() != mean_.size()) throw std::invalid_argument("StandardScaler: dim mismatch");
  ++count_;
  for (std::size_t i = 0; i < x.size(); ++i) {
    const double delta = x[i] - mean_[i];
    mean_[i] += delta / static_cast<double>(count_);
    m2_[i] += delta * (x[i] - mean_[i]);
  }
}

common::Vec StandardScaler::stds() const {
  common::Vec s(mean_.size(), 1.0);
  if (count_ == 0) return s;
  for (std::size_t i = 0; i < mean_.size(); ++i) {
    const double var = m2_[i] / static_cast<double>(count_);
    s[i] = var < kConstantVariance ? 1.0 : std::max(std::sqrt(var), kMinScale);
  }
  return s;
}

common::Vec StandardScaler::transform(const common::Vec& x) const {
  TransformCache cache;
  common::Vec z;
  transform_into(x, z, cache);
  return z;
}

void StandardScaler::transform_into(const common::Vec& x, common::Vec& z,
                                    TransformCache& cache) const {
  if (x.size() != mean_.size()) throw std::invalid_argument("StandardScaler: dim mismatch");
  if (cache.count != count_) {
    cache.stds = stds();
    cache.count = count_;
  }
  z.resize(x.size());
  for (std::size_t i = 0; i < x.size(); ++i) z[i] = (x[i] - mean_[i]) / cache.stds[i];
}

void StandardScaler::export_state(std::vector<double>& out) const {
  out.push_back(static_cast<double>(mean_.size()));
  out.push_back(static_cast<double>(count_));
  out.insert(out.end(), mean_.begin(), mean_.end());
  out.insert(out.end(), m2_.begin(), m2_.end());
}

bool StandardScaler::import_state(const std::vector<double>& in, std::size_t& pos) {
  if (pos + 2 > in.size()) return false;
  const double dim_d = in[pos];
  const double count_d = in[pos + 1];
  // 2^53: every integer up to it is exactly representable as a double.
  if (!common::is_count(dim_d, 1e9) || !common::is_count(count_d, 9007199254740992.0))
    return false;
  const auto dim = static_cast<std::size_t>(dim_d);
  if (dim > (in.size() - pos - 2) / 2) return false;
  const auto first = in.begin() + static_cast<std::ptrdiff_t>(pos + 2);
  const auto last = first + static_cast<std::ptrdiff_t>(2 * dim);
  if (!std::all_of(first, last, [](double v) { return std::isfinite(v); })) return false;
  mean_.assign(first, first + static_cast<std::ptrdiff_t>(dim));
  m2_.assign(first + static_cast<std::ptrdiff_t>(dim), last);
  count_ = static_cast<std::size_t>(count_d);
  pos += 2 + 2 * dim;
  return true;
}

}  // namespace oal::ml
