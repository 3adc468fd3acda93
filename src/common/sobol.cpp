#include "common/sobol.h"

#include <stdexcept>

namespace oal::common {

namespace {

// Primitive polynomial degrees, coefficients (a) and initial direction
// numbers (m) for dimensions 2..16, following the classic Joe-Kuo table.
// Dimension 1 is the van der Corput sequence (all m_i = 1).
struct DimInit {
  unsigned degree;
  unsigned a;                          // polynomial coefficient bits
  std::vector<std::uint32_t> m_init;   // first `degree` m values (odd)
};

const DimInit kDims[] = {
    {1, 0, {1}},                      // dim 2
    {2, 1, {1, 3}},                   // dim 3
    {3, 1, {1, 3, 1}},                // dim 4
    {3, 2, {1, 1, 1}},                // dim 5
    {4, 1, {1, 1, 3, 3}},             // dim 6
    {4, 4, {1, 3, 5, 13}},            // dim 7
    {5, 2, {1, 1, 5, 5, 17}},         // dim 8
    {5, 4, {1, 1, 5, 5, 5}},          // dim 9
    {5, 7, {1, 1, 7, 11, 19}},        // dim 10
    {5, 11, {1, 1, 5, 1, 1}},         // dim 11
    {5, 13, {1, 1, 1, 3, 11}},        // dim 12
    {5, 14, {1, 3, 5, 5, 31}},        // dim 13
    {6, 1, {1, 3, 3, 9, 7, 49}},      // dim 14
    {6, 13, {1, 1, 1, 15, 21, 21}},   // dim 15
    {6, 16, {1, 3, 1, 13, 27, 49}},   // dim 16
};

constexpr unsigned kBits = 32;

}  // namespace

SobolSequence::SobolSequence(std::size_t dim) : dim_(dim) {
  if (dim < 1 || dim > 16) throw std::invalid_argument("SobolSequence: dim must be in [1,16]");
  v_.resize(dim);
  x_.assign(dim, 0);

  // Dimension 1: van der Corput (v_k = 1 << (32-k)).
  v_[0].resize(kBits);
  for (unsigned k = 0; k < kBits; ++k) v_[0][k] = 1u << (31 - k);

  for (std::size_t d = 1; d < dim; ++d) {
    const DimInit& di = kDims[d - 1];
    const unsigned s = di.degree;
    std::vector<std::uint32_t> m(kBits);
    for (unsigned k = 0; k < s; ++k) m[k] = di.m_init[k];
    for (unsigned k = s; k < kBits; ++k) {
      std::uint32_t val = m[k - s] ^ (m[k - s] << s);
      for (unsigned j = 1; j < s; ++j) {
        if ((di.a >> (s - 1 - j)) & 1u) val ^= m[k - j] << j;
      }
      m[k] = val;
    }
    v_[d].resize(kBits);
    for (unsigned k = 0; k < kBits; ++k) v_[d][k] = m[k] << (31 - k);
  }
}

std::vector<double> SobolSequence::next() {
  // Gray-code update: point k is obtained from point k-1 by flipping the
  // direction number indexed by the count of trailing one-bits of k-1.
  std::vector<double> p(dim_);
  if (index_ == 0) {
    // First point is the origin.
    ++index_;
    return p;
  }
  std::uint64_t c = 0;
  std::uint64_t idx = index_ - 1;
  while (idx & 1ULL) {
    idx >>= 1;
    ++c;
  }
  if (c >= kBits) throw std::runtime_error("SobolSequence exhausted");
  for (std::size_t d = 0; d < dim_; ++d) {
    x_[d] ^= v_[d][c];
    p[d] = static_cast<double>(x_[d]) * 0x1.0p-32;
  }
  ++index_;
  return p;
}

std::vector<std::vector<double>> sobol_grid(std::size_t n, const std::vector<double>& lo,
                                            const std::vector<double>& hi) {
  if (lo.size() != hi.size()) throw std::invalid_argument("sobol_grid: lo/hi size mismatch");
  SobolSequence seq(lo.size());
  (void)seq.next();  // drop the all-zeros point
  std::vector<std::vector<double>> pts;
  pts.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    std::vector<double> p = seq.next();
    for (std::size_t d = 0; d < p.size(); ++d) p[d] = lo[d] + (hi[d] - lo[d]) * p[d];
    pts.push_back(std::move(p));
  }
  return pts;
}

}  // namespace oal::common
