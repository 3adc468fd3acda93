// Low-discrepancy sequence generation.
//
// The explicit-NMPC technique the paper builds on (Chakrabarty et al., IEEE
// TAC 2017) samples the NMPC control law on a *low-discrepancy* grid of the
// state space before fitting the explicit approximation.  We provide a Sobol
// sequence (direction numbers for up to 16 dimensions, Joe-Kuo style
// primitive polynomials) which covers every use in this project.
#pragma once

#include <cstdint>
#include <vector>

namespace oal::common {

class SobolSequence {
 public:
  /// dim in [1, 16].
  explicit SobolSequence(std::size_t dim);

  /// Next point in [0,1)^dim.
  std::vector<double> next();

  std::size_t dimension() const { return dim_; }

 private:
  std::size_t dim_;
  std::uint64_t index_ = 0;
  std::vector<std::vector<std::uint32_t>> v_;  // direction numbers per dim
  std::vector<std::uint32_t> x_;               // current integer state per dim
};

/// Convenience: n Sobol points scaled to [lo_i, hi_i] per dimension.
std::vector<std::vector<double>> sobol_grid(std::size_t n, const std::vector<double>& lo,
                                            const std::vector<double>& hi);

}  // namespace oal::common
