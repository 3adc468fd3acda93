#include "thermal/rc_network.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

namespace oal::thermal {

RcThermalNetwork::RcThermalNetwork(std::vector<ThermalNodeSpec> nodes,
                                   std::vector<ThermalCoupling> couplings, double ambient_c)
    : nodes_(std::move(nodes)), ambient_c_(ambient_c) {
  const std::size_t n = nodes_.size();
  if (n == 0) throw std::invalid_argument("RcThermalNetwork: no nodes");
  g_ = common::Mat(n, n);
  cap_.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    if (nodes_[i].capacitance_j_per_k <= 0.0)
      throw std::invalid_argument("RcThermalNetwork: capacitance must be > 0");
    cap_[i] = nodes_[i].capacitance_j_per_k;
    g_(i, i) = nodes_[i].conductance_to_ambient_w_per_k;
  }
  for (const auto& c : couplings) {
    if (c.a >= n || c.b >= n || c.a == c.b)
      throw std::invalid_argument("RcThermalNetwork: bad coupling");
    g_(c.a, c.a) += c.conductance_w_per_k;
    g_(c.b, c.b) += c.conductance_w_per_k;
    g_(c.a, c.b) -= c.conductance_w_per_k;
    g_(c.b, c.a) -= c.conductance_w_per_k;
  }
  temp_.assign(n, ambient_c_);
  dtemp_.assign(n, 0.0);
  // Stability bound for forward Euler: dt < 2 * min(C_i / G_ii).
  for (std::size_t i = 0; i < n; ++i) min_tau_ = std::min(min_tau_, cap_[i] / g_(i, i));
}

RcThermalNetwork RcThermalNetwork::mobile_soc(double ambient_c) {
  // Node order: 0 big cluster, 1 little cluster, 2 GPU, 3 PCB/battery,
  // 4 device skin.  Capacitances/conductances in the range of published
  // smartphone compact models: silicon nodes are fast (seconds), the PCB
  // and skin are slow (minutes).
  std::vector<ThermalNodeSpec> nodes{
      {"big", 6.0, 0.010},
      {"little", 4.0, 0.010},
      {"gpu", 5.0, 0.010},
      {"pcb", 120.0, 0.15},
      {"skin", 250.0, 0.55},
  };
  std::vector<ThermalCoupling> couplings{
      {0, 1, 0.80},  // big <-> little (shared die)
      {0, 2, 0.55},  // big <-> gpu
      {1, 2, 0.55},
      {0, 3, 0.45},  // die <-> pcb
      {1, 3, 0.40},
      {2, 3, 0.45},
      {3, 4, 0.60},  // pcb <-> skin
  };
  return RcThermalNetwork(std::move(nodes), std::move(couplings), ambient_c);
}

void RcThermalNetwork::set_temperatures(const common::Vec& t) {
  if (t.size() != temp_.size()) throw std::invalid_argument("set_temperatures: size mismatch");
  std::copy(t.begin(), t.end(), temp_.begin());
}

// oal-lint: hot-path
void RcThermalNetwork::step(const common::Vec& power_w, double dt_s) {
  if (power_w.size() != temp_.size()) throw std::invalid_argument("step: power size mismatch");
  if (!(dt_s > 0.0)) throw std::invalid_argument("step: dt must be > 0");
  // Sub-step at 0.2x the cached stability bound.
  const double h_max = max_substep_s();
  const double count = std::ceil(dt_s / h_max);
  if (!(count <= std::numeric_limits<int>::max()))
    throw std::invalid_argument("step: dt needs more substeps than an int holds");
  const int substeps = std::max(1, static_cast<int>(count));
  const double h = dt_s / substeps;
  // C dT/dt = P - G (T - T_amb): G's diagonal carries ambient legs plus
  // coupling sums, off-diagonals are negated couplings (Laplacian form).
  for (int s = 0; s < substeps; ++s) {
    for (std::size_t i = 0; i < temp_.size(); ++i) {
      double flow = power_w[i];
      for (std::size_t j = 0; j < temp_.size(); ++j) flow -= g_(i, j) * (temp_[j] - ambient_c_);
      dtemp_[i] = flow / cap_[i];
    }
    for (std::size_t i = 0; i < temp_.size(); ++i) temp_[i] += h * dtemp_[i];
  }
}
// oal-lint: hot-path-end

common::Vec RcThermalNetwork::steady_state(const common::Vec& power_w) const {
  if (power_w.size() != temp_.size()) throw std::invalid_argument("steady_state: size mismatch");
  const common::Vec delta = common::cholesky_solve(g_, power_w);
  common::Vec t(delta.size());
  for (std::size_t i = 0; i < t.size(); ++i) t[i] = ambient_c_ + delta[i];
  return t;
}

common::Mat RcThermalNetwork::system_matrix() const {
  const std::size_t n = temp_.size();
  common::Mat a(n, n);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j) a(i, j) = -g_(i, j) / cap_[i];
  return a;
}

common::Mat RcThermalNetwork::resistance_matrix() const { return common::inverse(g_); }

}  // namespace oal::thermal
