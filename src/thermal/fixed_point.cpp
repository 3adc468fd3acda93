#include "thermal/fixed_point.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace oal::thermal {

common::Vec LeakageModel::leakage(const common::Vec& temp_c) const {
  common::Vec p(temp_c.size());
  leakage_into(temp_c, p);
  return p;
}

// oal-lint: hot-path
void LeakageModel::leakage_into(const common::Vec& temp_c, common::Vec& out) const {
  if (temp_c.size() != p0_w.size() || p0_w.size() != k_per_c.size() || out.size() != p0_w.size())
    throw std::invalid_argument("LeakageModel: size mismatch");
  for (std::size_t i = 0; i < out.size(); ++i)
    out[i] = std::max(p0_w[i] * (1.0 + k_per_c[i] * (temp_c[i] - t0_c)), 0.0);
}
// oal-lint: hot-path-end

FixedPointSolver::FixedPointSolver(const RcThermalNetwork& net, const LeakageModel& leak)
    : ambient_c_(net.ambient_c()) {
  const std::size_t n = net.num_nodes();
  if (leak.p0_w.size() != n || leak.k_per_c.size() != n)
    throw std::invalid_argument("FixedPointSolver: leakage size mismatch");
  r_ = net.resistance_matrix();
  // Loop gain matrix: R * diag(p0 * k) — how strongly a temperature rise
  // feeds back into itself through leakage.
  common::Mat gain(n, n);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j) gain(i, j) = r_(i, j) * leak.p0_w[j] * leak.k_per_c[j];
  loop_gain_ = common::spectral_radius(gain);
  // dT = R (P_dyn + p0 (1 + k (T_amb + dT - t0)))
  //  => (I - R diag(p0 k)) dT = R (P_dyn + p0 (1 + k (T_amb - t0)))
  if (exists()) lhs_ = common::lu_factor(common::Mat::identity(n) - gain);
  leak_const_.resize(n);
  for (std::size_t i = 0; i < n; ++i)
    leak_const_[i] = leak.p0_w[i] * (1.0 + leak.k_per_c[i] * (ambient_c_ - leak.t0_c));
  rhs_p_.assign(n, 0.0);
  rhs_.assign(n, 0.0);
  rise_.assign(n, 0.0);
}

// oal-lint: hot-path
void FixedPointSolver::temperatures_into(const common::Vec& dynamic_power_w,
                                         common::Vec& temperature_c) {
  if (!exists()) throw std::logic_error("FixedPointSolver: thermal runaway, no fixed point");
  if (dynamic_power_w.size() != rhs_p_.size() || temperature_c.size() != rhs_p_.size())
    throw std::invalid_argument("FixedPointSolver: size mismatch");
  for (std::size_t i = 0; i < rhs_p_.size(); ++i) rhs_p_[i] = dynamic_power_w[i] + leak_const_[i];
  common::matvec_into(r_, rhs_p_, rhs_);
  common::lu_apply(lhs_, rhs_, rise_);
  for (std::size_t i = 0; i < rise_.size(); ++i) temperature_c[i] = ambient_c_ + rise_[i];
}
// oal-lint: hot-path-end

common::kernels::SteadyProbe FixedPointSolver::probe_operands(const double* limit_c,
                                                              const double* shape_w,
                                                              double* scratch) const {
  if (!exists()) throw std::logic_error("FixedPointSolver: thermal runaway, no fixed point");
  return {rhs_p_.size(),
          r_.raw(),
          lhs_.lu.raw(),
          lhs_.piv.data(),
          leak_const_.data(),
          ambient_c_,
          limit_c,
          shape_w,
          scratch};
}

FixedPointResult thermal_fixed_point(const RcThermalNetwork& net, const LeakageModel& leak,
                                     const common::Vec& dynamic_power_w) {
  const std::size_t n = net.num_nodes();
  if (dynamic_power_w.size() != n || leak.p0_w.size() != n)
    throw std::invalid_argument("thermal_fixed_point: size mismatch");

  FixedPointSolver solver(net, leak);
  FixedPointResult res;
  res.loop_gain = solver.loop_gain();
  res.exists = solver.exists();
  if (!res.exists) return res;
  res.temperature_c.resize(n);
  solver.temperatures_into(dynamic_power_w, res.temperature_c);
  const common::Vec p_leak = leak.leakage(res.temperature_c);
  res.total_power_w.resize(n);
  for (std::size_t i = 0; i < n; ++i) res.total_power_w[i] = dynamic_power_w[i] + p_leak[i];
  return res;
}

std::vector<common::Vec> fixed_point_iteration(const RcThermalNetwork& net,
                                               const LeakageModel& leak,
                                               const common::Vec& dynamic_power_w,
                                               std::size_t max_iters, double tol_c) {
  std::vector<common::Vec> trajectory;
  common::Vec temp(net.num_nodes(), net.ambient_c());
  trajectory.push_back(temp);
  for (std::size_t it = 0; it < max_iters; ++it) {
    const common::Vec p_leak = leak.leakage(temp);
    common::Vec total(p_leak.size());
    for (std::size_t i = 0; i < total.size(); ++i) total[i] = dynamic_power_w[i] + p_leak[i];
    const common::Vec next = net.steady_state(total);
    double delta = 0.0;
    for (std::size_t i = 0; i < next.size(); ++i) delta = std::max(delta, std::abs(next[i] - temp[i]));
    temp = next;
    trajectory.push_back(temp);
    if (delta < tol_c) break;
  }
  return trajectory;
}

}  // namespace oal::thermal
