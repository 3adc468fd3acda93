// Power-temperature fixed-point analysis (Bhat et al., ACM TECS 2017; paper
// Section III-A).
//
// Leakage power grows with temperature, and temperature grows with power:
//     T* = T_amb + R (P_dyn + P_leak(T*)),   P_leak(T) = P_0 (1 + k (T - T_0)).
// The *thermal fixed point* T* is the steady-state temperature under a given
// average dynamic power.  This module derives:
//   * existence & stability: the closed loop is a linear map with gain
//     matrix R * diag(p0 * k); a unique stable fixed point exists iff its
//     spectral radius is < 1 (otherwise thermal runaway);
//   * the fixed point itself (closed form via linear solve);
//   * a runtime iterative finder matching what firmware would run.
#pragma once

#include "common/kernels.h"
#include "common/matrix.h"
#include "thermal/rc_network.h"

namespace oal::thermal {

/// Per-node leakage model P_leak_i(T_i) = p0_i * (1 + k_i * (T_i - t0_c)).
struct LeakageModel {
  common::Vec p0_w;    ///< leakage at reference temperature
  common::Vec k_per_c; ///< relative leakage growth per degree
  double t0_c = 25.0;

  common::Vec leakage(const common::Vec& temp_c) const;
  /// Same values into a caller-sized buffer (out.size() == p0_w.size()).
  void leakage_into(const common::Vec& temp_c, common::Vec& out) const;
};

/// The closed-form fixed point with everything that does not depend on the
/// dynamic power factored once: R = G^-1, the loop gain (spectral radius of
/// R diag(p0 k)), the LU factors of (I - R diag(p0 k)) and the constant
/// leakage term p0 (1 + k (T_amb - t0)).  Each solve is then one R*rhs and
/// two triangular sweeps on member scratch (allocation-free).
class FixedPointSolver {
 public:
  /// Throws std::invalid_argument if the leakage vectors do not match the
  /// network, std::runtime_error if G is singular.
  FixedPointSolver(const RcThermalNetwork& net, const LeakageModel& leak);

  double loop_gain() const { return loop_gain_; }
  /// A unique stable fixed point exists iff the loop gain is < 1.
  bool exists() const { return loop_gain_ < 1.0; }

  /// Fixed-point temperatures under `dynamic_power_w` into a caller-sized
  /// `temperature_c`.  Throws std::logic_error under thermal runaway.
  void temperatures_into(const common::Vec& dynamic_power_w, common::Vec& temperature_c);

  /// The solver's factors as common::kernels::steady_probe operands, which
  /// solve the same fixed points at several power scales at once.  The
  /// views are read-only and live as long as the solver; the other
  /// operands are the caller's.  Throws std::logic_error under thermal
  /// runaway.
  common::kernels::SteadyProbe probe_operands(const double* limit_c, const double* shape_w,
                                              double* scratch) const;

 private:
  double ambient_c_;
  double loop_gain_ = 0.0;
  common::Mat r_;           // R = G^-1
  common::LuFactors lhs_;   // LU of (I - R diag(p0 k)); empty under runaway
  common::Vec leak_const_;  // p0 (1 + k (T_amb - t0))
  common::Vec rhs_p_, rhs_, rise_;
};

struct FixedPointResult {
  bool exists = false;          ///< loop gain < 1 (no thermal runaway)
  double loop_gain = 0.0;       ///< spectral radius of R diag(p0 k)
  common::Vec temperature_c;    ///< fixed-point temperatures (if exists)
  common::Vec total_power_w;    ///< dynamic + leakage at the fixed point
};

/// Closed-form fixed point: solve (G - diag(p0 k)) dT = P_dyn + P_leak(T_amb).
/// One-shot form of FixedPointSolver.
FixedPointResult thermal_fixed_point(const RcThermalNetwork& net, const LeakageModel& leak,
                                     const common::Vec& dynamic_power_w);

/// Runtime finder: repeated steady-state evaluation with leakage refresh
/// (what a firmware loop would do).  Returns the trajectory of iterates so
/// convergence behaviour is observable.
std::vector<common::Vec> fixed_point_iteration(const RcThermalNetwork& net,
                                               const LeakageModel& leak,
                                               const common::Vec& dynamic_power_w,
                                               std::size_t max_iters = 50, double tol_c = 1e-6);

}  // namespace oal::thermal
