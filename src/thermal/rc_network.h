// Compact RC thermal network (paper Section III-A substrate).
//
// Die/package/skin thermals are modeled as a linear state-space system
//     C dT/dt = -G (T - T_amb) + B P
// with heat capacities C (diagonal), conductance matrix G (SPD, graph
// Laplacian plus ambient legs), and power-injection matrix B.  This is the
// standard compact model (HotSpot-style) behind the cited thermal papers:
// temperature prediction, fixed-point analysis, and skin-temperature
// estimation all run on top of it.
#pragma once

#include <string>
#include <vector>

#include "common/matrix.h"
#include "common/rng.h"

namespace oal::thermal {

struct ThermalNodeSpec {
  std::string name;
  double capacitance_j_per_k = 5.0;
  double conductance_to_ambient_w_per_k = 0.05;
};

struct ThermalCoupling {
  std::size_t a = 0;
  std::size_t b = 0;
  double conductance_w_per_k = 0.5;
};

class RcThermalNetwork {
 public:
  RcThermalNetwork(std::vector<ThermalNodeSpec> nodes, std::vector<ThermalCoupling> couplings,
                   double ambient_c = 25.0);

  /// Mobile-SoC default: big cluster, little cluster, GPU, PCB, skin.
  static RcThermalNetwork mobile_soc(double ambient_c = 25.0);

  std::size_t num_nodes() const { return nodes_.size(); }
  const std::vector<ThermalNodeSpec>& nodes() const { return nodes_; }
  double ambient_c() const { return ambient_c_; }

  /// Current temperatures (deg C).
  const common::Vec& temperatures() const { return temp_; }
  /// Copies `t` into the state in place (no allocation).
  void set_temperatures(const common::Vec& t);

  /// Conductance matrix G (ambient legs on the diagonal, negated couplings
  /// off it) and heat capacities C.
  const common::Mat& conductance() const { return g_; }
  const common::Vec& capacitances() const { return cap_; }
  /// Longest forward-Euler substep step() takes: 0.2 x min_i C_i / G_ii.
  double max_substep_s() const { return 0.2 * min_tau_; }

  /// Advance by dt seconds under constant node powers (W).  Internally uses
  /// ceil(dt / max_substep_s()) forward-Euler substeps of equal length.
  /// Steps on member scratch: allocation-free.  Throws
  /// std::invalid_argument unless dt is finite and > 0 with a substep count
  /// that fits an int.
  void step(const common::Vec& power_w, double dt_s);

  /// Steady-state temperatures for constant power: T = T_amb + G^{-1} P.
  common::Vec steady_state(const common::Vec& power_w) const;

  /// Continuous-time system matrix A = -C^{-1} G (for stability analysis).
  common::Mat system_matrix() const;
  /// Thermal resistance matrix R = G^{-1} (steady-state K/W).
  common::Mat resistance_matrix() const;

 private:
  std::vector<ThermalNodeSpec> nodes_;
  common::Mat g_;        // conductance (including ambient legs on diagonal)
  common::Vec cap_;      // heat capacities
  common::Vec temp_;     // state (deg C)
  common::Vec dtemp_;    // step() scratch: dT/dt per node
  double ambient_c_;
  // min_i C_i / G_ii, the forward-Euler stability bound (G and C are fixed).
  double min_tau_ = 1e300;
};

}  // namespace oal::thermal
