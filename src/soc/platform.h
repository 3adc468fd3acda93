// Analytic big.LITTLE SoC platform model (Odroid-XU3 / Exynos 5422 class).
//
// This simulator replaces the physical board of the paper's IL/RL study.
// It maps (snippet descriptor, SoC configuration) to execution time, power,
// energy, and the Table-I performance counters:
//
//  * Performance: per-cluster CPI = base CPI + branch-misprediction penalty
//    + exposed memory-stall cycles (memory latency in *nanoseconds* is
//    constant, so the cycle cost of a miss grows with frequency — the
//    memory wall).  Amdahl split: the serial region runs on the fastest
//    active core, the parallel region across all active cores with a
//    synchronization penalty.  Memory-bandwidth contention inflates the
//    effective latency through an M/M/1-style factor.
//  * Power: per-cluster switched-capacitance dynamic power (C V^2 f u n),
//    voltage from a frequency-dependent OPP curve, per-core leakage
//    proportional to V, DRAM energy per byte + static, and a base/uncore
//    term.  Power-gated (inactive) cores consume nothing.
//
// `execute_ideal` is deterministic ground truth (used to construct Oracles);
// `execute` adds multiplicative measurement noise to the counters/power, and
// is all that runtime controllers may observe.
#pragma once

#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "soc/config_space.h"
#include "soc/counters.h"
#include "soc/snippet.h"

namespace oal::soc {

struct PlatformParams {
  // Voltage operating points (V) at the frequency extremes; the curve
  // between them is convex (t^v_exponent), as on real OPP tables, which
  // penalizes the top frequencies and produces interior energy optima.
  double v_min_little = 0.90, v_max_little = 1.20;
  double v_min_big = 0.90, v_max_big = 1.36;
  double v_exponent = 1.8;
  // Effective switched capacitance per core (nF).
  double ceff_little_nf = 0.085;
  double ceff_big_nf = 0.38;
  // Leakage coefficient per active core (W per volt).
  double leak_little_w_per_v = 0.02;
  double leak_big_w_per_v = 0.11;
  // Always-on uncore/rail power (W).
  double base_power_w = 0.55;
  // Memory subsystem.
  double mem_latency_ns = 80.0;
  double mem_bw_gbps = 8.0;          ///< saturation bandwidth
  double dram_energy_nj_per_byte = 0.05;
  double dram_static_w = 0.15;
  double cache_line_bytes = 64.0;
  double writeback_factor = 1.30;    ///< external requests per L2 miss
  // Fraction of memory latency exposed to the pipeline (OoO hides more).
  double stall_exposed_little = 0.85;
  double stall_exposed_big = 0.50;
  // Branch misprediction penalties (cycles).
  double branch_penalty_little = 8.0;
  double branch_penalty_big = 14.0;
  // Parallel-region synchronization overhead per extra core.
  double sync_overhead = 0.04;
  // Relative (1-sigma) measurement noise applied by execute().
  double counter_noise = 0.01;
  double power_noise = 0.015;
};

/// FNV-1a fingerprint of every PlatformParams field the power/performance
/// model reads: two platforms with equal fingerprints produce identical
/// Oracles.  Keys the Oracle cache and the artifact store's Oracle entries,
/// so its value must never change.
std::uint64_t platform_fingerprint(const PlatformParams& p);

/// Per-rail decomposition of a snippet's (noise-free) average power.
struct PowerBreakdown {
  double little_w = 0.0;  ///< little-cluster dynamic + leakage
  double big_w = 0.0;     ///< big-cluster dynamic + leakage
  double dram_w = 0.0;    ///< DRAM traffic + static
  double base_w = 0.0;    ///< always-on uncore/rail
  double total_w() const { return little_w + big_w + dram_w + base_w; }
};

class BigLittlePlatform {
 public:
  explicit BigLittlePlatform(PlatformParams params = {}, std::uint64_t noise_seed = 2020);

  BigLittlePlatform(const BigLittlePlatform&) = default;
  BigLittlePlatform& operator=(const BigLittlePlatform&) = default;

  const ConfigSpace& space() const { return space_; }
  const PlatformParams& params() const { return params_; }
  /// platform_fingerprint(params()), computed once at construction (the
  /// parameters never change) and carried by copies.
  std::uint64_t fingerprint() const { return fingerprint_; }

  /// OPP voltage curves (linear between the extremes).
  double voltage_little(double f_mhz) const;
  double voltage_big(double f_mhz) const;

  /// Noise-free ground truth; deterministic and side-effect free.
  SnippetResult execute_ideal(const SnippetDescriptor& s, const SocConfig& c) const;

  /// Per-rail split of execute_ideal's average power (sums to its
  /// avg_power_w).  Feeds the thermal RC network's power-injection nodes.
  PowerBreakdown power_breakdown(const SnippetDescriptor& s, const SocConfig& c) const;

  /// Ground truth plus multiplicative measurement noise (what runtime
  /// controllers observe).  Advances the internal noise RNG.
  SnippetResult execute(const SnippetDescriptor& s, const SocConfig& c);

  /// Exhaustive minimum-energy configuration for a snippet (ground truth).
  SocConfig best_energy_config(const SnippetDescriptor& s) const;

 private:
  /// Shared ground-truth evaluation; fills `breakdown` when non-null (same
  /// power terms that sum into the result's avg_power_w).
  SnippetResult execute_ideal_impl(const SnippetDescriptor& s, const SocConfig& c,
                                   PowerBreakdown* breakdown) const;
  double apply_noise(double v, double sigma);

  PlatformParams params_;
  std::uint64_t fingerprint_;
  ConfigSpace space_;
  common::Rng noise_rng_;
  // Per-OPP voltages, precomputed once: the pow() in the OPP curve would
  // otherwise dominate the exhaustive Oracle sweep (2 calls x 4940 configs
  // per snippet).  Entries equal voltage_little/big at that OPP bit-for-bit.
  std::vector<double> v_little_table_;
  std::vector<double> v_big_table_;
};

}  // namespace oal::soc
