// SoC configuration space.
//
// The paper's running example is the Samsung Exynos 5422 (Odroid-XU3):
// a big.LITTLE SoC whose runtime-controllable knobs are
//   - number of active LITTLE cores   (1..4)
//   - number of active big cores      (0..4)
//   - LITTLE cluster frequency        (200..1400 MHz in 100 MHz steps, 13 levels)
//   - big cluster frequency           (200..2000 MHz in 100 MHz steps, 19 levels)
// giving 4 * 5 * 13 * 19 = 4940 unique configurations — the exact number the
// paper quotes.  This file defines the configuration value type and an
// enumerable/indexable description of the space, including the local
// neighborhoods used by the online-IL candidate search.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace oal::soc {

struct SocConfig {
  int num_little = 4;      ///< active LITTLE cores, 1..4
  int num_big = 4;         ///< active big cores, 0..4
  int little_freq_idx = 0; ///< index into ConfigSpace::little_freqs()
  int big_freq_idx = 0;    ///< index into ConfigSpace::big_freqs()

  // Not `= default`: defaulted comparisons need C++20 and this builds as C++17.
  bool operator==(const SocConfig& o) const {
    return num_little == o.num_little && num_big == o.num_big &&
           little_freq_idx == o.little_freq_idx && big_freq_idx == o.big_freq_idx;
  }
  bool operator!=(const SocConfig& o) const { return !(*this == o); }
};

class ConfigSpace {
 public:
  /// Core-count knob ranges: LITTLE 1..kMaxLittleCores, big 0..kMaxBigCores.
  static constexpr int kMaxLittleCores = 4;
  static constexpr int kMaxBigCores = 4;

  ConfigSpace();

  std::size_t size() const { return size_; }

  /// Frequency tables in MHz.
  const std::vector<double>& little_freqs() const { return little_freqs_; }
  const std::vector<double>& big_freqs() const { return big_freqs_; }

  double little_freq_mhz(const SocConfig& c) const { return little_freqs_[c.little_freq_idx]; }
  double big_freq_mhz(const SocConfig& c) const { return big_freqs_[c.big_freq_idx]; }

  /// The configuration at `index` in [0, size): a bijection, inverse of the
  /// index order enumerate() lists.
  SocConfig config_at(std::size_t index) const;

  /// True if every knob is within its legal range.  Inline: the online-IL
  /// decision checks every candidate it scores.
  bool valid(const SocConfig& c) const {
    return c.num_little >= 1 && c.num_little <= kMaxLittleCores && c.num_big >= 0 &&
           c.num_big <= kMaxBigCores && c.little_freq_idx >= 0 &&
           c.little_freq_idx < static_cast<int>(little_freqs_.size()) && c.big_freq_idx >= 0 &&
           c.big_freq_idx < static_cast<int>(big_freqs_.size());
  }

  /// All configurations (size() == 4940 entries).
  std::vector<SocConfig> enumerate() const;

  /// Configurations whose knob indices each differ by at most `radius` steps
  /// from `c`, with at most `max_changed_knobs` knobs changed simultaneously.
  /// Includes `c` itself.  This is the candidate set of the online-IL search.
  std::vector<SocConfig> neighborhood(const SocConfig& c, int radius = 1,
                                      int max_changed_knobs = 4) const;
  /// Same candidate set built into a caller-owned buffer (cleared first, so
  /// a reused buffer's capacity is recycled and the per-decision search does
  /// not allocate once warmed up).  Identical contents and order.
  void neighborhood_into(const SocConfig& c, int radius, int max_changed_knobs,
                         std::vector<SocConfig>& out) const;

  /// Per-cluster joint sweeps: all (core count, frequency) pairs of one
  /// cluster while the other cluster either stays at `c` or is parked in its
  /// idle role (gated big cluster / one idle-speed little core).  A cluster's
  /// core count and frequency form one logical decision (e.g. "enable the
  /// big cluster at 1.3 GHz"), and single-knob moves cannot cross the energy
  /// valley between cluster-off and cluster-on-at-speed; the exclusive
  /// variants additionally make canonical "little-only"/"big-only" operating
  /// points reachable in one move.  2*(4*13) + 2*(5*19) = 294 configs.
  std::vector<SocConfig> cluster_sweeps(const SocConfig& c) const;
  /// Buffer-reusing form of cluster_sweeps (see neighborhood_into).
  void cluster_sweeps_into(const SocConfig& c, std::vector<SocConfig>& out) const;

  /// Number of levels per knob, in order (little cores, big cores, f_little,
  /// f_big) — used to size policy heads.
  std::vector<std::size_t> knob_cardinalities() const;

  static std::string to_string(const SocConfig& c);

 private:
  std::vector<double> little_freqs_;
  std::vector<double> big_freqs_;
  std::size_t size_;
};

}  // namespace oal::soc
