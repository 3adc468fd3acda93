// Deterministic random number generation.
//
// All stochastic components (workload generators, measurement noise, policy
// initialization, exploration) draw from explicitly-seeded Rng instances so
// every experiment in bench/ is exactly reproducible run-to-run.
#pragma once

#include <cstdint>
#include <vector>

namespace oal::common {

/// xoshiro256** generator wrapped with the distribution helpers this project
/// needs.  Deliberately not std::mt19937: xoshiro is faster and its output is
/// identical across standard-library implementations.
class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL);

  /// Raw 64 random bits.
  std::uint64_t next_u64();

  /// Uniform double in [0, 1).
  double uniform();
  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi);
  /// Uniform integer in [lo, hi] (inclusive).
  int uniform_int(int lo, int hi);
  /// Standard normal via Box-Muller (cached second value).
  double normal();
  /// Normal with given mean and standard deviation.
  double normal(double mean, double stddev);
  /// Bernoulli trial.
  bool bernoulli(double p);
  /// Exponential with given rate (lambda).
  double exponential(double rate);
  /// Samples an index according to (unnormalized, non-negative) weights.
  std::size_t categorical(const std::vector<double>& weights);

  /// Derives an independent child stream (for per-component seeding).
  Rng fork();

  /// Complete generator state, for persisting mid-stream positions (e.g. a
  /// pretrained controller whose exploration stream must resume exactly
  /// where pretraining left it).  Restoring a snapshot makes the subsequent
  /// draw sequence bitwise identical to the original's.
  struct State {
    std::uint64_t s[4];
    bool has_cached_normal;
    double cached_normal;
  };
  State state() const { return State{{s_[0], s_[1], s_[2], s_[3]}, has_cached_normal_,
                                     cached_normal_}; }
  void set_state(const State& st);

 private:
  std::uint64_t s_[4];
  bool has_cached_normal_ = false;
  double cached_normal_ = 0.0;
};

}  // namespace oal::common
