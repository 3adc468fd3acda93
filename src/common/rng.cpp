#include "common/rng.h"

#include <cmath>
#include <stdexcept>

#include "common/constants.h"

namespace oal::common {

namespace {

std::uint64_t splitmix64(std::uint64_t& x) {
  x += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::uint64_t rotl(std::uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

}  // namespace

Rng::Rng(std::uint64_t seed) {
  std::uint64_t sm = seed;
  for (auto& s : s_) s = splitmix64(sm);
}

std::uint64_t Rng::next_u64() {
  const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
  const std::uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = rotl(s_[3], 45);
  return result;
}

double Rng::uniform() {
  // 53 high bits -> double in [0, 1).
  return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
}

double Rng::uniform(double lo, double hi) { return lo + (hi - lo) * uniform(); }

int Rng::uniform_int(int lo, int hi) {
  if (hi < lo) throw std::invalid_argument("uniform_int: hi < lo");
  const std::uint64_t span = static_cast<std::uint64_t>(hi - lo) + 1;
  return lo + static_cast<int>(next_u64() % span);
}

double Rng::normal() {
  if (has_cached_normal_) {
    has_cached_normal_ = false;
    return cached_normal_;
  }
  double u1 = uniform();
  if (u1 < 1e-300) u1 = 1e-300;
  const double u2 = uniform();
  const double r = std::sqrt(-2.0 * std::log(u1));
  const double theta = 2.0 * kPi * u2;
  cached_normal_ = r * std::sin(theta);
  has_cached_normal_ = true;
  return r * std::cos(theta);
}

double Rng::normal(double mean, double stddev) { return mean + stddev * normal(); }

bool Rng::bernoulli(double p) { return uniform() < p; }

double Rng::exponential(double rate) {
  if (rate <= 0.0) throw std::invalid_argument("exponential: rate must be > 0");
  double u = uniform();
  if (u < 1e-300) u = 1e-300;
  return -std::log(u) / rate;
}

std::size_t Rng::categorical(const std::vector<double>& weights) {
  double total = 0.0;
  for (double w : weights) {
    if (w < 0.0) throw std::invalid_argument("categorical: negative weight");
    total += w;
  }
  if (total <= 0.0) throw std::invalid_argument("categorical: all-zero weights");
  double x = uniform() * total;
  for (std::size_t i = 0; i < weights.size(); ++i) {
    x -= weights[i];
    if (x <= 0.0) return i;
  }
  return weights.size() - 1;
}

Rng Rng::fork() { return Rng(next_u64()); }

void Rng::set_state(const State& st) {
  for (int i = 0; i < 4; ++i) s_[i] = st.s[i];
  has_cached_normal_ = st.has_cached_normal;
  cached_normal_ = st.cached_normal;
}

}  // namespace oal::common
