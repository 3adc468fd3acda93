#include "soc/config_space.h"

#include <algorithm>
#include <sstream>
#include <stdexcept>

namespace oal::soc {

ConfigSpace::ConfigSpace() {
  for (int f = 200; f <= 1400; f += 100) little_freqs_.push_back(static_cast<double>(f));
  for (int f = 200; f <= 2000; f += 100) big_freqs_.push_back(static_cast<double>(f));
  size_ = 4ull * 5ull * little_freqs_.size() * big_freqs_.size();
}

SocConfig ConfigSpace::config_at(std::size_t index) const {
  if (index >= size_) throw std::out_of_range("ConfigSpace::config_at: index out of range");
  SocConfig c;
  c.big_freq_idx = static_cast<int>(index % big_freqs_.size());
  index /= big_freqs_.size();
  c.little_freq_idx = static_cast<int>(index % little_freqs_.size());
  index /= little_freqs_.size();
  c.num_big = static_cast<int>(index % 5);
  index /= 5;
  c.num_little = static_cast<int>(index) + 1;
  return c;
}

std::vector<SocConfig> ConfigSpace::enumerate() const {
  std::vector<SocConfig> all;
  all.reserve(size_);
  for (std::size_t i = 0; i < size_; ++i) all.push_back(config_at(i));
  return all;
}

std::vector<SocConfig> ConfigSpace::neighborhood(const SocConfig& c, int radius,
                                                 int max_changed_knobs) const {
  std::vector<SocConfig> result;
  neighborhood_into(c, radius, max_changed_knobs, result);
  return result;
}

void ConfigSpace::neighborhood_into(const SocConfig& c, int radius, int max_changed_knobs,
                                    std::vector<SocConfig>& result) const {
  if (!valid(c)) throw std::invalid_argument("ConfigSpace::neighborhood: invalid config");
  result.clear();
  for (int dl = -radius; dl <= radius; ++dl) {
    for (int db = -radius; db <= radius; ++db) {
      for (int dfl = -radius; dfl <= radius; ++dfl) {
        for (int dfb = -radius; dfb <= radius; ++dfb) {
          const int changed = (dl != 0) + (db != 0) + (dfl != 0) + (dfb != 0);
          if (changed > max_changed_knobs) continue;
          SocConfig n{c.num_little + dl, c.num_big + db, c.little_freq_idx + dfl,
                      c.big_freq_idx + dfb};
          if (valid(n)) result.push_back(n);
        }
      }
    }
  }
}

std::vector<SocConfig> ConfigSpace::cluster_sweeps(const SocConfig& c) const {
  std::vector<SocConfig> result;
  cluster_sweeps_into(c, result);
  return result;
}

void ConfigSpace::cluster_sweeps_into(const SocConfig& c, std::vector<SocConfig>& result) const {
  if (!valid(c)) throw std::invalid_argument("ConfigSpace::cluster_sweeps: invalid config");
  result.clear();
  result.reserve(2 * (4 * little_freqs_.size() + 5 * big_freqs_.size()));
  for (int nl = 1; nl <= 4; ++nl) {
    for (int fl = 0; fl < static_cast<int>(little_freqs_.size()); ++fl) {
      // Vary the little cluster with the big cluster unchanged...
      result.push_back(SocConfig{nl, c.num_big, fl, c.big_freq_idx});
      // ...and the "little-only" role: big cluster gated in the same move.
      // Without these exclusive sweeps, configurations like L2@1400/B0 are
      // only reachable through an uphill intermediate (energy valley).
      result.push_back(SocConfig{nl, 0, fl, 0});
    }
  }
  for (int nb = 0; nb <= 4; ++nb) {
    for (int fb = 0; fb < static_cast<int>(big_freqs_.size()); ++fb) {
      result.push_back(SocConfig{c.num_little, nb, c.little_freq_idx, fb});
      // "Big-only" role: one idle-speed little core (the OS still needs it).
      result.push_back(SocConfig{1, nb, 0, fb});
    }
  }
}

std::vector<std::size_t> ConfigSpace::knob_cardinalities() const {
  return {4, 5, little_freqs_.size(), big_freqs_.size()};
}

std::string ConfigSpace::to_string(const SocConfig& c) {
  std::ostringstream os;
  os << "L" << c.num_little << "@" << (200 + 100 * c.little_freq_idx) << "MHz"
     << "/B" << c.num_big << "@" << (200 + 100 * c.big_freq_idx) << "MHz";
  return os.str();
}

}  // namespace oal::soc
