// FNV-1a hashing of 64-bit values, shared by the platform fingerprint, the
// Oracle cache keys, the artifact store's content addresses and the benches'
// pretrained-weight blob keys.
#pragma once

#include <cstdint>
#include <cstring>
#include <initializer_list>

namespace oal::common {

constexpr std::uint64_t kFnvOffsetBasis = 1469598103934665603ULL;

/// Folds one 64-bit value into the running hash h, byte by byte from the
/// least significant.
inline void fnv1a_mix(std::uint64_t& h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xffULL;
    h *= 1099511628211ULL;
  }
}

/// Folds the bit pattern of one double into the running hash h.
inline void fnv1a_mix_double(std::uint64_t& h, double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  fnv1a_mix(h, bits);
}

/// FNV-1a over the bit patterns of `values`, in order.
inline std::uint64_t fnv1a_doubles(std::initializer_list<double> values) {
  std::uint64_t h = kFnvOffsetBasis;
  for (double v : values) fnv1a_mix_double(h, v);
  return h;
}

}  // namespace oal::common
