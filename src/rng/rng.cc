#include "rng/rng.h"

#include <cmath>
#include <random>

#include "common/check.h"

namespace blowfish {

uint64_t Rng::EntropySeed() {
  // std::random_device may be 32-bit; fold two draws into one word.
  std::random_device device;
  return (static_cast<uint64_t>(device()) << 32) ^ device();
}

int64_t Rng::UniformInt(int64_t lo, int64_t hi) {
  BF_CHECK_LE(lo, hi);
  const uint64_t span =
      static_cast<uint64_t>(hi) - static_cast<uint64_t>(lo) + 1;
  if (span == 0) {
    // Full 64-bit range.
    return static_cast<int64_t>((*this)());
  }
  // Rejection sampling: discard the partial top interval so every
  // value in [lo, hi] is exactly equally likely.
  const uint64_t limit = (~0ull) - (~0ull) % span;
  uint64_t word;
  do {
    word = (*this)();
  } while (word >= limit);
  // Unsigned add, then cast: lo + (word % span) computed in int64_t
  // overflows for spans wider than 2^63 (UB); the unsigned sum wraps
  // to the correct two's-complement value for every [lo, hi].
  return static_cast<int64_t>(static_cast<uint64_t>(lo) + word % span);
}

double Rng::ExponentialZigguratSlow(uint64_t word) {
  using rng_internal::kExpZig;
  using Tables = rng_internal::ExpZigguratTables;
  for (;;) {
    const uint64_t jz = word >> 11;
    const size_t iz = word & 255u;
    if (jz < kExpZig.ke[iz]) {
      return static_cast<double>(jz) * kExpZig.we[iz];
    }
    if (iz == 0) {
      // Tail: the exponential is memoryless past the base layer.
      const double u =
          (static_cast<double>((*this)() >> 11) + 1.0) * 0x1.0p-53;  // (0,1]
      return Tables::kTailStart - std::log(u);
    }
    const double x = static_cast<double>(jz) * kExpZig.we[iz];
    const double u = static_cast<double>((*this)() >> 11) * 0x1.0p-53;
    if (kExpZig.fe[iz] + u * (kExpZig.fe[iz - 1] - kExpZig.fe[iz]) <
        std::exp(-x)) {
      return x;
    }
    word = (*this)();
  }
}

double Rng::Normal(double mean, double stddev) {
  // Marsaglia polar method, one pair per two candidate words; the
  // second variate is discarded to keep the sampler stateless.
  for (;;) {
    const double u = Uniform(-1.0, 1.0);
    const double v = Uniform(-1.0, 1.0);
    const double s = u * u + v * v;
    if (s > 0.0 && s < 1.0) {
      return mean + stddev * u * std::sqrt(-2.0 * std::log(s) / s);
    }
  }
}

double Rng::Exponential(double rate) {
  BF_CHECK_GT(rate, 0.0);
  const double u =
      (static_cast<double>((*this)() >> 11) + 1.0) * 0x1.0p-53;  // (0,1]
  return -std::log(u) / rate;
}

size_t Rng::Categorical(const std::vector<double>& weights) {
  BF_CHECK(!weights.empty());
  double total = 0.0;
  for (double w : weights) {
    BF_CHECK_GE(w, 0.0);
    total += w;
  }
  BF_CHECK_GT(total, 0.0);
  double r = Uniform(0.0, total);
  double acc = 0.0;
  for (size_t i = 0; i < weights.size(); ++i) {
    acc += weights[i];
    if (r < acc) return i;
  }
  return weights.size() - 1;  // numerical edge: r == total
}

Rng Rng::Fork() {
  // Draw a fresh 64-bit seed; child streams seeded through splitmix64
  // are effectively independent for our purposes.
  return Rng((*this)());
}

}  // namespace blowfish
