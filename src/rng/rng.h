// Seeded pseudo-random number generation and the samplers used by the
// privacy mechanisms. All randomness in the library flows through Rng
// so experiments are reproducible from a single seed.

#ifndef BLOWFISH_RNG_RNG_H_
#define BLOWFISH_RNG_RNG_H_

#include <cmath>
#include <cstdint>
#include <cstring>
#include <vector>

#include "common/check.h"

namespace blowfish {

namespace rng_internal {

/// Ziggurat tables for the rate-1 exponential (Marsaglia & Tsang, 256
/// layers). The serving layer draws one Laplace variate per released
/// histogram cell — tens of thousands per second — so the common case
/// must be one generator word plus a table compare, not a log().
/// Layer widths are scaled by 2^-53 so a 53-bit uniform times we[i]
/// lands inside layer i.
struct ExpZigguratTables {
  static constexpr double kTailStart = 7.69711747013104972;
  uint64_t ke[256];
  double we[256];
  double fe[256];
  ExpZigguratTables() {
    const double m = 9007199254740992.0;  // 2^53
    double de = kTailStart;
    double te = kTailStart;
    const double ve = 3.949659822581572e-3;  // common layer area
    const double q = ve / std::exp(-de);
    ke[0] = static_cast<uint64_t>((de / q) * m);
    ke[1] = 0;
    we[0] = q / m;
    we[255] = de / m;
    fe[0] = 1.0;
    fe[255] = std::exp(-de);
    for (int i = 254; i >= 1; --i) {
      de = -std::log(ve / de + std::exp(-de));
      ke[i + 1] = static_cast<uint64_t>((de / te) * m);
      te = de;
      fe[i] = std::exp(-de);
      we[i] = de / m;
    }
  }
};

inline const ExpZigguratTables kExpZig;

/// ±scale for a Laplace draw: bit 8 of the ziggurat word set gives
/// +scale, clear gives -scale. The bit is XORed into the IEEE sign of
/// `scale` (which must be positive) rather than branched on: a branch
/// on a fair coin mispredicts on half of all draws.
inline double SignedScale(uint64_t word, double scale) {
  uint64_t bits;
  std::memcpy(&bits, &scale, sizeof(bits));
  bits ^= (~word & 0x100u) << 55;
  std::memcpy(&scale, &bits, sizeof(scale));
  return scale;
}

}  // namespace rng_internal

/// \brief Deterministic random source with the samplers needed by
/// differentially private mechanisms.
///
/// The generator is xoshiro256++ seeded through splitmix64: pure
/// 64-bit integer arithmetic, so the word stream is identical on
/// every platform, construction is four multiplies (the engine builds
/// one private stream per submit — a heavy-state generator would pay
/// its seeding cost on every query), and it passes the usual
/// statistical batteries. Uniform doubles take the top 53 bits of one
/// word; Laplace(b) draws ±b·Exponential(1) through the ziggurat
/// above, falling back to the exact wedge/tail computation on ~2% of
/// draws. The sign comes from one word bit XORed into b's sign bit
/// (SignedScale), never from a branch.
///
/// Every Laplace draw, scalar or batched, runs through one fill
/// kernel (FillLaplace): the release paths call AddLaplace once per
/// noise vector, which keeps the four state words in registers across
/// the loop and spills them only around the out-of-line slow path.
/// The kernel consumes exactly the words of n scalar Laplace() calls
/// in the same order, so batching never changes an output bit.
class Rng {
 public:
  /// One 64-bit word of hardware/system entropy, for seeding engines
  /// whose options did not pin a seed. This is the ONLY sanctioned
  /// nondeterminism source in the library: dp_lint's `rng-discipline`
  /// rule bans std::random_device (and every <random> engine) outside
  /// src/rng/, so callers wanting a fresh seed must come through here.
  static uint64_t EntropySeed();

  /// Constructs a generator from a 64-bit seed. The same seed always
  /// yields the same stream on every platform.
  explicit Rng(uint64_t seed = 0xB10F15Dull) {
    // splitmix64 expansion: decorrelates consecutive seeds and never
    // produces the all-zero xoshiro state.
    uint64_t z = seed;
    for (uint64_t& word : state_) {
      z += 0x9E3779B97F4A7C15ull;
      uint64_t t = z;
      t = (t ^ (t >> 30)) * 0xBF58476D1CE4E5B9ull;
      t = (t ^ (t >> 27)) * 0x94D049BB133111EBull;
      word = t ^ (t >> 31);
    }
  }

  /// UniformRandomBitGenerator protocol (std::shuffle interop and the
  /// raw word source for every sampler): xoshiro256++.
  using result_type = uint64_t;
  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~0ull; }
  result_type operator()() {
    return Step(state_[0], state_[1], state_[2], state_[3]);
  }

  /// Uniform real in [lo, hi).
  double Uniform(double lo = 0.0, double hi = 1.0) {
    const double u = static_cast<double>((*this)() >> 11) * 0x1.0p-53;
    return lo + (hi - lo) * u;
  }

  /// Uniform integer in [lo, hi] inclusive.
  int64_t UniformInt(int64_t lo, int64_t hi);

  /// Laplace(0, scale) draw; Var = 2*scale^2. One generator word on
  /// the ziggurat's common path: bits 0..7 pick the layer, bit 8 the
  /// sign, bits 11..63 the 53-bit uniform (all disjoint).
  double Laplace(double scale) {
    BF_CHECK_GT(scale, 0.0);
    double draw;
    FillLaplace(
        1, [scale](size_t) { return scale; },
        [&draw](size_t, double d) { draw = d; });
    return draw;
  }

  /// v[i] += Laplace(scale) for i in [0, n): the same words, order and
  /// bits as n scalar Laplace() calls.
  void AddLaplace(double* v, size_t n, double scale) {
    if (n == 0) return;
    BF_CHECK_GT(scale, 0.0);
    FillLaplace(
        n, [scale](size_t) { return scale; },
        [v](size_t i, double d) { v[i] += d; });
  }

  /// v[i] += Laplace(scale_at(i)) for i in [0, n), with scale_at(i)
  /// evaluated once per draw, in order; a non-positive scale aborts
  /// as Laplace() does.
  template <typename ScaleAt>
  void AddLaplace(double* v, size_t n, ScaleAt scale_at) {
    FillLaplace(
        n,
        [&scale_at](size_t i) {
          const double scale = scale_at(i);
          BF_CHECK_GT(scale, 0.0);
          return scale;
        },
        [v](size_t i, double d) { v[i] += d; });
  }

  /// Vector of n iid Laplace(0, scale) draws, written (not added into
  /// zeros, so a -0.0 draw stays -0.0).
  std::vector<double> LaplaceVector(size_t n, double scale) {
    std::vector<double> out(n);
    if (n == 0) return out;
    BF_CHECK_GT(scale, 0.0);
    double* dst = out.data();
    FillLaplace(
        n, [scale](size_t) { return scale; },
        [dst](size_t i, double d) { dst[i] = d; });
    return out;
  }

  /// Standard normal draw.
  double Normal(double mean = 0.0, double stddev = 1.0);

  /// Exponential(rate) draw (mean 1/rate).
  double Exponential(double rate);

  /// Samples an index from unnormalized non-negative weights.
  /// Weights must not all be zero.
  size_t Categorical(const std::vector<double>& weights);

  /// Derives an independent child generator; used to hand disjoint
  /// streams to parallel composition branches without correlation.
  Rng Fork();

  /// Underlying engine access for std::shuffle interop (Rng is itself
  /// the UniformRandomBitGenerator).
  Rng& engine() { return *this; }

 private:
  static uint64_t Rotl(uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  /// One xoshiro256++ step on the state words passed by reference:
  /// state_ itself from operator(), register copies from FillLaplace.
  static uint64_t Step(uint64_t& s0, uint64_t& s1, uint64_t& s2,
                       uint64_t& s3) {
    const uint64_t result = Rotl(s0 + s3, 23) + s0;
    const uint64_t t = s1 << 17;
    s2 ^= s0;
    s3 ^= s1;
    s1 ^= s2;
    s0 ^= s3;
    s2 ^= t;
    s3 = Rotl(s3, 45);
    return result;
  }

  /// The Laplace fill kernel: draw i at scale_at(i) (positive, checked
  /// by the caller) is handed to sink(i, draw), for i in [0, n). The
  /// state lives in locals for the whole loop; the ~2% of words that
  /// miss the ziggurat's fast test write it back, let the slow path
  /// draw its extra words through operator(), and reload it.
  template <typename ScaleAt, typename Sink>
  void FillLaplace(size_t n, ScaleAt scale_at, Sink sink) {
    using rng_internal::kExpZig;
    uint64_t s0 = state_[0], s1 = state_[1], s2 = state_[2], s3 = state_[3];
    for (size_t i = 0; i < n; ++i) {
      const double scale = scale_at(i);
      const uint64_t word = Step(s0, s1, s2, s3);
      const uint64_t jz = word >> 11;
      const size_t iz = word & 255u;
      double e;
      if (__builtin_expect(jz < kExpZig.ke[iz], 1)) {
        e = static_cast<double>(jz) * kExpZig.we[iz];
      } else {
        state_[0] = s0; state_[1] = s1; state_[2] = s2; state_[3] = s3;
        e = ExponentialZigguratSlow(word);
        s0 = state_[0]; s1 = state_[1]; s2 = state_[2]; s3 = state_[3];
      }
      sink(i, rng_internal::SignedScale(word, scale) * e);
    }
    state_[0] = s0; state_[1] = s1; state_[2] = s2; state_[3] = s3;
  }

  /// Wedge/tail/retry continuation of the ziggurat, entered on ~2% of
  /// draws with the word that failed the fast test.
  double ExponentialZigguratSlow(uint64_t word);

  uint64_t state_[4];
};

}  // namespace blowfish

#endif  // BLOWFISH_RNG_RNG_H_
