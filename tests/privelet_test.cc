// Privelet / Haar wavelet mechanism (the paper's best data-independent
// ε-DP baseline for range queries, cited as [20]).

#include <cmath>
#include <iterator>

#include <gtest/gtest.h>

#include "bit_hash.h"
#include "mech/error.h"
#include "mech/privelet.h"
#include "workload/builders.h"

namespace blowfish {
namespace {

TEST(Haar, ForwardInverseRoundTrip) {
  Vector v{4.0, 2.0, 5.0, 7.0, 1.0, 0.0, 3.0, 3.0};
  const Vector original = v;
  HaarForward(&v);
  HaarInverse(&v);
  for (size_t i = 0; i < v.size(); ++i) EXPECT_NEAR(v[i], original[i], 1e-12);
}

TEST(Haar, BaseCoefficientIsAverage) {
  Vector v{1.0, 3.0, 5.0, 7.0};
  HaarForward(&v);
  EXPECT_DOUBLE_EQ(v[0], 4.0);
}

TEST(Haar, CoefficientChangeUnderUnitLeafChange) {
  // Changing one leaf by +1 changes the base coefficient by 1/n and
  // the height-ℓ ancestor by 1/2^ℓ — the sensitivity facts behind the
  // generalized weights.
  const size_t n = 16;
  Vector a(n, 0.0), b(n, 0.0);
  b[5] += 1.0;
  HaarForward(&a);
  HaarForward(&b);
  const Vector weights = HaarWeights(n);
  double weighted = 0.0;
  for (size_t i = 0; i < n; ++i) {
    weighted += weights[i] * std::fabs(b[i] - a[i]);
  }
  // Generalized sensitivity = h + 1 = 5 for n = 16.
  EXPECT_NEAR(weighted, 5.0, 1e-12);
}

TEST(Haar, WeightsLayout) {
  const Vector w = HaarWeights(8);
  EXPECT_DOUBLE_EQ(w[0], 8.0);  // base
  EXPECT_DOUBLE_EQ(w[1], 8.0);  // height-3 root difference
  EXPECT_DOUBLE_EQ(w[2], 4.0);
  EXPECT_DOUBLE_EQ(w[3], 4.0);
  for (size_t i = 4; i < 8; ++i) EXPECT_DOUBLE_EQ(w[i], 2.0);
}

TEST(Privelet, GeneralizedSensitivity) {
  EXPECT_DOUBLE_EQ(PriveletMechanism(DomainShape({16})).GeneralizedSensitivity(),
                   5.0);
  EXPECT_DOUBLE_EQ(
      PriveletMechanism(DomainShape({16, 16})).GeneralizedSensitivity(), 25.0);
  // Non-power-of-two pads up: 100 -> 128, h+1 = 8.
  EXPECT_DOUBLE_EQ(PriveletMechanism(DomainShape({100})).GeneralizedSensitivity(),
                   8.0);
}

TEST(Privelet, UnbiasedPointEstimates) {
  const size_t k = 32;
  PriveletMechanism mech((DomainShape({k})));
  Vector x(k);
  for (size_t i = 0; i < k; ++i) x[i] = static_cast<double>(i % 7);
  Rng rng(5);
  Vector mean(k, 0.0);
  const size_t trials = 4000;
  for (size_t t = 0; t < trials; ++t) {
    const Vector est = mech.Run(x, 1.0, &rng);
    for (size_t i = 0; i < k; ++i) mean[i] += est[i] / trials;
  }
  for (size_t i = 0; i < k; ++i) EXPECT_NEAR(mean[i], x[i], 1.5);
}

TEST(Privelet, RangeErrorPolylogInDomain) {
  // O(log³k/ε²) per range: going from k=64 to k=4096 (6x the log)
  // should grow error far less than the 64x domain growth.
  Rng qrng(9);
  Vector err;
  for (size_t k : {64u, 4096u}) {
    const DomainShape domain({k});
    const RangeWorkload w = RandomRanges(domain, 400, &qrng);
    Vector x(k, 1.0);
    PriveletMechanism mech{domain};
    const ErrorStats stats = MeasureError(
        [&](const Vector& db, double e, Rng* rng) {
          return mech.Run(db, e, rng);
        },
        w, x, 1.0, 8, 11);
    err.push_back(stats.mean);
  }
  EXPECT_LT(err[1] / err[0], 40.0);
  EXPECT_GT(err[1] / err[0], 1.0);
}

TEST(Privelet, TwoDimensionalRoundTripWithoutNoise) {
  // The 2D transform pipeline must be exactly invertible; verify by
  // checking unbiasedness at very high epsilon (noise ~ 0).
  const DomainShape domain({8, 8});
  PriveletMechanism mech{domain};
  Vector x(64);
  for (size_t i = 0; i < 64; ++i) x[i] = static_cast<double>(i);
  Rng rng(3);
  const Vector est = mech.Run(x, 1e9, &rng);
  for (size_t i = 0; i < 64; ++i) EXPECT_NEAR(est[i], x[i], 1e-5);
}

TEST(Privelet, NonPowerOfTwoDomainPreservesLogicalCells) {
  const DomainShape domain({10});
  PriveletMechanism mech{domain};
  Vector x{5, 4, 3, 2, 1, 1, 2, 3, 4, 5};
  Rng rng(4);
  const Vector est = mech.Run(x, 1e9, &rng);
  ASSERT_EQ(est.size(), 10u);
  for (size_t i = 0; i < 10; ++i) EXPECT_NEAR(est[i], x[i], 1e-5);
}

TEST(Privelet, RunOutputIsPinned) {
  // FNV-1a of Run's output bits, recorded while every shape still went
  // through the padded-grid scatter. Power-of-two shapes now copy the
  // input straight in; {12, 5} is padded and keeps the scatter path.
  struct Pin {
    std::vector<size_t> dims;
    uint64_t hash;
  };
  const Pin pins[] = {
      {{64}, 0xc080e5d98b3b36dcull},    {{2, 64}, 0x5b127ce6c3b03941ull},
      {{64, 2}, 0xb14cace7b09f6fd0ull}, {{8, 8}, 0x8b92add3cca949e7ull},
      {{12, 5}, 0x305b06c42f120bccull},
  };
  for (size_t p = 0; p < std::size(pins); ++p) {
    const Pin& pin = pins[p];
    const DomainShape domain(pin.dims);
    const PriveletMechanism mech{domain};
    Rng data_rng(domain.size());
    Vector x(domain.size());
    for (double& v : x) v = static_cast<double>(data_rng.UniformInt(0, 9));
    Rng rng(31);
    const Vector est = mech.Run(x, 0.7, &rng);
    ASSERT_EQ(est.size(), domain.size());
    EXPECT_EQ(HashBits(est), pin.hash)
        << "pin " << p << ", hash 0x" << std::hex << HashBits(est);
  }
}

TEST(PriveletParam, ErrorScalesAsInverseEpsilonSquared) {
  const DomainShape domain({128});
  PriveletMechanism mech{domain};
  Vector x(128, 2.0);
  Rng qrng(6);
  const RangeWorkload w = RandomRanges(domain, 200, &qrng);
  const auto run = [&](double eps) {
    return MeasureError(
               [&](const Vector& db, double e, Rng* rng) {
                 return mech.Run(db, e, rng);
               },
               w, x, eps, 12, 21)
        .mean;
  };
  const double e1 = run(0.1);
  const double e2 = run(1.0);
  // 10x epsilon => ~100x less error.
  EXPECT_NEAR(e1 / e2, 100.0, 60.0);
}

}  // namespace
}  // namespace blowfish
