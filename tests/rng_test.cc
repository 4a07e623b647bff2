#include "rng/rng.h"

#include <cmath>
#include <cstring>

#include <gtest/gtest.h>

#include "bit_hash.h"

namespace blowfish {
namespace {

TEST(Rng, Deterministic) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_DOUBLE_EQ(a.Uniform(), b.Uniform());
  }
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  bool any_diff = false;
  for (int i = 0; i < 10; ++i) {
    if (a.Uniform() != b.Uniform()) any_diff = true;
  }
  EXPECT_TRUE(any_diff);
}

TEST(Rng, UniformIntRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const int64_t v = rng.UniformInt(-3, 5);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 5);
  }
}

TEST(Rng, LaplaceMomentsMatchTheory) {
  // Laplace(b) has mean 0 and variance 2 b^2 (Theorem 2.1's noise).
  Rng rng(123);
  const double scale = 2.5;
  const size_t n = 200000;
  double sum = 0.0, sum_sq = 0.0;
  for (size_t i = 0; i < n; ++i) {
    const double v = rng.Laplace(scale);
    sum += v;
    sum_sq += v * v;
  }
  const double mean = sum / n;
  const double var = sum_sq / n - mean * mean;
  EXPECT_NEAR(mean, 0.0, 0.05);
  EXPECT_NEAR(var, 2.0 * scale * scale, 0.4);
}

TEST(Rng, LaplaceVectorSize) {
  Rng rng(5);
  EXPECT_EQ(rng.LaplaceVector(17, 1.0).size(), 17u);
}

TEST(Rng, LaplaceStreamIsPinned) {
  // FNV-1a over 1.1M Laplace draws, recorded while every draw went
  // through one scalar Laplace() call: scalar draws, a LaplaceVector,
  // then per-element scales added into a vector. The ziggurat's
  // wedge/tail path takes ~2% of words, ~24,000 times here.
  Rng rng(20151);
  Vector all;
  all.reserve(1100000);
  for (size_t i = 0; i < 400000; ++i) all.push_back(rng.Laplace(1.5));
  const std::vector<double> vec = rng.LaplaceVector(400000, 0.25);
  all.insert(all.end(), vec.begin(), vec.end());
  Vector mixed(300000);
  for (size_t i = 0; i < mixed.size(); ++i) {
    mixed[i] = static_cast<double>(i % 7);
  }
  rng.AddLaplace(mixed.data(), mixed.size(), [](size_t i) {
    return 0.5 + static_cast<double>(i % 13);
  });
  all.insert(all.end(), mixed.begin(), mixed.end());
  all.push_back(rng.Uniform());  // the generator state after the fill
  EXPECT_EQ(HashBits(all), 0x95de7827176e36c4ull)
      << "hash 0x" << std::hex << HashBits(all);
}

bool SameBits(const Vector& a, const Vector& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

TEST(Rng, AddLaplaceMatchesScalarDraws) {
  const auto per_element = [](size_t i) {
    return 0.125 * static_cast<double>(1 + i % 29);
  };
  for (size_t n : {size_t{0}, size_t{1}, size_t{63}, size_t{4097}}) {
    Vector start(n);
    for (size_t i = 0; i < n; ++i) {
      // Signed zeros in the input: both paths must add into them alike.
      start[i] = i % 3 == 0 ? -0.0 : static_cast<double>(i % 5) - 2.0;
    }
    for (bool constant : {true, false}) {
      Rng kernel(n + 17), scalar(n + 17);
      Vector got = start, want = start;
      Vector got_side, want_side;
      got_side.push_back(kernel.Uniform());
      want_side.push_back(scalar.Uniform());
      if (constant) {
        kernel.AddLaplace(got.data(), n, 3.0);
        for (double& v : want) v += scalar.Laplace(3.0);
      } else {
        kernel.AddLaplace(got.data(), n, per_element);
        for (size_t i = 0; i < n; ++i) {
          want[i] += scalar.Laplace(per_element(i));
        }
      }
      got_side.push_back(kernel.Laplace(2.0));
      want_side.push_back(scalar.Laplace(2.0));
      got_side.push_back(kernel.Uniform());
      want_side.push_back(scalar.Uniform());
      EXPECT_TRUE(SameBits(got, want)) << "n " << n << " constant " << constant;
      EXPECT_TRUE(SameBits(got_side, want_side))
          << "n " << n << " constant " << constant;
    }
    // LaplaceVector writes its draws (no add into zeros).
    Rng vec_rng(n), scalar(n);
    Vector want(n);
    for (double& v : want) v = scalar.Laplace(0.75);
    EXPECT_TRUE(SameBits(vec_rng.LaplaceVector(n, 0.75), want)) << "n " << n;
    EXPECT_EQ(vec_rng(), scalar()) << "n " << n;
  }
}

TEST(Rng, CategoricalRespectsWeights) {
  Rng rng(99);
  std::vector<double> weights{0.0, 3.0, 1.0};
  size_t counts[3] = {0, 0, 0};
  for (int i = 0; i < 40000; ++i) ++counts[rng.Categorical(weights)];
  EXPECT_EQ(counts[0], 0u);
  const double ratio =
      static_cast<double>(counts[1]) / static_cast<double>(counts[2]);
  EXPECT_NEAR(ratio, 3.0, 0.3);
}

TEST(Rng, ForkProducesIndependentStream) {
  Rng parent(11);
  Rng child = parent.Fork();
  // The child stream should not replicate the parent's next draws.
  bool any_diff = false;
  for (int i = 0; i < 10; ++i) {
    if (parent.Uniform() != child.Uniform()) any_diff = true;
  }
  EXPECT_TRUE(any_diff);
}

TEST(RngDeath, NonPositiveScaleRejected) {
  Rng rng(1);
  EXPECT_DEATH(rng.Laplace(0.0), "CHECK failed");
  EXPECT_DEATH(rng.Exponential(-1.0), "CHECK failed");
}

TEST(RngDeath, NonPositiveFillScaleRejected) {
  Rng rng(1);
  Vector v(8, 0.0);
  EXPECT_DEATH(rng.AddLaplace(v.data(), v.size(), -1.0), "CHECK failed");
  EXPECT_DEATH(rng.AddLaplace(v.data(), v.size(),
                              [](size_t i) { return i == 5 ? 0.0 : 1.0; }),
               "CHECK failed");
}

}  // namespace
}  // namespace blowfish
