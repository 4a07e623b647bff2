// The Theorem 5.6 slab strategy for Gθ_{k²}.

#include <gtest/gtest.h>

#include "bit_hash.h"
#include "core/mechanisms_kd.h"
#include "mech/privelet.h"
#include "rng/rng.h"
#include "workload/builders.h"

namespace blowfish {
namespace {

TEST(GridTheta, RejectsThetaOne) {
  EXPECT_FALSE(GridThetaRangeMechanism::Create(8, 1).ok());
}

TEST(GridTheta, CreateCertifiesSmallStretch) {
  auto mech = GridThetaRangeMechanism::Create(16, 4).ValueOrDie();
  EXPECT_GE(mech->stretch(), 1);
  EXPECT_LE(mech->stretch(), 8);
  EXPECT_EQ(mech->block(), 2u);
}

TEST(GridTheta, NoiseFreeAnswersAreExact) {
  const size_t k = 12;
  auto mech = GridThetaRangeMechanism::Create(k, 4).ValueOrDie();
  const DomainShape domain({k, k});
  Rng rng(1);
  Vector x(domain.size());
  for (double& v : x) v = static_cast<double>(rng.UniformInt(0, 9));
  const RangeWorkload w = RandomRanges(domain, 100, &rng);
  const Vector truth = w.Answer(x);
  const Vector answers = mech->AnswerRanges(w, x, 1e9, &rng);
  ASSERT_EQ(answers.size(), truth.size());
  for (size_t i = 0; i < truth.size(); ++i) {
    EXPECT_NEAR(answers[i], truth[i], 1e-3) << "query " << i;
  }
}

TEST(GridTheta, UnbiasedUnderNoise) {
  const size_t k = 8;
  auto mech = GridThetaRangeMechanism::Create(k, 2).ValueOrDie();
  const DomainShape domain({k, k});
  Vector x(domain.size(), 3.0);
  // A handful of fixed queries.
  std::vector<RangeQuery> queries{{{1, 1}, {5, 6}},
                                  {{0, 0}, {7, 7}},
                                  {{2, 3}, {2, 3}},
                                  {{4, 0}, {6, 7}}};
  const RangeWorkload w("probe", domain, queries);
  const Vector truth = w.Answer(x);
  Rng rng(2);
  const Vector xg = mech->PrecomputeTransformed(x);
  Vector mean(truth.size(), 0.0);
  const size_t trials = 1500;
  for (size_t t = 0; t < trials; ++t) {
    const Vector est =
        mech->AnswerRangesOnTransformed(w, xg, Sum(x), 2.0, &rng);
    for (size_t i = 0; i < est.size(); ++i) mean[i] += est[i] / trials;
  }
  for (size_t i = 0; i < truth.size(); ++i) {
    EXPECT_NEAR(mean[i], truth[i], std::max(3.0, 0.05 * truth[i]));
  }
}

TEST(GridTheta, CursorBlocksMatchOneShotAnswers) {
  // The cursor draws the same releases as the one-shot call from the
  // same rng stream; answering in uneven blocks must not change a bit.
  const size_t k = 8;
  auto mech = GridThetaRangeMechanism::Create(k, 4).ValueOrDie();
  const DomainShape domain({k, k});
  Rng data_rng(5);
  Vector x(domain.size());
  for (double& v : x) v = static_cast<double>(data_rng.UniformInt(0, 9));
  const RangeWorkload w = RandomRanges(domain, 23, &data_rng);
  const Vector xg = mech->PrecomputeTransformed(x);

  Rng one_shot_rng(9);
  const Vector one_shot =
      mech->AnswerRangesOnTransformed(w, xg, Sum(x), 0.5, &one_shot_rng);
  Rng cursor_rng(9);
  auto cursor = mech->BeginRanges(xg, Sum(x), 0.5, &cursor_rng);
  Vector blocks;
  while (cursor->AnswerNext(w, 5, &blocks) > 0) {
  }
  EXPECT_EQ(cursor->position(), w.num_queries());
  ASSERT_EQ(blocks.size(), one_shot.size());
  for (size_t i = 0; i < one_shot.size(); ++i) {
    EXPECT_EQ(blocks[i], one_shot[i]) << "query " << i;
  }
}

namespace {

// Seeded random ranges plus the reconstruction's edge cases: every
// unit cell, full rows and columns, ranges holding the Case-II corner
// (k−1, k−1), ranges narrower than a block, and the full domain.
RangeWorkload PinnedRangeQueries(size_t k, size_t block) {
  const DomainShape domain({k, k});
  Rng rng(17);
  std::vector<RangeQuery> queries = RandomRanges(domain, 200, &rng).queries();
  for (size_t i = 0; i < k; ++i) {
    for (size_t j = 0; j < k; ++j) queries.push_back({{i, j}, {i, j}});
  }
  for (size_t i = 0; i < k; ++i) {
    queries.push_back({{i, 0}, {i, k - 1}});
    queries.push_back({{0, i}, {k - 1, i}});
  }
  const auto coord = [&](size_t hi) {
    return static_cast<size_t>(rng.UniformInt(0, static_cast<int64_t>(hi)));
  };
  for (size_t t = 0; t < 50; ++t) {
    queries.push_back({{coord(k - 1), coord(k - 1)}, {k - 1, k - 1}});
  }
  for (size_t t = 0; block > 1 && t < 50; ++t) {
    // Alternate: narrow in rows, narrow in columns, narrow in both.
    const size_t w0 = t % 3 == 1 ? k : 1 + coord(block - 2);
    const size_t w1 = t % 3 == 0 ? k : 1 + coord(block - 2);
    const size_t r = coord(k - std::min(w0, k));
    const size_t c = coord(k - std::min(w1, k));
    const size_t r2 = std::min(k - 1, r + w0 - 1);
    const size_t c2 = std::min(k - 1, c + w1 - 1);
    queries.push_back({{r, c}, {r2, c2}});
  }
  queries.push_back({{0, 0}, {k - 1, k - 1}});
  return RangeWorkload("pinned", domain, std::move(queries));
}

}  // namespace

TEST(GridTheta, RangeAnswersArePinned) {
  // FNV-1a of the answers' bit patterns, recorded before range
  // reconstruction became boundary-only: any change to which terms
  // are summed, or to their order, moves these hashes.
  struct Pin {
    size_t k, theta;
    uint64_t hash;
  };
  const Pin pins[] = {
      {4, 2, 0xbe01fa8167ccf01aull},  {8, 2, 0x53448c0475b5e608ull},
      {8, 4, 0x3a08640c78f2dbb8ull},  {12, 4, 0xa4cf8a79207fca7cull},
      {18, 6, 0x95a85d9e31f1b6ddull}, {16, 8, 0x6cdc4c38eb4a7608ull},
      {30, 6, 0x14ed4fccfe022d1dull}, {64, 4, 0xb2d1c1b6c51f55d8ull},
      {64, 8, 0xf6d6fe11a9875e6aull},
  };
  for (const Pin& pin : pins) {
    auto mech = GridThetaRangeMechanism::Create(pin.k, pin.theta).ValueOrDie();
    const RangeWorkload w = PinnedRangeQueries(pin.k, mech->block());
    Rng data_rng(pin.k * 100 + pin.theta);
    Vector x(pin.k * pin.k);
    for (double& v : x) v = static_cast<double>(data_rng.UniformInt(0, 9));
    const Vector xg = mech->PrecomputeTransformed(x);

    Rng rng(11);
    const Vector one_shot =
        mech->AnswerRangesOnTransformed(w, xg, Sum(x), 0.5, &rng);
    ASSERT_EQ(one_shot.size(), w.num_queries());
    EXPECT_EQ(HashBits(one_shot), pin.hash)
        << "k=" << pin.k << " θ=" << pin.theta << " hash 0x" << std::hex
        << HashBits(one_shot);

    Rng cursor_rng(11);
    auto cursor = mech->BeginRanges(xg, Sum(x), 0.5, &cursor_rng);
    Vector blocks;
    while (cursor->AnswerNext(w, 7, &blocks) > 0) {
    }
    EXPECT_EQ(HashBits(blocks), pin.hash)
        << "cursor, k=" << pin.k << " θ=" << pin.theta;
  }
}

namespace {

// Mean per-query squared error of the slab mechanism / Privelet pair
// on a uniform database.
std::pair<double, double> CompareAgainstPrivelet(size_t k, size_t theta,
                                                 double eps) {
  auto mech = GridThetaRangeMechanism::Create(k, theta).ValueOrDie();
  const DomainShape domain({k, k});
  Rng qrng(3);
  const RangeWorkload w = RandomRanges(domain, 200, &qrng);
  Vector x(domain.size(), 1.0);
  const Vector truth = w.Answer(x);
  const Vector xg = mech->PrecomputeTransformed(x);
  double blowfish_err = 0.0;
  const size_t trials = 5;
  for (size_t t = 0; t < trials; ++t) {
    Rng rng(100 + t);
    const Vector est =
        mech->AnswerRangesOnTransformed(w, xg, Sum(x), eps, &rng);
    blowfish_err += MeanSquaredError(truth, est) / trials;
  }
  PriveletMechanism privelet{domain};
  double privelet_err = 0.0;
  for (size_t t = 0; t < trials; ++t) {
    Rng rng(200 + t);
    const Vector est = privelet.Run(x, eps / 2.0, &rng);
    privelet_err += MeanSquaredError(truth, w.Answer(est)) / trials;
  }
  return {blowfish_err, privelet_err};
}

}  // namespace

TEST(GridTheta, BeatsPriveletForSmallTheta) {
  // θ=2 (block 1): the spanner is the unit grid with stretch 2, and
  // the per-line strategy beats ε/2 Privelet already at k=64.
  const auto [blowfish_err, privelet_err] = CompareAgainstPrivelet(64, 2, 0.1);
  EXPECT_LT(blowfish_err, privelet_err);
}

TEST(GridTheta, RelativeErrorImprovesWithDomainSize) {
  // Theorem 5.6's asymptotics: O(d³ log³θ log^{3(d-1)}k) vs Privelet's
  // O(log^{3d}k) — at fixed θ the ratio Blowfish/DP must fall as k
  // grows ("better than Privelet when d·logθ is small compared to
  // log k", Section 5.3.2 discussion).
  const auto [b32, p32] = CompareAgainstPrivelet(32, 4, 0.1);
  const auto [b64, p64] = CompareAgainstPrivelet(64, 4, 0.1);
  EXPECT_LT(b64 / p64, b32 / p32);
}

TEST(GridTheta, GuaranteeMentionsStretchAndPolicy) {
  auto mech = GridThetaRangeMechanism::Create(8, 2).ValueOrDie();
  const PrivacyGuarantee g = mech->Guarantee(1.0);
  EXPECT_NE(g.neighbor_model.find("G^2_{8x8}"), std::string::npos);
  EXPECT_NE(g.neighbor_model.find("stretch"), std::string::npos);
}

}  // namespace
}  // namespace blowfish
