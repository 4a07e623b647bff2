// Bit pins for every Laplace noise path outside Privelet (pinned in
// privelet_test): the planner's release families through
// RunPrecomputed, the matrix mechanism and the hierarchical tree. The
// hashes were recorded while every path still drew its noise one
// scalar Laplace() call per cell, so a change to the word-to-variate
// mapping, the draw order, or the sign of a zero fails here.

#include <cstdint>
#include <string>

#include <gtest/gtest.h>

#include "bit_hash.h"
#include "core/planner.h"
#include "core/policy.h"
#include "linalg/matrix.h"
#include "mech/hierarchical.h"
#include "mech/matrix_mechanism.h"
#include "rng/rng.h"

namespace blowfish {
namespace {

Vector SeededCounts(size_t n, uint64_t seed) {
  Rng rng(seed);
  Vector x(n);
  for (double& v : x) v = static_cast<double>(rng.UniformInt(0, 9));
  return x;
}

TEST(NoisePins, ReleaseFamiliesArePinned) {
  struct Pin {
    const char* name;
    Policy policy;
    uint64_t hash;
  };
  const Pin pins[] = {
      {"line", LinePolicy(1024), 0x0f891c8ff1d157d3ull},
      {"theta", Theta1DPolicy(1024, 4), 0xcee992e9fa431667ull},
      {"grid", GridPolicy(DomainShape({16, 16}), 1),
       0x7a3ccb942f64b9bbull},
      {"slab", GridPolicy(DomainShape({16, 16}), 4),
       0xb47bf8f77b7a336bull},
      {"dp", UnboundedDpPolicy(1024), 0x4ad27fdb6618bb54ull},
      {"line64", LinePolicy(64), 0x674852b9798f53a0ull},
  };
  for (const Pin& pin : pins) {
    PlanRequest request;
    request.policy = pin.policy;
    Result<Plan> plan = PlanMechanism(request);
    ASSERT_TRUE(plan.ok()) << pin.name;
    const BlowfishMechanism& mech = *plan.ValueOrDie().mechanism;
    const Vector x = SeededCounts(pin.policy.domain_size(), 7);
    const auto pre = mech.PrecomputeRelease(x);
    Rng rng(2015);
    Vector out;
    // Two releases from one stream: the second starts mid-stream, so
    // a kernel that left the generator state stale would show.
    for (int rep = 0; rep < 2; ++rep) {
      const Vector est = mech.RunPrecomputed(*pre, 0.5, &rng);
      ASSERT_EQ(est.size(), x.size()) << pin.name;
      out.insert(out.end(), est.begin(), est.end());
    }
    EXPECT_EQ(HashBits(out), pin.hash)
        << pin.name << " (" << plan.ValueOrDie().kind << "), hash 0x"
        << std::hex << HashBits(out);
  }
}

TEST(NoisePins, MatrixMechanismRunIsPinned) {
  // Prefix-sum workload answered through a strategy of unit cells plus
  // adjacent pairs, so W A⁺ mixes the noise of several rows.
  const size_t k = 16;
  Matrix w(k, k);
  for (size_t r = 0; r < k; ++r) {
    for (size_t c = 0; c <= r; ++c) w(r, c) = 1.0;
  }
  Matrix a(2 * k - 1, k);
  for (size_t i = 0; i < k; ++i) a(i, i) = 1.0;
  for (size_t i = 0; i + 1 < k; ++i) {
    a(k + i, i) = 1.0;
    a(k + i, i + 1) = 1.0;
  }
  Result<MatrixMechanism> mech = MatrixMechanism::Create(w, a);
  ASSERT_TRUE(mech.ok());
  Rng rng(41);
  const Vector est = mech.ValueOrDie().Run(SeededCounts(k, 3), 0.9, &rng);
  ASSERT_EQ(est.size(), k);
  EXPECT_EQ(HashBits(est), 0xbdc416fa9b2c8c39ull)
      << "hash 0x" << std::hex << HashBits(est);
}

TEST(NoisePins, HierarchicalRunIsPinned) {
  for (size_t branching : {size_t{2}, size_t{4}}) {
    const HierarchicalMechanism mech(branching);
    Rng rng(53);
    const Vector est = mech.Run(SeededCounts(100, 5), 0.8, &rng);
    ASSERT_EQ(est.size(), 100u);
    const uint64_t want =
        branching == 2 ? 0x7752178442b0439cull : 0x1cb40c55bdd20c35ull;
    EXPECT_EQ(HashBits(est), want)
        << "branching " << branching << ", hash 0x" << std::hex
        << HashBits(est);
  }
}

}  // namespace
}  // namespace blowfish
