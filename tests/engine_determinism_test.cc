// Determinism guarantees of the serving layer: a seeded engine derives
// every release's randomness from (engine seed, submit counter), so
// two engines built the same way and driven through the same submit
// order must produce bit-identical answers — regardless of whether
// requests travel the string-id or the handle fast path, and across
// Submit vs SubmitBatch. This pins the per-submit stream derivation
// through the sharded/handle refactor.

#include <gtest/gtest.h>

#include "engine/query_engine.h"
#include "workload/builders.h"

namespace blowfish {
namespace {

Vector Ramp(size_t n) {
  Vector x(n);
  for (size_t i = 0; i < n; ++i) x[i] = static_cast<double>(i % 7);
  return x;
}

EngineOptions Seeded(uint64_t seed) {
  EngineOptions options;
  options.seed = seed;
  return options;
}

void RegisterAll(QueryEngine* engine) {
  ASSERT_TRUE(
      engine->RegisterPolicy("line", LinePolicy(32), Ramp(32), 100.0).ok());
  ASSERT_TRUE(engine
                  ->RegisterPolicy("slab", GridPolicy(DomainShape({8, 8}), 4),
                                   Ramp(64), 100.0)
                  .ok());
  ASSERT_TRUE(
      engine->RegisterPolicy("dp", UnboundedDpPolicy(32), Ramp(32), 100.0)
          .ok());
  ASSERT_TRUE(engine->OpenSession("s", 50.0).ok());
}

QueryRequest Dense(const std::string& policy, size_t domain, double eps) {
  QueryRequest request;
  request.session = "s";
  request.policy = policy;
  request.workload = IdentityWorkload(domain);
  request.epsilon = eps;
  return request;
}

QueryRequest Ranged(const std::string& policy, double eps) {
  QueryRequest request;
  request.session = "s";
  request.policy = policy;
  request.ranges = RangeWorkload("r", DomainShape({8, 8}),
                                 {{{0, 0}, {3, 3}}, {{2, 1}, {7, 6}}});
  request.epsilon = eps;
  return request;
}

void ExpectBitIdentical(const Vector& a, const Vector& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i], b[i]) << "answer " << i << " diverged";
  }
}

TEST(EngineDeterminism, SameSeedSameOrderBitIdenticalAcrossInstances) {
  QueryEngine first(Seeded(2015));
  QueryEngine second(Seeded(2015));
  RegisterAll(&first);
  RegisterAll(&second);

  const std::vector<QueryRequest> script = {
      Dense("line", 32, 0.5), Ranged("slab", 0.25), Dense("dp", 32, 0.5),
      Dense("line", 32, 0.125), Ranged("slab", 0.25),
  };
  for (const QueryRequest& request : script) {
    const QueryResult a = first.Submit(request).ValueOrDie();
    const QueryResult b = second.Submit(request).ValueOrDie();
    ExpectBitIdentical(a.answers, b.answers);
    EXPECT_EQ(a.range_fast_path, b.range_fast_path);
  }
}

TEST(EngineDeterminism, HandlePathMatchesStringPath) {
  QueryEngine by_string(Seeded(99));
  QueryEngine by_handle(Seeded(99));
  RegisterAll(&by_string);
  RegisterAll(&by_handle);

  for (int round = 0; round < 3; ++round) {
    const QueryRequest plain = Dense("line", 32, 0.5);
    QueryRequest carried = plain;
    carried.session_handle = by_handle.ResolveSession("s").ValueOrDie();
    carried.policy_handle = by_handle.ResolvePolicy("line").ValueOrDie();
    const QueryResult a = by_string.Submit(plain).ValueOrDie();
    const QueryResult b = by_handle.Submit(carried).ValueOrDie();
    ExpectBitIdentical(a.answers, b.answers);
    // Handles do not change accounting either.
    EXPECT_EQ(a.session_remaining.value(), b.session_remaining.value());
  }
}

TEST(EngineDeterminism, BatchIsDeterministicAcrossInstances) {
  QueryEngine first(Seeded(7));
  QueryEngine second(Seeded(7));
  RegisterAll(&first);
  RegisterAll(&second);

  // Mixed batch: two (session, policy) groups, interleaved indices.
  const std::vector<QueryRequest> batch = {
      Dense("line", 32, 0.5), Ranged("slab", 0.25), Dense("line", 32, 0.25),
      Dense("dp", 32, 0.5), Ranged("slab", 0.125),
  };
  const auto a = first.SubmitBatch(batch);
  const auto b = second.SubmitBatch(batch);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    ASSERT_TRUE(a[i].ok());
    ASSERT_TRUE(b[i].ok());
    ExpectBitIdentical(a[i].ValueOrDie().answers,
                       b[i].ValueOrDie().answers);
  }
}

TEST(EngineDeterminism, SingleGroupBatchMatchesSequentialSubmits) {
  // One (session, policy) group mixing dense and slab-ranged entries:
  // the batch charges once, but each entry draws the same stream
  // through the same dispatch as the equivalent lone Submit.
  QueryEngine batched(Seeded(11));
  QueryEngine sequential(Seeded(11));
  RegisterAll(&batched);
  RegisterAll(&sequential);

  const std::vector<QueryRequest> batch = {
      Dense("slab", 64, 0.5), Ranged("slab", 0.25), Dense("slab", 64, 0.125),
      Ranged("slab", 0.25),
  };
  const auto grouped = batched.SubmitBatch(batch);
  std::vector<QueryResult> lone;
  for (const QueryRequest& request : batch) {
    lone.push_back(sequential.Submit(request).ValueOrDie());
  }
  ASSERT_EQ(grouped.size(), lone.size());
  EXPECT_FALSE(lone[0].range_fast_path);
  EXPECT_TRUE(lone[1].range_fast_path);
  for (size_t i = 0; i < lone.size(); ++i) {
    ASSERT_TRUE(grouped[i].ok());
    const QueryResult& a = grouped[i].ValueOrDie();
    const QueryResult& b = lone[i];
    ExpectBitIdentical(a.answers, b.answers);
    EXPECT_EQ(a.guarantee.neighbor_model, b.guarantee.neighbor_model);
    EXPECT_EQ(a.range_fast_path, b.range_fast_path);
    EXPECT_EQ(a.plan_kind, b.plan_kind);
    // The group's one charge leaves both ledgers where the last lone
    // Submit leaves them (dyadic ε, so the sums are exact).
    EXPECT_EQ(a.session_remaining, lone.back().session_remaining);
    EXPECT_EQ(a.policy_remaining, lone.back().policy_remaining);
  }
}

TEST(EngineDeterminism, DistinctSubmitsUseDistinctStreams) {
  QueryEngine engine(Seeded(3));
  RegisterAll(&engine);
  const QueryResult a = engine.Submit(Dense("line", 32, 0.5)).ValueOrDie();
  const QueryResult b = engine.Submit(Dense("line", 32, 0.5)).ValueOrDie();
  // Same request, different submit counter: the noise must differ.
  bool any_diff = false;
  for (size_t i = 0; i < a.answers.size(); ++i) {
    if (a.answers[i] != b.answers[i]) any_diff = true;
  }
  EXPECT_TRUE(any_diff);
}

}  // namespace
}  // namespace blowfish
