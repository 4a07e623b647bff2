// Shard-boundary coverage for the sharded serving layer. Ledgers and
// policies are partitioned by id/name hash; these tests pin the
// operations that must see across every shard: prefix ledger sweeps,
// transform-cache eviction, handle staleness through the generation
// counters, and the all-or-nothing guarantee of charges whose ledgers
// live in different shards. The accountant's ledgers are also pinned
// against PrivacyBudget (same admit/refuse decisions, same spent bits)
// and against memory growth over a long run of charges.

#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <fstream>
#include <limits>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "engine/ledger_journal.h"
#include "engine/query_engine.h"
#include "mech/budget.h"
#include "workload/builders.h"

namespace blowfish {
namespace {

Vector Ramp(size_t n) {
  Vector x(n);
  for (size_t i = 0; i < n; ++i) x[i] = static_cast<double>(i % 5);
  return x;
}

TEST(BudgetShards, PrefixCloseSweepsEveryShard) {
  BudgetAccountant accountant;
  // Far more ids than shards: every shard holds several matches and
  // several non-matches.
  const size_t kCount = 8 * BudgetAccountant::kShardCount;
  for (size_t i = 0; i < kCount; ++i) {
    ASSERT_TRUE(
        accountant.OpenLedger("policy/p\x1f" + std::to_string(i), 1.0).ok());
    ASSERT_TRUE(
        accountant.OpenLedger("session/u" + std::to_string(i), 1.0).ok());
  }
  EXPECT_EQ(accountant.CloseLedgersWithPrefix("policy/p\x1f"), kCount);
  for (size_t i = 0; i < kCount; ++i) {
    EXPECT_FALSE(accountant.Resolve("policy/p\x1f" + std::to_string(i)).ok());
    EXPECT_TRUE(accountant.Resolve("session/u" + std::to_string(i)).ok());
  }
  EXPECT_EQ(accountant.CloseLedgersWithPrefix("policy/p\x1f"), 0u);
}

TEST(BudgetShards, HandlesGoStaleOnCloseAndNeverAliasReopens) {
  BudgetAccountant accountant;
  const LedgerHandle first = accountant.OpenLedger("a", 1.0).ValueOrDie();
  ASSERT_TRUE(accountant.CloseLedger(first).ok());
  EXPECT_EQ(accountant.Remaining(first).status().code(),
            StatusCode::kNotFound);
  // Reopening the same id reuses storage but must not resurrect the
  // old handle (generation bump).
  const LedgerHandle second = accountant.OpenLedger("a", 2.0).ValueOrDie();
  EXPECT_EQ(accountant.Remaining(first).status().code(),
            StatusCode::kNotFound);
  EXPECT_NEAR(*accountant.Remaining(second), 2.0, 1e-12);

  // Charges through a stale handle fail without touching the live
  // ledger.
  const LedgerHandle pair[2] = {first, second};
  ChargeTag tag;
  tag.workload = "stale";
  EXPECT_EQ(accountant.Charge(pair, 2, 0.5, tag).code(),
            StatusCode::kNotFound);
  EXPECT_NEAR(*accountant.Remaining(second), 2.0, 1e-12);
}

TEST(BudgetShards, CrossShardChargesAreAtomicUnderContention) {
  // Many (session, policy) ledger pairs; ids hash into distinct
  // shards with overwhelming probability across 64 pairs. Threads
  // hammer joint charges; every accepted charge must land on both
  // ledgers, every refusal on neither — the pairwise balances must
  // never diverge.
  BudgetAccountant accountant;
  constexpr size_t kPairs = 64;
  constexpr size_t kThreads = 6;
  constexpr double kEps = 0.01;
  std::vector<LedgerHandle> sessions(kPairs), policies(kPairs);
  for (size_t i = 0; i < kPairs; ++i) {
    sessions[i] =
        accountant.OpenLedger("s/" + std::to_string(i), 0.1).ValueOrDie();
    policies[i] =
        accountant.OpenLedger("p/" + std::to_string(i), 0.05).ValueOrDie();
  }
  std::atomic<size_t> unexpected{0};
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (size_t round = 0; round < 40; ++round) {
        const size_t i = (t * 40 + round) % kPairs;
        const LedgerHandle pair[2] = {sessions[i], policies[i]};
        ChargeTag tag;
        tag.workload = "joint";
        const Status status = accountant.Charge(pair, 2, kEps, tag);
        if (!status.ok() && status.code() != StatusCode::kOutOfRange) {
          unexpected.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(unexpected.load(), 0u);
  for (size_t i = 0; i < kPairs; ++i) {
    const double session_spent = 0.1 - *accountant.Remaining(sessions[i]);
    const double policy_spent = 0.05 - *accountant.Remaining(policies[i]);
    // All-or-nothing: both ledgers saw exactly the same charges.
    EXPECT_NEAR(session_spent, policy_spent, 1e-12) << "pair " << i;
    // The tighter cap admits at most floor(0.05 / 0.01) = 5 charges.
    EXPECT_LE(policy_spent, 0.05 + 1e-9);
  }
}

// ------------------------------------------------- admission parity

struct Step {
  double epsilon;
  size_t times;  ///< the handle repeated this many times in one charge
};

// The accountant's rule for one charge, on a PrivacyBudget: probe
// times·ε on the pre-charge balance, then commit ε `times` times.
bool ReferenceCharge(PrivacyBudget* reference, const Step& step) {
  if (!reference->CanSpend(static_cast<double>(step.times) * step.epsilon)) {
    return false;
  }
  for (size_t k = 0; k < step.times; ++k) {
    reference->Spend(step.epsilon, "step").Check();
  }
  return true;
}

// Three ε/3 spends fill the cap, a fourth is refused, and so is a
// 1e-3 probe past the filled cap.
std::vector<Step> ThirdsThenProbe(double cap) {
  std::vector<Step> steps(4, Step{cap / 3.0, 1});
  steps.push_back(Step{1e-3, 1});
  return steps;
}

// Seeded spends of 0.1–3% of the cap, each naming the handle 1–3
// times; the cap fills about halfway through, so later small spends
// probe the boundary.
std::vector<Step> SeededRepeats(double cap, uint64_t seed) {
  std::mt19937_64 gen(seed);
  std::uniform_real_distribution<double> share(0.001, 0.03);
  std::vector<Step> steps;
  for (int i = 0; i < 64; ++i) {
    steps.push_back(Step{cap * share(gen), 1 + gen() % 3});
  }
  steps.push_back(Step{1e-3, 1});
  return steps;
}

class AdmissionParity : public ::testing::Test {
 protected:
  void SetUp() override {
    char tmpl[] = "/tmp/bfparity.XXXXXX";
    ASSERT_NE(::mkdtemp(tmpl), nullptr);
    options_.dir = tmpl;
  }

  void TearDown() override {
    JournalScanReport report;
    if (LedgerJournal::Scan(options_.dir, PosixJournalIo(), &report).ok()) {
      for (const auto& segment : report.segments) {
        (void)PosixJournalIo()->Remove(options_.dir + "/" + segment.name);
      }
    }
    ::rmdir(options_.dir.c_str());
  }

  // Opens `id` with `restored` ε already spent the way crash recovery
  // does it: an accountant journals the spend and goes away, and a
  // fresh journal replays it into OpenLedger's RestoreSpent.
  LedgerHandle OpenRestored(BudgetAccountant* accountant,
                            const std::string& id, double cap,
                            double restored) {
    {
      auto journal = LedgerJournal::Open(options_).ValueOrDie();
      BudgetAccountant before_crash;
      before_crash.SetJournal(journal.get());
      before_crash.OpenLedger(id, cap).status().Check();
      before_crash.Charge({id}, restored, "before crash").Check();
    }
    auto journal = LedgerJournal::Open(options_).ValueOrDie();
    accountant->SetJournal(journal.get());
    const LedgerHandle handle = accountant->OpenLedger(id, cap).ValueOrDie();
    accountant->SetJournal(nullptr);
    return handle;
  }

  // Drives `steps` through a one-ledger accountant and a PrivacyBudget
  // reference; both must decide every step alike and hold the same
  // spent bits after it.
  void ExpectSameAdmissions(const std::string& id, double cap,
                            double restored, const std::vector<Step>& steps) {
    BudgetAccountant accountant;
    PrivacyBudget reference(cap);
    LedgerHandle handle;
    if (restored > 0.0) {
      handle = OpenRestored(&accountant, id, cap, restored);
      // A fresh reference's one spend of `restored` leaves the state a
      // restore leaves: spent == restored bit-for-bit, one spend.
      reference.Spend(restored, "recovered").Check();
    } else {
      handle = accountant.OpenLedger(id, cap).ValueOrDie();
    }
    ASSERT_EQ(*accountant.Spent(id), reference.spent()) << id;
    const LedgerHandle repeated[3] = {handle, handle, handle};
    ChargeTag tag;
    tag.workload = "step";
    // Two probes follow the scripted steps. They straddle the edge of
    // the slack the reference allows after its n spends, 4·(n+1) ulps
    // of the cap: 1.5 units past n + 1 (refused), then 0.5 inside
    // (admitted). A ledger counting one spend more or fewer than the
    // reference decides one of them differently.
    for (size_t i = 0; i < steps.size() + 2; ++i) {
      Step step = i < steps.size() ? steps[i] : Step{0.0, 1};
      if (i >= steps.size()) {
        const double units = static_cast<double>(reference.ledger().size()) +
                             (i == steps.size() ? 1.5 : 0.5);
        step.epsilon = reference.remaining() +
                       4.0 * units * std::numeric_limits<double>::epsilon() *
                           cap;
      }
      const Status charged =
          accountant.Charge(repeated, step.times, step.epsilon, tag);
      const bool admitted = ReferenceCharge(&reference, step);
      if (i >= steps.size()) {
        ASSERT_EQ(admitted, i > steps.size()) << id << " boundary probe";
      }
      ASSERT_EQ(charged.ok(), admitted)
          << id << " step " << i << ": " << charged.ToString();
      if (!admitted) {
        ASSERT_EQ(charged.code(), StatusCode::kOutOfRange);
      }
      ASSERT_EQ(*accountant.Spent(id), reference.spent())
          << id << " step " << i;
    }
  }

  JournalOptions options_;
};

TEST_F(AdmissionParity, AccountantDecidesExactlyAsPrivacyBudget) {
  uint64_t seed = 7;
  for (const double cap : {1.0, 1e9}) {
    for (const double restored : {0.0, cap / 3.0}) {
      const std::string name = std::to_string(cap) + "/" +
                               std::to_string(restored > 0.0);
      ExpectSameAdmissions("thirds/" + name, cap, restored,
                           ThirdsThenProbe(cap));
      ExpectSameAdmissions("repeats/" + name, cap, restored,
                           SeededRepeats(cap, ++seed));
    }
  }
}

// ------------------------------------------------------ bounded memory

// This process's resident set (VmRSS in /proc/self/status), in kB.
long ResidentKb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmRSS:", 0) == 0) return std::stol(line.substr(6));
  }
  return -1;
}

TEST(BudgetMemory, TenMillionChargesKeepResidentSetFlat) {
  // A ledger is its balance: however many charges land, the
  // accountant's memory is its slots plus the bounded audit ring.
  BoundedRing<AuditEvent> ring(4096);
  BudgetAccountant accountant;
  accountant.SetAuditLog(&ring);
  const LedgerHandle pair[2] = {
      accountant.OpenLedger("session/s", 1e12).ValueOrDie(),
      accountant.OpenLedger("policy/p", 1e12).ValueOrDie()};
  ChargeTag tag;
  tag.workload = "I_64";
  tag.context = std::make_shared<const std::string>("p (tree-transform)");
  constexpr size_t kWarm = 100000;  // wraps the ring many times over
  constexpr size_t kCharges = 10000000;
  for (size_t i = 0; i < kWarm; ++i) {
    accountant.Charge(pair, 2, 1e-3, tag).Check();
  }
  const long before_kb = ResidentKb();
  ASSERT_GT(before_kb, 0);
  for (size_t i = kWarm; i < kCharges; ++i) {
    accountant.Charge(pair, 2, 1e-3, tag).Check();
  }
  const long growth_kb = ResidentKb() - before_kb;
  EXPECT_LT(growth_kb, 16 * 1024) << "VmRSS grew " << growth_kb << " kB";
  EXPECT_EQ(ring.total(), kCharges);
}

TEST(PolicyShards, HandlesFollowReplaceAndDieOnUnregister) {
  PolicyRegistry registry;
  ASSERT_TRUE(registry.Register("p", LinePolicy(8), Ramp(8), 1.0).ok());
  const PolicyHandle handle = registry.Resolve("p").ValueOrDie();
  const auto before = registry.Get(handle).ValueOrDie();
  ASSERT_TRUE(registry.Replace("p", LinePolicy(8), Ramp(8), 2.0).ok());
  // Same handle, new entry: it names the binding, not the version.
  const auto after = registry.Get(handle).ValueOrDie();
  EXPECT_GT(after->version, before->version);
  EXPECT_EQ(after->epsilon_cap, 2.0);
  ASSERT_TRUE(registry.Unregister("p").ok());
  EXPECT_EQ(registry.Get(handle).status().code(), StatusCode::kNotFound);
  // Re-register under the same name: the old handle must not alias
  // the new binding.
  ASSERT_TRUE(registry.Register("p", LinePolicy(8), Ramp(8), 3.0).ok());
  EXPECT_EQ(registry.Get(handle).status().code(), StatusCode::kNotFound);
  EXPECT_TRUE(registry.Resolve("p").ok());
}

TEST(PolicyShards, ManyPoliciesSpreadAndEnumerateAcrossShards) {
  PolicyRegistry registry;
  const size_t kCount = 4 * PolicyRegistry::kShardCount;
  for (size_t i = 0; i < kCount; ++i) {
    ASSERT_TRUE(
        registry.Register("p" + std::to_string(i), LinePolicy(8), Ramp(8), 1.0)
            .ok());
  }
  EXPECT_EQ(registry.size(), kCount);
  EXPECT_EQ(registry.Names().size(), kCount);
  for (size_t i = 0; i < kCount; i += 2) {
    ASSERT_TRUE(registry.Unregister("p" + std::to_string(i)).ok());
  }
  EXPECT_EQ(registry.size(), kCount / 2);
}

TEST(TransformCache, SlotsDieWithTheirSnapshotOnLifecycleOps) {
  // Several θ>=2 grid policies. Each warm submit builds its
  // snapshot's serving slot (plan + slab transform); Replace and
  // Unregister must drop exactly the superseded snapshots' slots from
  // the live count.
  QueryEngine engine(EngineOptions{/*seed=*/1, false});
  const size_t kPolicies = 6;
  for (size_t i = 0; i < kPolicies; ++i) {
    ASSERT_TRUE(engine
                    .RegisterPolicy("slab" + std::to_string(i),
                                    GridPolicy(DomainShape({8, 8}), 4),
                                    Ramp(64), 100.0)
                    .ok());
  }
  ASSERT_TRUE(engine.OpenSession("s", 1e6).ok());
  EXPECT_EQ(engine.transform_cache_entries(), 0u);
  for (size_t i = 0; i < kPolicies; ++i) {
    QueryRequest request;
    request.session = "s";
    request.policy = "slab" + std::to_string(i);
    request.ranges =
        RangeWorkload("r", DomainShape({8, 8}), {{{0, 0}, {3, 3}}});
    request.epsilon = 0.1;
    ASSERT_TRUE(engine.Submit(request).ValueOrDie().range_fast_path);
  }
  EXPECT_EQ(engine.transform_cache_entries(), kPolicies);

  // Replace leaves the superseded version's slot behind with its
  // snapshot; the new version starts cold.
  ASSERT_TRUE(engine
                  .ReplacePolicy("slab0", GridPolicy(DomainShape({8, 8}), 4),
                                 Ramp(64), 100.0)
                  .ok());
  EXPECT_EQ(engine.transform_cache_entries(), kPolicies - 1);

  // Unregister drops every remaining policy's slot the same way.
  for (size_t i = 0; i < kPolicies; ++i) {
    ASSERT_TRUE(engine.UnregisterPolicy("slab" + std::to_string(i)).ok());
  }
  EXPECT_EQ(engine.transform_cache_entries(), 0u);
}

TEST(TransformCache, DensePrecomputesEvictWithTheirSnapshot) {
  QueryEngine engine(EngineOptions{/*seed=*/1, false});
  ASSERT_TRUE(
      engine.RegisterPolicy("line", LinePolicy(16), Ramp(16), 100.0).ok());
  ASSERT_TRUE(engine.OpenSession("s", 1e6).ok());
  QueryRequest request;
  request.session = "s";
  request.policy = "line";
  request.workload = IdentityWorkload(16);
  request.epsilon = 0.1;
  ASSERT_TRUE(engine.Submit(request).ok());
  EXPECT_EQ(engine.transform_cache_entries(), 1u);
  ASSERT_TRUE(
      engine.ReplacePolicy("line", LinePolicy(16), Ramp(16), 100.0).ok());
  EXPECT_EQ(engine.transform_cache_entries(), 0u);
  ASSERT_TRUE(engine.Submit(request).ok());
  EXPECT_EQ(engine.transform_cache_entries(), 1u);
  ASSERT_TRUE(engine.UnregisterPolicy("line").ok());
  EXPECT_EQ(engine.transform_cache_entries(), 0u);
}

}  // namespace
}  // namespace blowfish
