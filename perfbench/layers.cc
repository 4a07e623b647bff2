#include "layers.h"

#include <array>
#include <atomic>
#include <filesystem>
#include <memory>
#include <numeric>
#include <thread>

#include "checks.h"
#include "core/mechanisms_kd.h"
#include "core/planner.h"
#include "engine/budget_accountant.h"
#include "engine/ledger_journal.h"
#include "engine/query_engine.h"
#include "mech/consistency.h"
#include "workload/builders.h"

namespace perfbench {

using namespace blowfish;

namespace {

/// Times `op` repeatedly: at least `min_n` samples, then until `budget_ms`
/// or `max_n`. Each sample's value is elapsed / `per_sample` in `unit`.
template <typename Op>
LayerMetric Measure(const std::string& name, const std::string& unit,
                    double per_sample, size_t min_n, size_t max_n,
                    double budget_ms, Op op) {
  const double scale = unit == "ns" ? 1e6 : unit == "us" ? 1e3 : 1.0;
  std::vector<double> values;
  const double start = NowMs();
  while (values.size() < max_n &&
         (values.size() < min_n || NowMs() - start < budget_ms)) {
    const double t0 = NowMs();
    op();
    values.push_back((NowMs() - t0) * scale / per_sample);
  }
  return Sampled(name, unit, std::move(values));
}

/// The same operation from `threads` threads at once; all samples pooled.
template <typename Op>
LayerMetric MeasureParallel(const std::string& name, const std::string& unit,
                            double per_sample, size_t threads,
                            size_t per_thread, Op op) {
  const double scale = unit == "ns" ? 1e6 : unit == "us" ? 1e3 : 1.0;
  std::vector<std::vector<double>> values(threads);
  std::vector<std::thread> workers;
  std::atomic<bool> go{false};
  for (size_t t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      for (size_t i = 0; i < per_thread; ++i) {
        const double t0 = NowMs();
        op(t);
        values[t].push_back((NowMs() - t0) * scale / per_sample);
      }
    });
  }
  go.store(true, std::memory_order_release);
  for (std::thread& w : workers) w.join();
  std::vector<double> pooled;
  for (const std::vector<double>& v : values) {
    pooled.insert(pooled.end(), v.begin(), v.end());
  }
  return Sampled(name, unit, std::move(pooled));
}

double Sink(const Vector& v) { return v.empty() ? 0.0 : v[v.size() / 2]; }

/// A journaled engine under kClientThreads concurrent 64-cell submits:
/// per-submit time with the fsync'd charge, the journal's own counters
/// (fsyncs per charge, retries, append failures), then a reopen of the
/// journal directory whose recovered balances must equal the spend the
/// submits were acknowledged for.
void DurableEngine(const std::string& work_dir, Rng* rng,
                   std::vector<LayerMetric>* out,
                   std::vector<std::string>* errors) {
  constexpr int kSubmits = 200;  // per thread
  EngineOptions options;
  options.seed = kEngineSeed;
  options.journal_path = work_dir + "/durable-engine";
  std::filesystem::remove_all(options.journal_path);
  const Vector data = SeededRamp(64, rng);
  auto open = [&](std::vector<LedgerHandle>* sessions) {
    std::unique_ptr<QueryEngine> engine =
        QueryEngine::Open(options).ValueOrDie();
    engine->RegisterPolicy("small", LinePolicy(64), data, kCap).Check();
    for (size_t t = 0; t < kClientThreads; ++t) {
      const std::string id = "durable:" + std::to_string(t);
      engine->OpenSession(id, kCap).Check();
      if (sessions) sessions->push_back(engine->ResolveSession(id).ValueOrDie());
    }
    return engine;
  };
  std::vector<LedgerHandle> sessions;
  std::unique_ptr<QueryEngine> engine = open(&sessions);
  std::vector<QueryRequest> requests(kClientThreads);
  for (size_t t = 0; t < kClientThreads; ++t) {
    requests[t].session_handle = sessions[t];
    requests[t].policy_handle = engine->ResolvePolicy("small").ValueOrDie();
    requests[t].workload = IdentityWorkload(64);
    requests[t].epsilon = kEpsilon;
  }
  std::vector<int> acknowledged(kClientThreads, 0);
  out->push_back(MeasureParallel(
      "engine.submit_us.durable_x3", "us", 1, kClientThreads, kSubmits,
      [&](size_t t) {
        if (engine->Submit(requests[t]).ok()) ++acknowledged[t];
      }));
  const LedgerJournal::Stats js = engine->journal()->stats();
  const double appends = static_cast<double>(std::max<uint64_t>(js.appends, 1));
  out->push_back(Reading("journal.fsyncs_per_charge", "ratio",
                       static_cast<double>(js.fsyncs) / appends, js.appends));
  out->push_back(Reading("journal.retries", "count",
                       static_cast<double>(js.retries), js.appends));
  out->push_back(Reading("journal.append_failures", "count",
                       static_cast<double>(js.append_failures), js.appends));
  engine.reset();
  engine = open(nullptr);
  int total = 0;
  for (size_t t = 0; t < kClientThreads; ++t) {
    const std::string id = "durable:" + std::to_string(t);
    std::string err = CheckLedger(
        "recovered session " + id, acknowledged[t] * kEpsilon,
        kCap - engine->SessionRemaining(id).ValueOrDie());
    if (!err.empty()) errors->push_back(err);
    total += acknowledged[t];
  }
  std::string err =
      CheckLedger("recovered policy small", total * kEpsilon,
                  kCap - engine->PolicyRemaining("small").ValueOrDie());
  if (!err.empty()) errors->push_back(err);
  if (total != static_cast<int>(kClientThreads) * kSubmits) {
    errors->push_back("durable engine refused a submit");
  }
  engine.reset();
  std::filesystem::remove_all(options.journal_path);
}

}  // namespace

std::vector<LayerMetric> IsolatedLayers(uint64_t seed,
                                        const std::string& work_dir,
                                        std::vector<std::string>* errors) {
  std::vector<LayerMetric> out;
  Rng rng(seed ^ 0x1A7E45ull);
  volatile double sink = 0.0;

  out.push_back(Measure("rng.laplace_ns", "ns", 1024, 200, 2000, 150, [&] {
    sink = Sink(rng.LaplaceVector(1024, 100.0));
  }));
  {
    Vector y(1024);
    double run = 0.0;
    for (size_t i = 0; i < y.size(); ++i) {
      run += static_cast<double>(i % 11);
      y[i] = run + rng.Laplace(400.0);
    }
    out.push_back(Measure("mech.isotonic_us", "us", 1, 100, 2000, 150,
                          [&] { sink = Sink(IsotonicRegression(y)); }));
  }

  // Plans and precomputes of every workload policy: their cost is the
  // cold part of set-up, and the releases below reuse them.
  struct Planned {
    std::string name;
    Policy policy;
    Vector data;
    std::shared_ptr<Plan> plan;
    std::shared_ptr<const BlowfishMechanism::ReleasePrecompute> pre;
  };
  std::vector<Planned> planned;
  for (const std::string name : kWorkloadPolicies) {
    const Policy policy = WorkloadPolicy(name);
    Planned p{name, policy, SeededRamp(policy.domain_size(), &rng), nullptr,
              nullptr};
    std::vector<double> plan_ms, pre_ms;
    for (int rep = 0; rep < 3; ++rep) {
      PlanRequest request;
      request.policy = policy;
      double t0 = NowMs();
      Result<Plan> plan = PlanMechanism(request);
      plan_ms.push_back(NowMs() - t0);
      if (!plan.ok()) {
        errors->push_back("plan " + name + ": " + plan.status().ToString());
        return out;
      }
      p.plan = std::make_shared<Plan>(std::move(plan).ValueOrDie());
      t0 = NowMs();
      p.pre = p.plan->mechanism->PrecomputeRelease(p.data);
      pre_ms.push_back(NowMs() - t0);
    }
    out.push_back(Sampled("core.plan_ms." + name, "ms", plan_ms));
    out.push_back(Sampled("core.precompute_ms." + name, "ms", pre_ms));
    planned.push_back(std::move(p));
  }
  auto find = [&](const std::string& name) -> Planned& {
    for (Planned& p : planned) {
      if (p.name == name) return p;
    }
    return planned.front();
  };
  for (const char* family : {"line", "theta", "grid", "slab", "dp"}) {
    Planned& p = find(family);
    out.push_back(Measure(std::string("core.release_us.") + family, "us", 1,
                          50, 5000, 200, [&] {
                            sink = Sink(p.plan->mechanism->RunPrecomputed(
                                *p.pre, kEpsilon, &rng));
                          }));
  }
  {
    Planned& p = find("line64");
    out.push_back(Measure("core.release_us.small", "us", 1, 100, 20000, 100,
                          [&] {
                            sink = Sink(p.plan->mechanism->RunPrecomputed(
                                *p.pre, kEpsilon, &rng));
                          }));
  }
  {
    const Workload identity = IdentityWorkload(1024);
    const Vector xhat = rng.LaplaceVector(1024, 100.0);
    out.push_back(Measure("workload.answer_us", "us", 1, 100, 20000, 100,
                          [&] { sink = Sink(identity.Answer(xhat)); }));
  }
  {
    Planned& p = find("tgrid64");
    const RangeWorkload ranges =
        RandomRanges(p.policy.domain, kRanges, &rng);
    const Vector xg = p.plan->range_mechanism->PrecomputeTransformed(p.data);
    const double n = std::accumulate(p.data.begin(), p.data.end(), 0.0);
    out.push_back(Measure("core.range_us", "us", 1, 10, 200, 250, [&] {
      sink = Sink(p.plan->range_mechanism->AnswerRangesOnTransformed(
          ranges, xg, n, kEpsilon, &rng));
    }));
    Planned& line = find("line4096");
    const RangeWorkload line_ranges =
        RandomRanges(line.policy.domain, kRanges, &rng);
    const Vector xhat = rng.LaplaceVector(4096, 100.0);
    out.push_back(Measure("workload.sat_us", "us", 1, 50, 5000, 100, [&] {
      SummedAreaAnswerer sat(line.policy.domain, xhat);
      double s = 0.0;
      for (const RangeQuery& q : line_ranges.queries()) s += sat.Answer(q);
      sink = s;
    }));
  }

  // The accountant's two-ledger charge, standalone (no journal): one
  // session ledger per thread plus the shared policy ledger, as the
  // engine charges them. A sample is 1000 charges.
  for (size_t threads : {size_t{1}, kClientThreads}) {
    BudgetAccountant accountant;
    const LedgerHandle policy =
        accountant.OpenLedger("policy/bench", 1e9).ValueOrDie();
    std::vector<std::array<LedgerHandle, 2>> pairs;
    for (size_t t = 0; t < threads; ++t) {
      pairs.push_back(
          {accountant.OpenLedger("session/bench:" + std::to_string(t), 1e9)
               .ValueOrDie(),
           policy});
    }
    auto context = std::make_shared<const std::string>("bench");
    std::atomic<bool> failed{false};
    out.push_back(MeasureParallel(
        "engine.charge_ns.x" + std::to_string(threads), "ns", 1000, threads,
        200, [&](size_t t) {
          ChargeTag tag{"identity", context, 1};
          for (int i = 0; i < 1000; ++i) {
            if (!accountant.Charge(pairs[t].data(), 2, kEpsilon, tag).ok()) {
              failed = true;
            }
          }
        }));
    if (failed) errors->push_back("standalone charge refused");
  }

  // Warm single-thread 64-cell submits, handle vs string id.
  {
    EngineOptions options;
    options.seed = kEngineSeed;
    QueryEngine engine(options);
    const Vector data = SeededRamp(64, &rng);
    engine.RegisterPolicy("small", LinePolicy(64), data, kCap).Check();
    engine.OpenSession("solo:0", kCap).Check();
    QueryRequest by_string;
    by_string.session = "solo:0";
    by_string.policy = "small";
    by_string.workload = IdentityWorkload(64);
    by_string.epsilon = kEpsilon;
    QueryRequest by_handle = by_string;
    by_handle.session_handle = engine.ResolveSession("solo:0").ValueOrDie();
    by_handle.policy_handle = engine.ResolvePolicy("small").ValueOrDie();
    if (!engine.Submit(by_string).ok()) errors->push_back("solo cold submit");
    std::vector<double> handle_us, string_us;
    bool ok = true;
    for (int block = 0; block < 20; ++block) {
      for (int i = 0; i < 200; ++i) {
        double t0 = NowMs();
        ok = engine.Submit(by_handle).ok() && ok;
        handle_us.push_back((NowMs() - t0) * 1e3);
        t0 = NowMs();
        ok = engine.Submit(by_string).ok() && ok;
        string_us.push_back((NowMs() - t0) * 1e3);
      }
    }
    if (!ok) errors->push_back("solo warm submit failed");
    out.push_back(Sampled("engine.submit_us.handle", "us", handle_us));
    out.push_back(Sampled("engine.submit_us.string", "us", string_us));
  }

  // The journal's write-ahead append (fsync'd), standalone.
  for (size_t threads : {size_t{1}, kClientThreads}) {
    JournalOptions options;
    options.dir = work_dir + "/append-x" + std::to_string(threads);
    std::filesystem::remove_all(options.dir);
    Result<std::unique_ptr<LedgerJournal>> journal =
        LedgerJournal::Open(options);
    if (!journal.ok()) {
      errors->push_back("journal open: " + journal.status().ToString());
      continue;
    }
    std::unique_ptr<LedgerJournal> owned = std::move(journal).ValueOrDie();
    LedgerJournal& j = *owned;
    const std::string policy_id = "policy/bench";
    std::vector<std::string> session_ids;
    for (size_t t = 0; t < threads; ++t) {
      session_ids.push_back("session/bench:" + std::to_string(t));
    }
    const std::string context = "bench";
    std::atomic<bool> failed{false};
    out.push_back(MeasureParallel(
        "engine.journal_append_us.x" + std::to_string(threads), "us", 1,
        threads, 150, [&](size_t t) {
          LedgerJournal::ChargeLine lines[2] = {{&session_ids[t], 1e9},
                                                {&policy_id, 1e9}};
          if (!j.AppendCharge(true, StatusCode::kOk, kEpsilon, 1, "identity",
                              &context, lines, 2)
                   .ok()) {
            failed = true;
          }
        }));
    if (failed) errors->push_back("standalone journal append failed");
    owned.reset();
    std::filesystem::remove_all(options.dir);
  }
  DurableEngine(work_dir, &rng, &out, errors);
  return out;
}

}  // namespace perfbench
