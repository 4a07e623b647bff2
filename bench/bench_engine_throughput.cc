// BENCH_ENGINE: serving-layer throughput. Measures queries/second
// through QueryEngine::Submit for each planner family, separating the
// cold path (first submit pays planner + transform + spanner/matrix
// construction) from the warm path (plan-slot hit; only the release
// itself). Warm throughput is measured on the handle-carrying request
// path (zero string construction / map hashing per submit) and, for
// comparison, on the string-id path; sessions are opened and handles
// resolved BEFORE the stopwatch starts, so qps measures submits only.
//
// Sections:
//   1. per-policy cold ms + warm qps at 1 / 4 / 16 threads
//   2. grouped SubmitBatch vs a Submit loop, plus the
//      parallel-composition (disjoint-domain) charge accounting
//   3. θ>=2 grid: single-pass scatter histogram release vs
//      reconstructing every unit cell through the range path, and the
//      per-query range fast path
//   4. cold isolation: warm closed-loop Submit latency from caller
//      threads with and without a concurrent ~100ms cold plan (and
//      two same-key followers) on threads of their own
//   5. result streaming: SubmitStream vs the materializing Submit on
//      the θ-grid fast path (k=256, 10k ranges) — time-to-first-chunk
//      and peak resident chunk bytes vs the full answer vector
//   6. warm-restart snapshot store: cold start (register + certify +
//      transform + first submit) vs restart from a snapshot (mmap +
//      decode + first submit) for the spanner-backed theta subject
//   7. observability overhead: the warm x4 flood with the obs plane
//      stripped (no tenant families / flight recorder / burn tracker)
//      vs the full plane with a live 1 Hz /metrics scraper attached
//
// Exit status enforces the performance floor (skipped with --smoke):
//   - each policy plans exactly once (cache accounting)
//   - geomean warm single-thread speedup over the embedded PR-2
//     baselines >= 3x
//   - 16-thread scaling: >= 8x single-thread on >=16-core hosts, and
//     no contention collapse (>= 0.35x per core, capped) elsewhere
//   - grouped batch is not slower than the submit loop
//   - a disjoint-domain batch charges max(eps), not sum(eps)
//   - cold isolation: warm p99 with a concurrent cold plan
//     <= max(2x the no-cold baseline, half the cold plan cost)
//     — warm queries must never pay the head-of-line price
//   - streaming: time-to-first-chunk <= 1/10 of the materialized
//     submit's latency, with every answer delivered (bit-level
//     equality vs Submit is pinned by engine_stream_test, not here —
//     the two runs here are distinct submits with distinct noise)
//   - warm restart from a snapshot admits the spanner-backed subject
//     >= 10x faster than its cold start, with zero plan-cache misses
//   - the obs plane is free at the advertised price: warm x4 geomean
//     with obs + scraper >= 0.95x of the stripped engine
//
// Structural checks enforced even in --smoke (a zero would mean the
// bench measured nothing, not that the code is slow):
//   - the cold-isolation section's three cold submitters plan once
//     (the slow policy's plan-cache misses rise by exactly 1), and
//     warm submits ran while the plan was in flight
//   - the restarted engine must actually load the snapshot
//
// Flags: --smoke  tiny iteration counts, perf-floor gates off
//        --json   also write BENCH_engine.json (machine-readable)

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "common/stopwatch.h"
#include "core/mechanisms_kd.h"
#include "engine/query_engine.h"
#include "engine/snapshot_store.h"
#include "workload/builders.h"

using namespace blowfish;

namespace {

Vector Ramp(size_t n) {
  Vector x(n);
  for (size_t i = 0; i < n; ++i) x[i] = static_cast<double>(i % 11);
  return x;
}

struct Subject {
  const char* label;
  const char* policy_name;
  Policy policy;
  size_t domain;
  /// PR-2 warm single-thread qps on the reference box (string-id
  /// path, the only path PR-2 had). The 3x floor is taken against
  /// these.
  double baseline_pr2_qps;
};

struct WarmResult {
  double qps = 0.0;
};

/// Warm throughput. Sessions are opened and handles resolved before
/// the stopwatch starts; workers spin on a start flag so the timed
/// region contains only submits.
double WarmQps(QueryEngine* engine, const Subject& subject, size_t lane,
               size_t threads, size_t submits_per_thread, bool use_handles) {
  // Session names carry the nominal lane (1/4/16), not the actual
  // thread count: in --smoke the x4/x16 lanes both clamp to the core
  // count, and naming by actual threads would collide on the second
  // OpenSession.
  std::vector<QueryRequest> requests(threads);
  for (size_t t = 0; t < threads; ++t) {
    const std::string session = std::string(subject.policy_name) + "-x" +
                                std::to_string(lane) + "-w" +
                                std::to_string(t) +
                                (use_handles ? "-h" : "-s");
    engine->OpenSession(session, 1e9).Check();
    QueryRequest& request = requests[t];
    request.session = session;
    request.policy = subject.policy_name;
    request.workload = IdentityWorkload(subject.domain);
    request.epsilon = 0.1;
    if (use_handles) {
      request.session_handle = engine->ResolveSession(session).ValueOrDie();
      request.policy_handle =
          engine->ResolvePolicy(subject.policy_name).ValueOrDie();
    }
  }
  std::atomic<size_t> ready{0};
  std::atomic<bool> start{false};
  std::vector<std::thread> workers;
  for (size_t t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      ready.fetch_add(1);
      while (!start.load(std::memory_order_acquire)) {
        std::this_thread::yield();
      }
      for (size_t i = 0; i < submits_per_thread; ++i) {
        engine->Submit(requests[t]).ValueOrDie();
      }
    });
  }
  while (ready.load() != threads) std::this_thread::yield();
  Stopwatch watch;
  start.store(true, std::memory_order_release);
  for (std::thread& worker : workers) worker.join();
  return static_cast<double>(threads * submits_per_thread) /
         watch.ElapsedSeconds();
}

double Geomean(const std::vector<double>& values) {
  double log_sum = 0.0;
  for (double v : values) log_sum += std::log(v);
  return std::exp(log_sum / static_cast<double>(values.size()));
}

/// One cold-isolation run on a fresh engine: `warm_threads` caller
/// threads each run closed-loop warm submits (1024-cell line policy)
/// and time every call. With `with_cold`, a cold leader and two
/// same-key followers submit against a fresh theta-1D 4096 policy
/// (~100ms spanner certification) on three threads of their own, and
/// the warm threads keep going until the plan is done, so the warm
/// samples cover the whole plan window.
struct ColdIsolationResult {
  double warm_p50_ms = 0.0;
  double warm_p99_ms = 0.0;
  double cold_plan_ms = 0.0;     ///< slowest cold submitter (0 if none)
  uint64_t cold_plan_misses = 0;  ///< plan-cache misses the cold run added
  size_t warm_submits = 0;
  size_t warm_submits_under_cold = 0;  ///< started while a cold one ran
};

ColdIsolationResult WarmUnderColdPlan(bool with_cold, size_t warm_threads,
                                      size_t submits_per_thread) {
  using Clock = std::chrono::steady_clock;
  constexpr size_t kWarmDomain = 1024;
  constexpr size_t kColdDomain = 4096;
  constexpr size_t kColdSubmitters = 3;  // one leader, two followers

  QueryEngine engine(EngineOptions{/*seed=*/2015, /*warm_plan_cache=*/false});
  engine.RegisterPolicy("warm", LinePolicy(kWarmDomain), Ramp(kWarmDomain), 1e9)
      .Check();
  engine
      .RegisterPolicy("slowplan", Theta1DPolicy(kColdDomain, 4),
                      Ramp(kColdDomain), 1e9)
      .Check();
  engine.OpenSession("flood", 1e9).Check();

  QueryRequest warm_request;
  warm_request.workload = IdentityWorkload(kWarmDomain);
  warm_request.epsilon = 0.01;
  warm_request.session_handle = engine.ResolveSession("flood").ValueOrDie();
  warm_request.policy_handle = engine.ResolvePolicy("warm").ValueOrDie();
  engine.Submit(warm_request).ValueOrDie();  // plan the warm policy
  QueryRequest cold_request;
  cold_request.session = "flood";
  cold_request.policy = "slowplan";
  cold_request.workload = IdentityWorkload(kColdDomain);
  cold_request.epsilon = 0.01;
  const uint64_t misses_before = engine.plan_cache_stats().misses;

  std::atomic<size_t> cold_running{with_cold ? kColdSubmitters : 0};
  std::vector<double> cold_ms(kColdSubmitters, 0.0);
  std::vector<std::thread> cold_threads;
  if (with_cold) {
    for (size_t i = 0; i < kColdSubmitters; ++i) {
      cold_threads.emplace_back([&, i] {
        const Clock::time_point start = Clock::now();
        engine.Submit(cold_request).ValueOrDie();
        cold_ms[i] =
            std::chrono::duration<double, std::milli>(Clock::now() - start)
                .count();
        cold_running.fetch_sub(1, std::memory_order_release);
      });
    }
  }

  std::vector<std::vector<double>> latencies(warm_threads);
  std::vector<size_t> under_cold(warm_threads, 0);
  std::vector<std::thread> warm;
  for (size_t t = 0; t < warm_threads; ++t) {
    warm.emplace_back([&, t] {
      latencies[t].reserve(submits_per_thread);
      for (size_t i = 0;
           i < submits_per_thread ||
           cold_running.load(std::memory_order_acquire) != 0;
           ++i) {
        const bool cold_in_flight =
            cold_running.load(std::memory_order_acquire) != 0;
        const Clock::time_point start = Clock::now();
        engine.Submit(warm_request).ValueOrDie();
        latencies[t].push_back(
            std::chrono::duration<double, std::milli>(Clock::now() - start)
                .count());
        if (cold_in_flight) ++under_cold[t];
      }
    });
  }
  for (std::thread& thread : warm) thread.join();
  for (std::thread& thread : cold_threads) thread.join();

  ColdIsolationResult result;
  std::vector<double> all;
  for (size_t t = 0; t < warm_threads; ++t) {
    all.insert(all.end(), latencies[t].begin(), latencies[t].end());
    result.warm_submits_under_cold += under_cold[t];
  }
  std::sort(all.begin(), all.end());
  result.warm_submits = all.size();
  result.warm_p50_ms = all[all.size() / 2];
  result.warm_p99_ms = all[std::min(all.size() - 1, all.size() * 99 / 100)];
  result.cold_plan_ms = *std::max_element(cold_ms.begin(), cold_ms.end());
  result.cold_plan_misses = engine.plan_cache_stats().misses - misses_before;
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  bool write_json = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
    if (std::strcmp(argv[i], "--json") == 0) write_json = true;
  }
  const bool full = bench::FullMode();
  const size_t warm_submits = smoke ? 50 : (full ? 2000 : 500);
  const size_t cores = std::max(1u, std::thread::hardware_concurrency());
  // Smoke mode runs on CI shells as small as one core, where "x4" and
  // "x16" would measure scheduler thrash, not engine scaling. Clamp
  // the submitter counts to the hardware and record the clamp in the
  // JSON so downstream readers never mistake a 1-thread number for a
  // 16-thread one. Full mode keeps the nominal counts: oversubscribing
  // is part of what the contention gates probe there.
  const size_t threads_x4 = smoke ? std::min<size_t>(4, cores) : 4;
  const size_t threads_x16 = smoke ? std::min<size_t>(16, cores) : 16;
  bool failed = false;

  std::vector<Subject> subjects;
  subjects.push_back(
      {"line G^1_1024 (tree)", "line", LinePolicy(1024), 1024, 16200.0});
  subjects.push_back({"theta G^4_1024 (spanner)", "theta",
                      Theta1DPolicy(1024, 4), 1024, 20300.0});
  subjects.push_back({"grid 16x16 (matrix)", "grid",
                      GridPolicy(DomainShape({16, 16}), 1), 256, 3420.0});
  subjects.push_back({"grid 16x16 th=4 (slab)", "slab",
                      GridPolicy(DomainShape({16, 16}), 4), 256, 1270.0});
  subjects.push_back(
      {"unbounded DP 1024", "dp", UnboundedDpPolicy(1024), 1024, 26600.0});

  bench::PrintHeader(
      "BENCH_ENGINE engine throughput (identity workload, eps=0.1, " +
          std::to_string(warm_submits) + " warm submits/thread, handles)",
      {"cold ms", "qps x1 str", "qps x1", "qps x4", "qps x16", "vs PR-2"});

  struct SubjectRow {
    std::string name;
    double cold_ms = 0.0;
    double qps1_string = 0.0;
    double qps1 = 0.0;
    double qps4 = 0.0;
    double qps16 = 0.0;
    double speedup = 0.0;
  };
  std::vector<SubjectRow> rows;
  std::vector<double> speedups;

  for (Subject& subject : subjects) {
    QueryEngine engine(EngineOptions{/*seed=*/2015, false});
    engine
        .RegisterPolicy(subject.policy_name, subject.policy,
                        Ramp(subject.domain), 1e9)
        .Check();
    engine.OpenSession("cold", 1e9).Check();

    QueryRequest request;
    request.session = "cold";
    request.policy = subject.policy_name;
    request.workload = IdentityWorkload(subject.domain);
    request.epsilon = 0.1;

    Stopwatch watch;
    const QueryResult cold = engine.Submit(request).ValueOrDie();
    const double cold_ms = watch.ElapsedMillis();
    if (cold.plan_cache_hit) {
      std::fprintf(stderr, "unexpected cache hit on cold submit\n");
      return 1;
    }

    SubjectRow row;
    row.name = subject.policy_name;
    row.cold_ms = cold_ms;
    row.qps1_string =
        WarmQps(&engine, subject, 1, 1, warm_submits, /*use_handles=*/false);
    row.qps1 =
        WarmQps(&engine, subject, 1, 1, warm_submits, /*use_handles=*/true);
    row.qps4 =
        WarmQps(&engine, subject, 4, threads_x4, warm_submits / 2, true);
    row.qps16 =
        WarmQps(&engine, subject, 16, threads_x16, warm_submits / 4, true);
    row.speedup = row.qps1 / subject.baseline_pr2_qps;
    speedups.push_back(row.speedup);
    bench::PrintRow(subject.label,
                    {bench::Fmt(row.cold_ms), bench::Fmt(row.qps1_string),
                     bench::Fmt(row.qps1), bench::Fmt(row.qps4),
                     bench::Fmt(row.qps16),
                     bench::Fmt(row.speedup) + "x"});
    rows.push_back(row);

    const QueryEngine::PlanCacheStats stats = engine.plan_cache_stats();
    if (stats.misses != 1) {
      std::fprintf(stderr, "expected exactly one plan per policy, saw %llu\n",
                   static_cast<unsigned long long>(stats.misses));
      return 1;
    }
    // 16-thread scaling floor: near-linear where the hardware has the
    // cores, and no contention collapse anywhere (a sharded hot path
    // must not be slower with 16 submitters than with one).
    const double scale16 = row.qps16 / row.qps1;
    const double floor16 =
        cores >= 16 ? 8.0
                    : 0.35 * static_cast<double>(std::min<size_t>(cores, 16));
    if (!smoke && scale16 < floor16) {
      std::fprintf(stderr,
                   "%s: 16-thread scaling %.2fx below floor %.2fx "
                   "(%zu cores)\n",
                   subject.policy_name, scale16, floor16, cores);
      failed = true;
    }
  }

  const double geomean_speedup = Geomean(speedups);
  std::printf(
      "  geomean warm x1 speedup vs PR-2 baseline: %.2fx (floor 3x; "
      "%zu-core host)\n",
      geomean_speedup, cores);
  if (!smoke && geomean_speedup < 3.0) {
    std::fprintf(stderr,
                 "geomean warm speedup %.2fx is below the 3x floor\n",
                 geomean_speedup);
    failed = true;
  }

  // ------------------------------------------------------------------
  // Grouped SubmitBatch vs a Submit loop (one plan resolution + one
  // atomic charge per (session, policy) group), and the
  // parallel-composition charge rule.
  double loop_qps = 0.0, batch_qps = 0.0, batch_ratio = 0.0;
  double parallel_spent = 0.0, sequential_spent = 0.0;
  {
    const size_t domain = 256;
    const size_t batch_size = 64;
    const size_t rounds = smoke ? 4 : 40;
    QueryEngine engine(EngineOptions{/*seed=*/2015, false});
    engine.RegisterPolicy("batch", LinePolicy(domain), Ramp(domain), 1e9)
        .Check();
    engine.OpenSession("loop", 1e9).Check();
    engine.OpenSession("batch", 1e9).Check();

    QueryRequest proto;
    proto.workload = IdentityWorkload(domain);
    proto.policy = "batch";
    proto.epsilon = 0.001;

    std::vector<QueryRequest> batch(batch_size, proto);
    for (QueryRequest& r : batch) {
      r.session = "batch";
      r.session_handle = engine.ResolveSession("batch").ValueOrDie();
      r.policy_handle = engine.ResolvePolicy("batch").ValueOrDie();
    }
    QueryRequest loop_request = proto;
    loop_request.session = "loop";
    loop_request.session_handle = engine.ResolveSession("loop").ValueOrDie();
    loop_request.policy_handle = engine.ResolvePolicy("batch").ValueOrDie();
    engine.Submit(loop_request).ValueOrDie();  // warm the plan

    Stopwatch watch;
    for (size_t round = 0; round < rounds; ++round) {
      for (size_t i = 0; i < batch_size; ++i) {
        engine.Submit(loop_request).ValueOrDie();
      }
    }
    loop_qps = static_cast<double>(rounds * batch_size) /
               watch.ElapsedSeconds();

    watch.Restart();
    for (size_t round = 0; round < rounds; ++round) {
      const std::vector<Result<QueryResult>> results =
          engine.SubmitBatch(batch);
      for (const Result<QueryResult>& result : results) {
        result.ValueOrDie();
      }
    }
    batch_qps = static_cast<double>(rounds * batch_size) /
                watch.ElapsedSeconds();
    batch_ratio = batch_qps / loop_qps;

    bench::PrintHeader(
        "BENCH_ENGINE grouped batch (64 requests, one (session,policy) "
        "group)",
        {"loop qps", "batch qps", "ratio"});
    bench::PrintRow("submit loop vs SubmitBatch",
                    {bench::Fmt(loop_qps), bench::Fmt(batch_qps),
                     bench::Fmt(batch_ratio) + "x"});
    // Floor at 0.9x: the win per entry (one charge + one plan lookup
    // per group) is a few percent on large-domain releases, within
    // the measurement noise of a busy host, so the gate only rejects
    // a real regression.
    if (!smoke && batch_ratio < 0.9) {
      std::fprintf(stderr,
                   "grouped SubmitBatch (%.0f qps) is slower than the "
                   "submit loop (%.0f qps)\n",
                   batch_qps, loop_qps);
      failed = true;
    }

    // Parallel-composition accounting: a declared-disjoint batch of m
    // requests must charge max(eps), a plain batch sum(eps). This is
    // exact arithmetic — enforced even in smoke mode.
    engine.OpenSession("par", 1e9).Check();
    engine.OpenSession("seq", 1e9).Check();
    std::vector<QueryRequest> tiny(3, proto);
    tiny[0].epsilon = 0.3;
    tiny[1].epsilon = 0.5;
    tiny[2].epsilon = 0.2;
    for (QueryRequest& r : tiny) r.session = "par";
    BatchOptions disjoint;
    disjoint.disjoint_domains = true;
    for (const auto& result : engine.SubmitBatch(tiny, disjoint)) {
      result.ValueOrDie();
    }
    parallel_spent = 1e9 - *engine.SessionRemaining("par");
    for (QueryRequest& r : tiny) r.session = "seq";
    for (const auto& result : engine.SubmitBatch(tiny)) {
      result.ValueOrDie();
    }
    sequential_spent = 1e9 - *engine.SessionRemaining("seq");
    std::printf(
        "  disjoint batch charged %.3f eps (max), plain batch %.3f eps "
        "(sum)\n",
        parallel_spent, sequential_spent);
    if (std::abs(parallel_spent - 0.5) > 1e-9 ||
        std::abs(sequential_spent - 1.0) > 1e-9) {
      std::fprintf(stderr,
                   "parallel-composition charge wrong: max %.6f "
                   "(want 0.5), sum %.6f (want 1.0)\n",
                   parallel_spent, sequential_spent);
      return 1;
    }
  }

  // ------------------------------------------------------------------
  // θ>=2 grid: the single-pass scatter histogram release vs
  // reconstructing all k² unit cells through the range path, and the
  // per-query range fast path, which exists for its utility —
  // per-range error scales with the range perimeter instead of its
  // area — rather than for speed.
  double scatter_ms = 0.0, percell_ms = 0.0, fastpath_ms = 0.0;
  {
    const size_t k = smoke ? 64 : 256;
    const size_t theta = 4;
    const size_t num_ranges = smoke ? 100 : 500;
    const size_t warm_range_submits = smoke ? 3 : (full ? 20 : 5);

    QueryEngine engine(EngineOptions{/*seed=*/7, /*warm_plan_cache=*/false});
    engine
        .RegisterPolicy("bigslab", GridPolicy(DomainShape({k, k}), theta),
                        Ramp(k * k), 1e9)
        .Check();
    engine.OpenSession("ranges", 1e9).Check();

    Rng workload_rng(11);
    QueryRequest request;
    request.session = "ranges";
    request.policy = "bigslab";
    request.ranges =
        RandomRanges(DomainShape({k, k}), num_ranges, &workload_rng);
    request.epsilon = 0.1;

    bench::PrintHeader(
        "BENCH_ENGINE theta-grid releases (grid " + std::to_string(k) + "x" +
            std::to_string(k) + " th=" + std::to_string(theta) + ", q=" +
            std::to_string(num_ranges) + " ranges)",
        {"cold ms", "warm ms"});

    Stopwatch watch;
    QueryResult cold = engine.Submit(request).ValueOrDie();
    const double range_cold_ms = watch.ElapsedMillis();
    if (!cold.range_fast_path) {
      std::fprintf(stderr, "range request missed the fast path\n");
      return 1;
    }
    watch.Restart();
    for (size_t i = 0; i < warm_range_submits; ++i) {
      engine.Submit(request).ValueOrDie();
    }
    fastpath_ms =
        watch.ElapsedMillis() / static_cast<double>(warm_range_submits);
    bench::PrintRow("range fast path (utility-optimal)",
                    {bench::Fmt(range_cold_ms), bench::Fmt(fastpath_ms)});

    // Dense histogram release through the scatter reconstruction.
    QueryRequest dense = request;
    dense.ranges.reset();
    dense.workload = IdentityWorkload(k * k);
    watch.Restart();
    for (size_t i = 0; i < warm_range_submits; ++i) {
      QueryResult full_release = engine.Submit(dense).ValueOrDie();
      if (full_release.range_fast_path || !full_release.plan_cache_hit) {
        std::fprintf(stderr, "dense submit took an unexpected path\n");
        return 1;
      }
    }
    scatter_ms =
        watch.ElapsedMillis() / static_cast<double>(warm_range_submits);
    bench::PrintRow("dense release (scatter)",
                    {"-", bench::Fmt(scatter_ms)});

    // Every unit cell through the range path: the noisy slab releases
    // are drawn once outside the stopwatch, then all k² cells are
    // reconstructed from them. Printed for scale, not gated: the dense
    // release uses the scatter pass for its per-range utility, and
    // the two already agree bit for bit (engine_range_path_test).
    {
      Rng rng(13);
      auto mech = GridThetaRangeMechanism::Create(k, theta).ValueOrDie();
      const Vector data = Ramp(k * k);
      const Vector xg = mech->PrecomputeTransformed(data);
      std::vector<RangeQuery> cells;
      cells.reserve(k * k);
      for (size_t r = 0; r < k; ++r) {
        for (size_t c = 0; c < k; ++c) cells.push_back({{r, c}, {r, c}});
      }
      const RangeWorkload unit_cells("cells", DomainShape({k, k}),
                                     std::move(cells));
      std::unique_ptr<GridThetaRangeMechanism::RangeCursor> cursor =
          mech->BeginRanges(xg, Sum(data), 0.1, &rng);
      Vector answers;
      answers.reserve(k * k);
      watch.Restart();
      cursor->AnswerNext(unit_cells, k * k, &answers);
      percell_ms = watch.ElapsedMillis();
      if (answers.size() != k * k) {
        std::fprintf(stderr, "per-cell reconstruction answered %zu of %zu\n",
                     answers.size(), k * k);
        return 1;
      }
      bench::PrintRow("per-cell range reconstruction",
                      {"-", bench::Fmt(percell_ms)});
    }
    std::printf("  per-cell reconstruction / scatter release: %.1fx\n",
                percell_ms / scatter_ms);
  }

  // ------------------------------------------------------------------
  // Cold isolation: warm closed-loop latency from caller threads with
  // and without a concurrent cold plan. A ~100ms spanner certification
  // (theta-1D 4096) runs on its own thread, with two same-key followers
  // that must wait on the serving slot's single flight rather than
  // plan again; warm submits read their ready slot with one atomic
  // load, so warm p99 barely moves.
  ColdIsolationResult iso_base, iso_cold;
  const size_t iso_threads = std::max<size_t>(1, std::min<size_t>(2, cores - 1));
  {
    const size_t per_thread = smoke ? 100 : 1000;
    iso_base = WarmUnderColdPlan(/*with_cold=*/false, iso_threads, per_thread);
    iso_cold = WarmUnderColdPlan(/*with_cold=*/true, iso_threads, per_thread);

    bench::PrintHeader(
        "BENCH_ENGINE cold isolation (" + std::to_string(iso_threads) +
            " warm caller threads, >= " + std::to_string(per_thread) +
            " submits each; cold = theta-1D 4096 plan + 2 same-key "
            "followers)",
        {"warm p50 ms", "warm p99 ms", "cold ms", "warm submits"});
    bench::PrintRow("warm alone",
                    {bench::Fmt(iso_base.warm_p50_ms),
                     bench::Fmt(iso_base.warm_p99_ms), "-",
                     std::to_string(iso_base.warm_submits)});
    bench::PrintRow("warm + cold plan",
                    {bench::Fmt(iso_cold.warm_p50_ms),
                     bench::Fmt(iso_cold.warm_p99_ms),
                     bench::Fmt(iso_cold.cold_plan_ms),
                     std::to_string(iso_cold.warm_submits)});

    // "Unaffected" gate: warm p99 under a concurrent cold plan stays
    // within 2x the no-cold baseline. The half-cold-cost floor keeps
    // the gate meaningful on one- and two-core hosts, where the cold
    // plan steals CPU (scheduler quanta land in the tail) even though
    // no warm query ever waits on it — the property the gate protects
    // is "never pay the head-of-line price", and paying less than half
    // the plan cost while sharing one core proves it.
    const double p99_ceiling = std::max(2.0 * iso_base.warm_p99_ms,
                                        0.5 * iso_cold.cold_plan_ms);
    std::printf(
        "  warm p99 %.3f ms -> %.3f ms under cold plan (ceiling %.3f ms)\n",
        iso_base.warm_p99_ms, iso_cold.warm_p99_ms, p99_ceiling);
    if (!smoke && iso_cold.warm_p99_ms > p99_ceiling) {
      std::fprintf(stderr,
                   "cold plan blocked warm submits: p99 %.3f ms vs "
                   "ceiling %.3f ms (baseline %.3f ms, cold %.1f ms)\n",
                   iso_cold.warm_p99_ms, p99_ceiling, iso_base.warm_p99_ms,
                   iso_cold.cold_plan_ms);
      failed = true;
    }
    // Structural, not perf (enforced in smoke too): the warm samples
    // must overlap the plan, or the p99 above says nothing about it,
    // and the three cold submitters must have planned once — the
    // leader planned, the two followers waited on its slot.
    if (iso_cold.warm_submits_under_cold == 0) {
      std::fprintf(stderr, "no warm submit ran while the cold plan did\n");
      return 1;
    }
    if (iso_cold.cold_plan_misses != 1) {
      std::fprintf(stderr,
                   "three cold submitters planned %llu times (want 1)\n",
                   static_cast<unsigned long long>(iso_cold.cold_plan_misses));
      return 1;
    }
    std::printf(
        "  %zu warm submits ran during the plan; 3 cold submitters planned "
        "once\n",
        iso_cold.warm_submits_under_cold);
  }

  // ------------------------------------------------------------------
  // Result streaming: stream vs materialize on the θ-grid fast path.
  // The materialized submit holds the caller until all q answers
  // exist; the stream delivers the first chunk after only the noisy
  // releases plus one chunk's reconstruction, with resident answer
  // memory bounded by the chunk buffer instead of q.
  double materialize_ms = 0.0, stream_ttfc_ms = 0.0, stream_total_ms = 0.0;
  size_t stream_peak_bytes = 0, materialized_bytes = 0;
  {
    const size_t k = smoke ? 64 : 256;
    const size_t num_ranges = smoke ? 1000 : 10000;
    EngineOptions stream_engine_options;
    stream_engine_options.seed = 2015;
    // Sample every submit so the telemetry dump below carries stage
    // traces (this section is few submits; sampling is not on the
    // timed inner loops above).
    stream_engine_options.trace_sample_rate = 1.0;
    QueryEngine engine(stream_engine_options);
    engine
        .RegisterPolicy("streamed", GridPolicy(DomainShape({k, k}), 4),
                        Ramp(k * k), 1e9)
        .Check();
    engine.OpenSession("s", 1e9).Check();
    Rng workload_rng(23);
    QueryRequest request;
    request.session = "s";
    request.policy = "streamed";
    request.ranges =
        RandomRanges(DomainShape({k, k}), num_ranges, &workload_rng);
    request.epsilon = 0.1;
    engine.Submit(request).ValueOrDie();  // warm the plan + transform

    Stopwatch watch;
    const QueryResult full = engine.Submit(request).ValueOrDie();
    materialize_ms = watch.ElapsedMillis();
    materialized_bytes = full.answers.size() * sizeof(double);

    StreamOptions stream_options;
    stream_options.chunk_queries = 256;
    watch.Restart();
    const std::shared_ptr<ResultStream> stream =
        engine.SubmitStream(request, stream_options).ValueOrDie();
    StreamChunk chunk;
    size_t received = 0;
    if (stream->Next(&chunk).ValueOrDie() != StreamNext::kChunk) {
      std::fprintf(stderr, "stream produced no first chunk\n");
      return 1;
    }
    stream_ttfc_ms = watch.ElapsedMillis();
    received += chunk.values.size();
    for (;;) {
      const StreamNext next = stream->Next(&chunk).ValueOrDie();
      if (next == StreamNext::kDone) break;
      received += chunk.values.size();
    }
    stream_total_ms = watch.ElapsedMillis();
    stream_peak_bytes = stream->peak_resident_bytes();
    if (received != num_ranges) {
      std::fprintf(stderr, "stream delivered %zu of %zu answers\n", received,
                   num_ranges);
      return 1;
    }

    bench::PrintHeader(
        "BENCH_ENGINE result streaming (grid " + std::to_string(k) + "x" +
            std::to_string(k) + " th=4, q=" + std::to_string(num_ranges) +
            " ranges, chunk 256)",
        {"total ms", "first ms", "resident KB"});
    bench::PrintRow("materializing Submit",
                    {bench::Fmt(materialize_ms), bench::Fmt(materialize_ms),
                     bench::Fmt(static_cast<double>(materialized_bytes) /
                                1024.0)});
    bench::PrintRow("SubmitStream",
                    {bench::Fmt(stream_total_ms), bench::Fmt(stream_ttfc_ms),
                     bench::Fmt(static_cast<double>(stream_peak_bytes) /
                                1024.0)});
    std::printf(
        "  time-to-first-chunk %.2f ms vs %.2f ms materialized (gate: "
        "<= 1/10)\n",
        stream_ttfc_ms, materialize_ms);
    if (!smoke && stream_ttfc_ms > materialize_ms / 10.0) {
      std::fprintf(stderr,
                   "time-to-first-chunk %.2f ms exceeds 1/10 of the "
                   "materialized latency %.2f ms\n",
                   stream_ttfc_ms, materialize_ms);
      failed = true;
    }

    if (write_json) {
      // Telemetry artifacts from this section's engine: the unified
      // metrics snapshot and the ε-audit JSONL (what CI uploads).
      const auto dump = [](const char* path, const std::string& body) {
        FILE* f = std::fopen(path, "w");
        if (f == nullptr) {
          std::fprintf(stderr, "cannot write %s\n", path);
          return;
        }
        std::fwrite(body.data(), 1, body.size(), f);
        std::fclose(f);
        std::printf("  wrote %s\n", path);
      };
      dump("BENCH_engine_metrics.json",
           engine.telemetry().metrics().SnapshotJson());
      dump("BENCH_engine_audit.jsonl", engine.telemetry().audit().ExportJsonl());
    }
  }

  // ------------------------------------------------------------------
  // Warm-restart snapshot store: the full cold path (construct,
  // register, plan + certify + transform on first submit) vs a
  // restart that mmaps the snapshot written by the first engine and
  // readmits the same request with everything pre-populated. The
  // subject is the spanner-backed theta policy, whose CertifySpanner
  // pass dominates cold admission — exactly the cost the snapshot's
  // certified-stretch hint removes.
  double snap_cold_ms = 0.0, snap_warm_ms = 0.0, snap_speedup = 0.0;
  uint64_t snap_generation = 0;
  {
    const size_t k = smoke ? 1024 : 4096;
    char tmpl[] = "/tmp/bfsnapbench.XXXXXX";
    if (::mkdtemp(tmpl) == nullptr) {
      std::fprintf(stderr, "cannot create snapshot bench dir\n");
      return 1;
    }
    const std::string dir = tmpl;

    EngineOptions snap_options;
    snap_options.seed = 2015;
    snap_options.snapshot_path = dir;

    QueryRequest request;
    request.session = "s";
    request.policy = "theta";
    Rng workload_rng(29);
    request.ranges = RandomRanges(DomainShape({k}), 16, &workload_rng);
    request.epsilon = 0.01;

    Stopwatch watch;
    {
      QueryEngine engine(snap_options);
      engine
          .RegisterPolicy("theta", Theta1DPolicy(k, 4), Ramp(k), 1e9)
          .Check();
      engine.OpenSession("s", 1e9).Check();
      engine.Submit(request).ValueOrDie();
      snap_cold_ms = watch.ElapsedMillis();
      engine.WriteSnapshot().Check();
    }

    watch.Restart();
    QueryEngine engine(snap_options);
    engine.OpenSession("s", 1e9).Check();
    const QueryResult warm = engine.Submit(request).ValueOrDie();
    snap_warm_ms = watch.ElapsedMillis();
    snap_generation = engine.snapshot_restore_stats().generation;
    snap_speedup = snap_cold_ms / snap_warm_ms;

    bench::PrintHeader(
        "BENCH_ENGINE warm restart (theta G^4_" + std::to_string(k) +
            " spanner, snapshot store)",
        {"cold start ms", "warm restart ms", "speedup"});
    bench::PrintRow("register+certify vs mmap+decode",
                    {bench::Fmt(snap_cold_ms), bench::Fmt(snap_warm_ms),
                     bench::Fmt(snap_speedup) + "x"});

    // Structural (smoke too): the restart must have restored from the
    // snapshot and admitted with zero cold work, or the timing above
    // compared nothing.
    if (!engine.snapshot_restore_stats().loaded || !warm.plan_cache_hit ||
        engine.plan_cache_stats().misses != 0) {
      std::fprintf(stderr,
                   "warm restart did not restore from the snapshot "
                   "(loaded=%d hit=%d misses=%llu)\n",
                   engine.snapshot_restore_stats().loaded ? 1 : 0,
                   warm.plan_cache_hit ? 1 : 0,
                   static_cast<unsigned long long>(
                       engine.plan_cache_stats().misses));
      return 1;
    }
    if (!smoke && snap_speedup < 10.0) {
      std::fprintf(stderr,
                   "warm-restart speedup %.1fx below the 10x floor "
                   "(cold %.1f ms, warm %.1f ms)\n",
                   snap_speedup, snap_cold_ms, snap_warm_ms);
      failed = true;
    }

    Result<std::vector<std::string>> files = snapshot::ListFiles(dir);
    if (files.ok()) {
      for (const std::string& name : files.ValueOrDie()) {
        ::unlink((dir + "/" + name).c_str());
      }
    }
    ::rmdir(dir.c_str());
  }

  // ------------------------------------------------------------------
  // Observability overhead. The per-request obs work (tenant family
  // updates, flight record, burn window arithmetic) plus a live
  // scraper must cost < 5% of warm x4 throughput — otherwise "always
  // on" is a lie operators pay for. `off` strips the plane entirely
  // (the pre-obs engine); `on` runs the defaults plus an in-process
  // scrape server polled at 1 Hz, the deployment this PR recommends.
  double obs_geomean_ratio = 0.0;
  struct ObsRow {
    std::string name;
    double qps_off = 0.0;
    double qps_on = 0.0;
    double ratio = 0.0;
  };
  std::vector<ObsRow> obs_rows;
  uint64_t obs_scrapes = 0;
  {
    bench::PrintHeader(
        "BENCH_ENGINE observability overhead (warm x" +
            std::to_string(threads_x4) + ", obs plane + 1 Hz /metrics "
            "scraper vs stripped engine)",
        {"qps obs off", "qps obs on", "ratio"});
    std::vector<double> ratios;
    for (Subject& subject : subjects) {
      const auto prime = [&](QueryEngine* engine) {
        engine
            ->RegisterPolicy(subject.policy_name, subject.policy,
                             Ramp(subject.domain), 1e9)
            .Check();
        engine->OpenSession("prime", 1e9).Check();
        QueryRequest request;
        request.session = "prime";
        request.policy = subject.policy_name;
        request.workload = IdentityWorkload(subject.domain);
        request.epsilon = 0.1;
        engine->Submit(request).ValueOrDie();  // plan once, off the clock
      };

      EngineOptions off_options;
      off_options.seed = 2015;
      off_options.warm_plan_cache = false;
      off_options.tenant_metrics_capacity = 0;
      off_options.flight_recorder_capacity = 0;
      off_options.burn_alerts_enabled = false;
      QueryEngine engine_off(off_options);
      prime(&engine_off);
      ObsRow row;
      row.name = subject.policy_name;
      row.qps_off = WarmQps(&engine_off, subject, 4, threads_x4,
                            warm_submits / 2, /*use_handles=*/true);

      EngineOptions on_options;  // obs defaults: families + flight on
      on_options.seed = 2015;
      on_options.warm_plan_cache = false;
      on_options.obs_port = 0;
      QueryEngine engine_on(on_options);
      if (engine_on.obs_server() == nullptr) {
        std::fprintf(stderr, "obs server failed to start: %s\n",
                     engine_on.obs_error().ToString().c_str());
        return 1;
      }
      prime(&engine_on);
      const int port = engine_on.obs_server()->port();
      std::atomic<bool> stop_scraper{false};
      std::thread scraper([port, &stop_scraper, &obs_scrapes] {
        while (!stop_scraper.load(std::memory_order_acquire)) {
          const Result<HttpResponse> scrape = ObsHttpGet(port, "/metrics");
          if (scrape.ok() && scrape.ValueOrDie().status == 200) {
            ++obs_scrapes;
          }
          // 1 Hz, polled in 50 ms slices so teardown is prompt.
          for (int i = 0; i < 20 && !stop_scraper.load(); ++i) {
            std::this_thread::sleep_for(std::chrono::milliseconds(50));
          }
        }
      });
      row.qps_on = WarmQps(&engine_on, subject, 4, threads_x4,
                           warm_submits / 2, /*use_handles=*/true);
      stop_scraper.store(true, std::memory_order_release);
      scraper.join();

      row.ratio = row.qps_on / row.qps_off;
      ratios.push_back(row.ratio);
      bench::PrintRow(subject.label,
                      {bench::Fmt(row.qps_off), bench::Fmt(row.qps_on),
                       bench::Fmt(row.ratio) + "x"});
      obs_rows.push_back(row);
    }
    obs_geomean_ratio = Geomean(ratios);
    std::printf(
        "  obs-plane geomean throughput ratio: %.3fx (floor 0.95x), "
        "%llu live scrapes\n",
        obs_geomean_ratio, static_cast<unsigned long long>(obs_scrapes));
    // Structural (smoke too): the scraper must have actually scraped a
    // live server at least once per subject, or the "on" lane measured
    // an idle obs plane.
    if (obs_scrapes < subjects.size()) {
      std::fprintf(stderr,
                   "scraper landed %llu scrapes over %zu subjects — the "
                   "obs lane was not exercised\n",
                   static_cast<unsigned long long>(obs_scrapes),
                   subjects.size());
      return 1;
    }
    if (!smoke && obs_geomean_ratio < 0.95) {
      std::fprintf(stderr,
                   "obs plane costs %.1f%% of warm x4 throughput "
                   "(geomean ratio %.3f, floor 0.95)\n",
                   (1.0 - obs_geomean_ratio) * 100.0, obs_geomean_ratio);
      failed = true;
    }
  }

  if (write_json) {
    FILE* out = std::fopen("BENCH_engine.json", "w");
    if (out == nullptr) {
      std::fprintf(stderr, "cannot write BENCH_engine.json\n");
      return 1;
    }
    std::fprintf(out, "{\n  \"mode\": \"%s\",\n", smoke ? "smoke" : "full");
    std::fprintf(out, "  \"hardware_concurrency\": %zu,\n", cores);
    // The actual submitter counts behind warm_qps_x4/x16 (clamped to
    // the hardware in smoke mode; nominal 4/16 otherwise).
    std::fprintf(out,
                 "  \"warm_threads_x4\": %zu,\n  \"warm_threads_x16\": %zu,\n"
                 "  \"smoke_thread_clamp\": %s,\n",
                 threads_x4, threads_x16,
                 (threads_x4 < 4 || threads_x16 < 16) ? "true" : "false");
    std::fprintf(out, "  \"subjects\": [\n");
    for (size_t i = 0; i < rows.size(); ++i) {
      const SubjectRow& row = rows[i];
      std::fprintf(out,
                   "    {\"name\": \"%s\", \"cold_ms\": %.4f, "
                   "\"warm_qps_x1_string\": %.1f, \"warm_qps_x1\": %.1f, "
                   "\"warm_qps_x4\": %.1f, \"warm_qps_x16\": %.1f, "
                   "\"speedup_vs_pr2\": %.3f}%s\n",
                   row.name.c_str(), row.cold_ms,
                   row.qps1_string, row.qps1, row.qps4, row.qps16,
                   row.speedup, i + 1 < rows.size() ? "," : "");
    }
    std::fprintf(out, "  ],\n");
    std::fprintf(out, "  \"geomean_speedup_vs_pr2\": %.3f,\n",
                 geomean_speedup);
    std::fprintf(out,
                 "  \"batch\": {\"loop_qps\": %.1f, \"batch_qps\": %.1f, "
                 "\"ratio\": %.3f},\n",
                 loop_qps, batch_qps, batch_ratio);
    std::fprintf(out,
                 "  \"parallel_composition\": {\"disjoint_spent_eps\": %.6f, "
                 "\"sequential_spent_eps\": %.6f},\n",
                 parallel_spent, sequential_spent);
    std::fprintf(out,
                 "  \"theta_grid\": {\"fast_path_warm_ms\": %.3f, "
                 "\"scatter_release_ms\": %.3f, "
                 "\"percell_reconstruction_ms\": %.3f},\n",
                 fastpath_ms, scatter_ms, percell_ms);
    std::fprintf(out,
                 "  \"cold_isolation\": {\n"
                 "    \"warm_threads\": %zu,\n"
                 "    \"warm_p50_ms_base\": %.4f, \"warm_p99_ms_base\": "
                 "%.4f,\n"
                 "    \"warm_p50_ms_under_cold\": %.4f, "
                 "\"warm_p99_ms_under_cold\": %.4f,\n"
                 "    \"cold_plan_ms\": %.2f, \"cold_plan_misses\": %llu,\n"
                 "    \"warm_submits_under_cold\": %zu\n  },\n",
                 iso_threads, iso_base.warm_p50_ms, iso_base.warm_p99_ms,
                 iso_cold.warm_p50_ms, iso_cold.warm_p99_ms,
                 iso_cold.cold_plan_ms,
                 static_cast<unsigned long long>(iso_cold.cold_plan_misses),
                 iso_cold.warm_submits_under_cold);
    std::fprintf(out,
                 "  \"stream\": {\"materialize_ms\": %.3f, "
                 "\"stream_total_ms\": %.3f, \"time_to_first_chunk_ms\": "
                 "%.3f,\n"
                 "    \"peak_resident_chunk_bytes\": %zu, "
                 "\"materialized_answer_bytes\": %zu},\n",
                 materialize_ms, stream_total_ms, stream_ttfc_ms,
                 stream_peak_bytes, materialized_bytes);
    std::fprintf(out,
                 "  \"snapshot\": {\"cold_start_ms\": %.3f, "
                 "\"warm_restart_ms\": %.3f, \"speedup\": %.2f, "
                 "\"generation\": %llu},\n",
                 snap_cold_ms, snap_warm_ms, snap_speedup,
                 static_cast<unsigned long long>(snap_generation));
    std::fprintf(out, "  \"obs\": {\n    \"subjects\": [\n");
    for (size_t i = 0; i < obs_rows.size(); ++i) {
      const ObsRow& row = obs_rows[i];
      std::fprintf(out,
                   "      {\"name\": \"%s\", \"warm_qps_x4_obs_off\": %.1f, "
                   "\"warm_qps_x4_obs_on\": %.1f, \"ratio\": %.4f}%s\n",
                   row.name.c_str(), row.qps_off, row.qps_on, row.ratio,
                   i + 1 < obs_rows.size() ? "," : "");
    }
    std::fprintf(out,
                 "    ],\n    \"geomean_ratio\": %.4f, "
                 "\"scrapes\": %llu, \"scrape_hz\": 1\n  }\n",
                 obs_geomean_ratio,
                 static_cast<unsigned long long>(obs_scrapes));
    std::fprintf(out, "}\n");
    std::fclose(out);
    std::printf("  wrote BENCH_engine.json\n");
  }

  return failed ? 1 : 0;
}
