// A miniature policy-aware query service: the engine holds several
// published datasets (each under its own Blowfish policy and total ε
// cap), analysts open sessions with personal ε grants, and repeated
// queries reuse cached plans until a budget runs dry. The later rounds
// serve from several caller threads at once — a cold plan on one
// thread never blocks warm queries on another — and stream a large
// answer vector chunk by chunk.
//
// Build & run:  ./example_query_service

#include <cstdio>
#include <memory>
#include <thread>
#include <vector>

#include "engine/query_engine.h"
#include "workload/builders.h"

using namespace blowfish;

namespace {

Vector SalaryCounts() {
  return {2, 8, 25, 60, 120, 180, 220, 160, 90, 40, 18, 7, 3, 1, 1, 0};
}

Vector CheckinCounts() {
  Vector x(64, 0.0);
  for (size_t i = 0; i < x.size(); ++i) x[i] = static_cast<double>((i * 7) % 13);
  return x;
}

Vector Ramp256() {
  Vector x(256, 0.0);
  for (size_t i = 0; i < x.size(); ++i) x[i] = static_cast<double>(i % 17);
  return x;
}

Vector Ramp512() {
  Vector x(512, 0.0);
  for (size_t i = 0; i < x.size(); ++i) x[i] = static_cast<double>(i % 23);
  return x;
}

void Report(const char* who, const Result<QueryResult>& outcome) {
  if (!outcome.ok()) {
    std::printf("  %-8s -> %s\n", who, outcome.status().ToString().c_str());
    return;
  }
  const QueryResult& r = *outcome;
  char left[32];
  if (r.session_remaining.has_value()) {
    std::snprintf(left, sizeof(left), "%.2f", *r.session_remaining);
  } else {
    std::snprintf(left, sizeof(left), "n/a (ledger closed)");
  }
  std::printf("  %-8s -> %zu answers via %-16s %s%s, session eps left %s\n",
              who, r.answers.size(), r.plan_kind.c_str(),
              r.plan_cache_hit ? "(cached plan)" : "(planned now)",
              r.range_fast_path ? " [range fast path]" : "", left);
}

}  // namespace

int main() {
  // One engine serves every caller; callers bring their own threads.
  QueryEngine engine;

  // The data owners publish: salaries under a line policy (adjacent
  // bins indistinguishable), check-ins under a θ=1 grid policy
  // (neighboring cells indistinguishable), and a control dataset under
  // classical unbounded DP. Caps bound total leakage per dataset.
  engine.RegisterPolicy("salaries", LinePolicy(16), SalaryCounts(), 5.0)
      .Check();
  engine
      .RegisterPolicy("checkins", GridPolicy(DomainShape({8, 8}), 1),
                      CheckinCounts(), 5.0)
      .Check();
  engine
      .RegisterPolicy("control", UnboundedDpPolicy(16), SalaryCounts(), 5.0)
      .Check();
  // A θ=4 grid policy: range queries on it take the engine's slab
  // fast path (per-query reconstruction, no full-histogram release).
  engine
      .RegisterPolicy("mobility", GridPolicy(DomainShape({16, 16}), 4),
                      Ramp256(), 5.0)
      .Check();

  for (const std::string& name : engine.Names()) {
    const PolicyMetadata meta = engine.GetPolicyMetadata(name).ValueOrDie();
    std::printf("policy %-10s domain %4zu cells, %4zu sensitive pairs%s\n",
                name.c_str(), meta.domain_size, meta.num_edges,
                meta.is_tree ? " (tree-reducible)" : "");
  }

  // Two analysts with individual grants.
  engine.OpenSession("alice", 2.5).Check();
  engine.OpenSession("bob", 0.5).Check();

  std::printf("\nround 1 — plans are built on first contact:\n");
  QueryRequest request;
  request.session = "alice";
  request.policy = "salaries";
  request.workload = IdentityWorkload(16);
  request.epsilon = 0.5;
  Report("alice", engine.Submit(request));

  request.policy = "checkins";
  request.workload = IdentityWorkload(64);
  Report("alice", engine.Submit(request));

  std::printf("\nround 2 — same policies, cached plans, any session:\n");
  request.session = "bob";
  request.epsilon = 0.25;
  Report("bob", engine.Submit(request));
  request.policy = "salaries";
  request.workload = CumulativeWorkload(16);
  Report("bob", engine.Submit(request));

  std::printf("\nround 3 — range workloads dispatch to the cheapest path:\n");
  // On the θ=4 grid, explicit ranges bypass the full-histogram
  // release; on the line policy the same ranges are answered from the
  // histogram release via a summed-area table.
  QueryRequest ranges;
  ranges.session = "alice";
  ranges.policy = "mobility";
  ranges.ranges = RangeWorkload(
      "quadrants", DomainShape({16, 16}),
      {{{0, 0}, {7, 7}}, {{0, 8}, {7, 15}}, {{8, 0}, {15, 7}},
       {{8, 8}, {15, 15}}});
  ranges.epsilon = 0.5;
  Report("alice", engine.Submit(ranges));
  ranges.policy = "salaries";
  ranges.ranges = RangeWorkload("halves", DomainShape({16}),
                                {{{0}, {7}}, {{8}, {15}}});
  Report("alice", engine.Submit(ranges));

  std::printf("\nround 4 — handle fast path and grouped batches:\n");
  // A dashboard resolves its handles once, then submits with zero
  // string construction or map hashing per query; the batch's four
  // same-(session, policy) requests share one plan lookup and one
  // atomic budget charge.
  const LedgerHandle alice = engine.ResolveSession("alice").ValueOrDie();
  const PolicyHandle mobility = engine.ResolvePolicy("mobility").ValueOrDie();
  std::vector<QueryRequest> dashboard(4);
  const char* quadrant_names[] = {"nw", "ne", "sw", "se"};
  const size_t corners[][2] = {{0, 0}, {0, 8}, {8, 0}, {8, 8}};
  for (size_t i = 0; i < 4; ++i) {
    dashboard[i].session_handle = alice;
    dashboard[i].policy_handle = mobility;
    dashboard[i].ranges = RangeWorkload(
        quadrant_names[i], DomainShape({16, 16}),
        {{{corners[i][0], corners[i][1]},
          {corners[i][0] + 7, corners[i][1] + 7}}});
    dashboard[i].epsilon = 0.25;
  }
  // The four quadrants partition the domain, so the analyst declares
  // them disjoint: parallel composition charges max(eps) = 0.25 once
  // instead of sum = 1.0.
  BatchOptions disjoint;
  disjoint.disjoint_domains = true;
  for (const auto& outcome : engine.SubmitBatch(dashboard, disjoint)) {
    Report("alice", outcome);
  }

  std::printf("\nround 5 — budgets are hard limits:\n");
  // Bob has 0.5 - 0.25 - 0.25 = 0 left; the engine refuses cleanly.
  Report("bob", engine.Submit(request));

  std::printf("\nround 6 — a cold plan on its own thread, warm queries flow:\n");
  // A new dataset goes live under a policy that needs a fresh plan.
  // Carol's first query plans it on a thread of its own, while her
  // warm dashboard queries keep running on this one: a warm submit
  // reads its ready serving slot with one atomic load, so the cold
  // plan (single-flight on the new policy's own slot) never blocks
  // it.
  engine
      .RegisterPolicy("roads", Theta1DPolicy(512, 4), Ramp512(), 5.0)
      .Check();
  engine.OpenSession("carol", 1.0).Check();
  QueryRequest cold;
  cold.session = "carol";
  cold.policy = "roads";
  cold.workload = IdentityWorkload(512);
  cold.epsilon = 0.2;
  Result<QueryResult> cold_outcome = Status::Internal("not run");
  std::thread planner([&] { cold_outcome = engine.Submit(cold); });
  QueryRequest warm;
  warm.session = "carol";
  warm.policy = "mobility";
  warm.ranges = RangeWorkload("center", DomainShape({16, 16}),
                              {{{4, 4}, {11, 11}}});
  warm.epsilon = 0.05;
  std::vector<Result<QueryResult>> warm_outcomes;
  for (int i = 0; i < 4; ++i) warm_outcomes.push_back(engine.Submit(warm));
  planner.join();
  for (const auto& outcome : warm_outcomes) Report("carol", outcome);
  Report("carol", cold_outcome);

  std::printf("\nround 7 — result streaming (chunks flow while a plan runs):\n");
  // Carol scans every cell of the mobility grid. Instead of waiting
  // for all 256 answers, she streams them: ε is charged once at
  // admission, the noisy releases are drawn immediately, and each
  // chunk is post-processing computed on her own thread when she asks
  // for it — while yet another new policy ("floors") plans on a
  // second thread.
  engine
      .RegisterPolicy("floors", GridPolicy(DomainShape({8, 8}), 1),
                      CheckinCounts(), 5.0)
      .Check();
  QueryRequest cold2;
  cold2.session = "carol";
  cold2.policy = "floors";
  cold2.workload = IdentityWorkload(64);
  cold2.epsilon = 0.1;
  Result<QueryResult> floors_outcome = Status::Internal("not run");
  std::thread floors_planner([&] { floors_outcome = engine.Submit(cold2); });

  std::vector<RangeQuery> cells;
  for (size_t r = 0; r < 16; ++r)
    for (size_t c = 0; c < 16; ++c) cells.push_back({{r, c}, {r, c}});
  QueryRequest scan;
  scan.session = "carol";
  scan.policy = "mobility";
  scan.ranges = RangeWorkload("full-scan", DomainShape({16, 16}),
                              std::move(cells));
  scan.epsilon = 0.1;
  StreamOptions stream_options;
  stream_options.chunk_queries = 64;
  std::shared_ptr<ResultStream> stream =
      engine.SubmitStream(scan, stream_options).ValueOrDie();
  const StreamHeader header = stream->header().ValueOrDie();
  std::printf("  stream admitted via %s%s, %zu answers inbound\n",
              header.plan_kind.c_str(),
              header.range_fast_path ? " [range fast path]" : "",
              header.total_answers);
  StreamChunk chunk;
  for (;;) {
    const StreamNext next = stream->Next(&chunk).ValueOrDie();
    if (next == StreamNext::kDone) break;
    double sum = 0.0;
    for (double v : chunk.values) sum += v;
    std::printf("  chunk @%3zu: %zu answers (noisy mass %.1f)\n",
                chunk.offset, chunk.values.size(), sum);
  }
  floors_planner.join();
  Report("carol", floors_outcome);

  // A stream abandoned after its first chunk: Cancel is sticky, and
  // the ε charged at admission stands (the noise was already drawn).
  std::shared_ptr<ResultStream> abandoned =
      engine.SubmitStream(scan, stream_options).ValueOrDie();
  abandoned->Next(&chunk).ValueOrDie();
  abandoned->Cancel();
  const Result<StreamNext> cancelled = abandoned->Next(&chunk);
  std::printf("  stream  -> %s, session eps left %.2f\n",
              cancelled.status().ToString().c_str(),
              *engine.SessionRemaining("carol"));

  const QueryEngine::PlanCacheStats stats = engine.plan_cache_stats();
  std::printf("\nplan cache: %llu hits, %llu misses, %zu entries\n",
              static_cast<unsigned long long>(stats.hits),
              static_cast<unsigned long long>(stats.misses), stats.entries);
  std::printf("\nalice's audit trail:\n%s\n",
              engine.SessionAudit("alice").ValueOrDie().c_str());

  std::printf("\nround 8 — telemetry (the whole service in two dumps):\n");
  // Every component above fed one registry: submits, ε charged,
  // refusals, cache levels, streams, per-tenant slices. The
  // snapshot is what a /metrics endpoint would serve; the ε-audit
  // JSONL is the crash-exportable spend record — one line per charge
  // or refusal, with post-charge balances, replayable against the
  // accountant bit-for-bit.
  const EngineTelemetry& telemetry = engine.telemetry();
  std::printf("metrics snapshot:\n%s\n",
              telemetry.metrics().SnapshotJson().c_str());
  std::printf("last epsilon-audit events (of %llu):\n",
              static_cast<unsigned long long>(telemetry.audit().total()));
  // Print only the tail; ExportJsonl() is what a service would
  // persist on crash or rotation.
  const std::vector<AuditEvent> events = telemetry.audit().Snapshot();
  std::string tail;
  for (size_t i = events.size() > 3 ? events.size() - 3 : 0;
       i < events.size(); ++i) {
    AppendJsonl(events[i], &tail);
  }
  std::printf("%s", tail.c_str());
  return 0;
}
