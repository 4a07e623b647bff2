// Telemetry-layer tests: the metrics registry's counting invariants,
// sampled stage tracing (including the rate-0 zero-allocation hot
// path), and the ε-audit log's bit-level reconciliation against the
// accountant under a multi-threaded flood.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <map>
#include <memory>
#include <new>
#include <string>
#include <thread>
#include <vector>

#include "engine/query_engine.h"
#include "engine/telemetry.h"
#include "workload/builders.h"

// ---- global allocation counter -------------------------------------
// Counts every operator-new in the test binary; the rate-0 hot-path
// test asserts a zero delta across telemetry calls.

namespace {
std::atomic<uint64_t> g_allocations{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace blowfish {
namespace {

Vector Ramp(size_t n) {
  Vector x(n);
  for (size_t i = 0; i < n; ++i) x[i] = static_cast<double>(i % 7);
  return x;
}

QueryRequest MakeRequest(const std::string& session, const std::string& policy,
                         double epsilon) {
  QueryRequest request;
  request.session = session;
  request.policy = policy;
  request.workload = IdentityWorkload(16);
  request.epsilon = epsilon;
  return request;
}

// ---- registry ------------------------------------------------------

TEST(MetricsRegistry, GetOrCreateReturnsStablePointers) {
  MetricsRegistry registry;
  Counter* a = registry.counter("x_total");
  Counter* b = registry.counter("x_total");
  EXPECT_EQ(a, b);
  a->Add(3);
  EXPECT_EQ(3u, b->value());

  LatencyHistogram* h = registry.histogram("x_ms");
  EXPECT_EQ(h, registry.histogram("x_ms"));

  Gauge* g = registry.gauge("x_level");
  g->Set(-5);
  EXPECT_EQ(-5, registry.gauge("x_level")->value());

  DoubleCounter* d = registry.double_counter("x_eps");
  d->Add(0.25);
  d->Add(0.5);
  EXPECT_DOUBLE_EQ(0.75, registry.double_counter("x_eps")->value());
}

TEST(MetricsRegistry, HistogramSnapshotCountsAndPercentiles) {
  LatencyHistogram hist;
  for (int i = 0; i < 100; ++i) hist.Record(1.0);  // 1000 us -> bucket 10
  hist.Record(1000.0);                             // 1e6 us outlier
  const HistogramSnapshot snap = hist.Snapshot();
  EXPECT_EQ(101u, snap.count);
  EXPECT_NEAR(1100.0, snap.sum_ms, 1e-9);
  EXPECT_DOUBLE_EQ(1000.0, snap.max_ms);
  // p50 is the bucket upper bound for 1000 us = 2^10 us = 1.024 ms.
  EXPECT_NEAR(1.024, snap.p50_ms, 1e-9);
}

TEST(MetricsRegistry, SnapshotJsonAndPrometheusText) {
  MetricsRegistry registry;
  registry.counter("a_total")->Add(2);
  registry.gauge("b_level")->Set(7);
  registry.double_counter("c_eps")->Add(0.5);
  registry.histogram("d_ms")->Record(3.0);
  registry.gauge_callback("e_cb", [] { return 42.0; });

  const std::string json = registry.SnapshotJson();
  EXPECT_NE(std::string::npos, json.find("\"a_total\":2"));
  EXPECT_NE(std::string::npos, json.find("\"b_level\":7"));
  EXPECT_NE(std::string::npos, json.find("\"c_eps\":0.5"));
  EXPECT_NE(std::string::npos, json.find("\"e_cb\":42"));
  EXPECT_NE(std::string::npos, json.find("\"d_ms\":{\"count\":1"));

  const std::string prom = registry.PrometheusText();
  EXPECT_NE(std::string::npos, prom.find("# TYPE a_total counter"));
  EXPECT_NE(std::string::npos, prom.find("a_total 2"));
  EXPECT_NE(std::string::npos, prom.find("# TYPE b_level gauge"));
  EXPECT_NE(std::string::npos, prom.find("# TYPE d_ms histogram"));
  EXPECT_NE(std::string::npos, prom.find("d_ms_bucket{le=\"+Inf\"} 1"));
  EXPECT_NE(std::string::npos, prom.find("d_ms_count 1"));
  EXPECT_NE(std::string::npos, prom.find("e_cb 42"));
}

// ---- engine counting invariants ------------------------------------

TEST(EngineTelemetry, SubmitLatencyHistogramCountsEveryAttempt) {
  EngineOptions options;
  options.seed = 7;
  QueryEngine engine(options);
  ASSERT_TRUE(
      engine.RegisterPolicy("line", LinePolicy(16), Ramp(16), 100.0).ok());
  ASSERT_TRUE(engine.OpenSession("s", 1.0).ok());

  constexpr int kOk = 12;
  for (int i = 0; i < kOk; ++i) {
    ASSERT_TRUE(engine.Submit(MakeRequest("s", "line", 0.01)).ok());
  }
  // Two refusals: unknown policy (admission failure) and an over-budget
  // charge. Both are attempts and must be counted.
  EXPECT_FALSE(engine.Submit(MakeRequest("s", "nope", 0.01)).ok());
  EXPECT_FALSE(engine.Submit(MakeRequest("s", "line", 50.0)).ok());

  MetricsRegistry& metrics = engine.telemetry().metrics();
  EXPECT_EQ(static_cast<uint64_t>(kOk) + 2,
            metrics.counter("engine_submits_total")->value());
  EXPECT_EQ(static_cast<uint64_t>(kOk) + 2,
            metrics.histogram("engine_submit_latency_ms")->count());
  EXPECT_EQ(2u, metrics.counter("engine_submit_failures_total")->value());
  EXPECT_EQ(1u, metrics.counter("engine_refused_budget_total")->value());
  EXPECT_NEAR(kOk * 0.01,
              metrics.double_counter("engine_epsilon_charged_total")->value(),
              1e-12);
}

// ---- ε-audit reconciliation ----------------------------------------

// Replays a ledger's audit events (`spent += ε` in log order) and
// compares the running balance bit-for-bit with what each event
// recorded and with the accountant's final answer. The log was
// appended under the charge's shard locks, so per-ledger log order is
// the ledger's spend order — float accumulation order matches exactly.
TEST(EngineTelemetry, AuditReplayReconcilesBitLevelUnderFlood) {
  constexpr size_t kThreads = 4;
  constexpr int kPerThread = 64;
  constexpr double kPolicyCap = 500.0;
  constexpr double kSessionGrant = 100.0;

  EngineOptions options;
  options.seed = 11;
  QueryEngine engine(options);
  ASSERT_TRUE(
      engine.RegisterPolicy("line", LinePolicy(16), Ramp(16), kPolicyCap)
          .ok());
  std::vector<std::string> sessions;
  for (size_t t = 0; t < kThreads; ++t) {
    sessions.push_back("s" + std::to_string(t));
    ASSERT_TRUE(engine.OpenSession(sessions.back(), kSessionGrant).ok());
  }

  // Mixed ε values that do not accumulate associatively in floating
  // point, so an order mismatch in the replay would show.
  const double eps_mix[] = {0.01, 0.003, 0.0007, 0.02};
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        engine.Submit(MakeRequest(sessions[t], "line", eps_mix[(t + i) % 4]))
            .status()
            .Check();
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  const std::vector<AuditEvent> events = engine.telemetry().audit().Snapshot();
  ASSERT_EQ(kThreads * kPerThread, events.size());

  // Replay every ledger: running spent per id, checked against each
  // event's recorded post-charge balance with exact equality.
  std::map<std::string, double> spent;
  std::map<std::string, double> last_remaining;
  uint64_t previous_seq = 0;
  for (const AuditEvent& event : events) {
    EXPECT_EQ(previous_seq + 1, event.seq);  // dense, in order
    previous_seq = event.seq;
    ASSERT_TRUE(event.charged);
    ASSERT_EQ(2u, event.num_ledgers);
    for (size_t i = 0; i < event.num_ledgers; ++i) {
      const AuditEvent::LedgerLine& line = event.ledgers[i];
      spent[line.id] += event.epsilon;
      const double total =
          line.id.rfind("session/", 0) == 0 ? kSessionGrant : kPolicyCap;
      const double replayed_remaining = total - spent[line.id];
      // Bit-level: the replay reproduces PrivacyBudget's arithmetic
      // (total - (((0 + ε1) + ε2) + ...)) in the same order.
      EXPECT_EQ(replayed_remaining, line.remaining)
          << "ledger " << line.id << " diverged at seq " << event.seq;
      last_remaining[line.id] = line.remaining;
    }
  }

  // The final replayed balances match the accountant's live answers
  // exactly.
  for (const std::string& session : sessions) {
    EXPECT_EQ(last_remaining["session/" + session],
              engine.SessionRemaining(session).ValueOrDie());
  }
  const auto policy_line = last_remaining.lower_bound("policy/line");
  ASSERT_NE(last_remaining.end(), policy_line);
  EXPECT_EQ(policy_line->second,
            engine.PolicyRemaining("line").ValueOrDie());
}

TEST(EngineTelemetry, RefusalsAreAuditedWithUntouchedBalances) {
  QueryEngine engine;
  ASSERT_TRUE(
      engine.RegisterPolicy("line", LinePolicy(16), Ramp(16), 100.0).ok());
  ASSERT_TRUE(engine.OpenSession("s", 0.5).ok());
  ASSERT_TRUE(engine.Submit(MakeRequest("s", "line", 0.25)).ok());
  EXPECT_FALSE(engine.Submit(MakeRequest("s", "line", 1.0)).ok());

  const std::vector<AuditEvent> events = engine.telemetry().audit().Snapshot();
  ASSERT_EQ(2u, events.size());
  EXPECT_TRUE(events[0].charged);
  const AuditEvent& refusal = events[1];
  EXPECT_FALSE(refusal.charged);
  EXPECT_EQ(StatusCode::kOutOfRange, refusal.refusal);
  EXPECT_DOUBLE_EQ(1.0, refusal.epsilon);
  // The refused charge left balances untouched: the session line shows
  // the post-first-charge level.
  bool saw_session = false;
  for (size_t i = 0; i < refusal.num_ledgers; ++i) {
    if (refusal.ledgers[i].id == "session/s") {
      saw_session = true;
      EXPECT_EQ(0.5 - 0.25, refusal.ledgers[i].remaining);
    }
  }
  EXPECT_TRUE(saw_session);

  const std::string jsonl = engine.telemetry().audit().ExportJsonl();
  EXPECT_NE(std::string::npos, jsonl.find("\"outcome\":\"refused\""));
  EXPECT_NE(std::string::npos, jsonl.find("\"refusal\":\"budget_exhausted\""));
}

// ---- rings ---------------------------------------------------------

template <typename T>
class BoundedRingTest : public ::testing::Test {};
using RingRecordTypes = ::testing::Types<AuditEvent, BurnAlert, TraceRecord>;
TYPED_TEST_SUITE(BoundedRingTest, RingRecordTypes);

TYPED_TEST(BoundedRingTest, RingWrapKeepsNewestAndCountsDrops) {
  BoundedRing<TypeParam> ring(4);
  for (int i = 0; i < 10; ++i) ring.Push(TypeParam{});
  EXPECT_EQ(10u, ring.total());
  EXPECT_EQ(6u, ring.dropped());
  const std::vector<TypeParam> kept = ring.Snapshot();
  ASSERT_EQ(4u, kept.size());
  for (size_t i = 0; i < kept.size(); ++i) EXPECT_EQ(7u + i, kept[i].seq);
  const std::string jsonl = ring.ExportJsonl();
  EXPECT_EQ(4, std::count(jsonl.begin(), jsonl.end(), '\n'));
}

TYPED_TEST(BoundedRingTest, ZeroCapacityDisablesCapture) {
  BoundedRing<TypeParam> ring(0);
  EXPECT_FALSE(ring.enabled());
  ring.Push(TypeParam{});
  EXPECT_EQ(0u, ring.total());
  EXPECT_EQ(0u, ring.dropped());
  EXPECT_TRUE(ring.Snapshot().empty());
  EXPECT_TRUE(ring.ExportJsonl().empty());
}

// Callers stamp wall_micros from a clock that may step backwards (NTP
// slew, VM migration, a scripted test clock); the ring's timestamps
// never decrease, also across wrap-around.
TYPED_TEST(BoundedRingTest, BackwardsWallClockNeverDecreases) {
  BoundedRing<TypeParam> ring(4);
  const int64_t clock[] = {100, 250, 90, 300, 0, 310};
  for (const int64_t t : clock) {
    TypeParam item{};
    item.wall_micros = t;
    ring.Push(item);
  }
  const std::vector<TypeParam> kept = ring.Snapshot();
  ASSERT_EQ(4u, kept.size());
  const int64_t expected[] = {250, 300, 300, 310};
  for (size_t i = 0; i < kept.size(); ++i) {
    EXPECT_EQ(expected[i], kept[i].wall_micros) << "record " << kept[i].seq;
  }
}

// Exact JSONL lines for every ring record type: the wire formats that
// ReplayJsonl, ledger tooling and dashboards parse. Doubles print with
// %.17g; the trace line carries no seq.
TEST(TelemetryJsonl, LineFormatsArePinned) {
  AuditEvent charged;
  charged.seq = 7;
  charged.wall_micros = 1700000000123456;
  charged.charged = true;
  charged.epsilon = 0.1;
  charged.parallel_count = 4;
  charged.workload = "hist \"q\"";
  charged.context = std::make_shared<const std::string>("line/dawa");
  charged.ledgers[0] = {"session/acme:1", 1.0 / 3.0};
  charged.ledgers[1] = {"policy/line\x1f" "2", 9.7};
  charged.num_ledgers = 2;
  std::string line;
  AppendJsonl(charged, &line);
  EXPECT_EQ(line,
            "{\"seq\":7,\"t_us\":1700000000123456,\"outcome\":\"charged\","
            "\"eps\":0.10000000000000001,\"composition\":\"parallel\","
            "\"parallel_count\":4,\"workload\":\"hist \\\"q\\\"\","
            "\"context\":\"line/dawa\",\"ledgers\":[{\"id\":\"session/acme:1\","
            "\"remaining\":0.33333333333333331},{\"id\":"
            "\"policy/line\\u001f2\",\"remaining\":9.6999999999999993}]}\n");

  AuditEvent refused;
  refused.seq = 8;
  refused.wall_micros = 1700000000123457;
  refused.charged = false;
  refused.refusal = StatusCode::kUnavailableDurability;
  refused.epsilon = 0.25;
  refused.workload = "w";
  refused.ledgers[0] = {"session/acme:1", 0.5};
  refused.num_ledgers = 1;
  line.clear();
  AppendJsonl(refused, &line);
  EXPECT_EQ(line,
            "{\"seq\":8,\"t_us\":1700000000123457,\"outcome\":\"refused\","
            "\"refusal\":\"durability_unavailable\",\"eps\":0.25,"
            "\"composition\":\"sequential\",\"workload\":\"w\","
            "\"ledgers\":[{\"id\":\"session/acme:1\",\"remaining\":0.5}]}\n");

  BurnAlert alert;
  alert.seq = 3;
  alert.wall_micros = 2000000;
  alert.fired = true;
  alert.ledger_id = "session/burn";
  alert.remaining = 3.0;
  alert.fast_rate = 0.7;
  alert.slow_rate = 0.07;
  alert.projected_s = 3.0 / 0.7;
  line.clear();
  AppendJsonl(alert, &line);
  EXPECT_EQ(line,
            "{\"seq\":3,\"t_us\":2000000,\"kind\":\"fired\","
            "\"ledger\":\"session/burn\",\"remaining\":3,"
            "\"fast_rate\":0.69999999999999996,"
            "\"slow_rate\":0.070000000000000007,"
            "\"projected_s\":4.2857142857142856}\n");

  TraceRecord trace;
  trace.seq = 9;
  trace.trace_id = 1;
  trace.wall_micros = 1700000000200000;
  trace.ok = true;
  for (double& ms : trace.stage_ms) ms = -1.0;  // stage not reached
  trace.stage_ms[static_cast<size_t>(TraceStage::kValidate)] = 0.001;
  trace.stage_ms[static_cast<size_t>(TraceStage::kCharge)] = 0.5;
  trace.stage_ms[static_cast<size_t>(TraceStage::kRelease)] = 1.25;
  line.clear();
  AppendJsonl(trace, &line);
  EXPECT_EQ(line,
            "{\"trace_id\":1,\"t_us\":1700000000200000,\"ok\":true,"
            "\"stages\":{\"validate\":0.001,\"charge\":0.5,"
            "\"release\":1.25}}\n");
}

// ---- tracing -------------------------------------------------------

TEST(EngineTelemetry, RateZeroTracingAllocatesNothingOnTheHotPath) {
  EngineTelemetry telemetry(/*trace_sample_rate=*/0.0, /*audit_capacity=*/64);
  Counter* counter = telemetry.metrics().counter("hot_total");
  LatencyHistogram* hist = telemetry.metrics().histogram("hot_ms");

  // Warm-up (first-touch laziness anywhere would show in the measured
  // loop otherwise).
  {
    RequestTrace trace = telemetry.MaybeStartTrace();
    TraceStageTimer timer(&trace, TraceStage::kValidate);
    counter->Add(1);
    hist->Record(0.5);
    telemetry.FinishTrace(&trace, true);
  }

  const uint64_t before = g_allocations.load(std::memory_order_relaxed);
  for (int i = 0; i < 1000; ++i) {
    RequestTrace trace = telemetry.MaybeStartTrace();
    EXPECT_FALSE(trace.active());
    TraceStageTimer validate(&trace, TraceStage::kValidate);
    TraceStageTimer charge(&trace, TraceStage::kCharge);
    counter->Add(1);
    hist->Record(0.25);
    telemetry.FinishTrace(&trace, true);
  }
  const uint64_t after = g_allocations.load(std::memory_order_relaxed);
  EXPECT_EQ(before, after);
  EXPECT_TRUE(telemetry.SnapshotTraces().empty());
}

TEST(EngineTelemetry, RateOneTracesEverySubmitThroughAllStages) {
  EngineOptions options;
  options.seed = 3;
  options.trace_sample_rate = 1.0;
  QueryEngine engine(options);
  ASSERT_TRUE(
      engine.RegisterPolicy("line", LinePolicy(16), Ramp(16), 100.0).ok());
  ASSERT_TRUE(engine.OpenSession("s", 10.0).ok());

  constexpr int kSubmits = 5;
  for (int i = 0; i < kSubmits; ++i) {
    ASSERT_TRUE(engine.Submit(MakeRequest("s", "line", 0.01)).ok());
  }

  EngineTelemetry& telemetry = engine.telemetry();
  const std::vector<TraceRecord> traces = telemetry.SnapshotTraces();
  ASSERT_EQ(static_cast<size_t>(kSubmits), traces.size());
  for (const TraceRecord& trace : traces) {
    EXPECT_TRUE(trace.ok);
    for (TraceStage stage :
         {TraceStage::kValidate, TraceStage::kResolve, TraceStage::kPlan,
          TraceStage::kCharge, TraceStage::kRelease}) {
      EXPECT_GE(trace.stage_ms[static_cast<size_t>(stage)], 0.0)
          << TraceStageName(stage);
    }
  }
  EXPECT_EQ(static_cast<uint64_t>(kSubmits),
            telemetry.stage_histogram(TraceStage::kValidate)->count());
  EXPECT_EQ(static_cast<uint64_t>(kSubmits),
            telemetry.stage_histogram(TraceStage::kRelease)->count());
  const std::string jsonl = telemetry.TracesJsonl();
  EXPECT_NE(std::string::npos, jsonl.find("\"validate\""));
  EXPECT_NE(std::string::npos, jsonl.find("\"ok\":true"));
}

// ---- concurrent callers (also exercised under TSan in CI) ---------

TEST(EngineTelemetry, ConcurrentCallersFeedRegistryAndTraces) {
  // Callers bring their own threads: three threads submit while one
  // stream is admitted, all sampled. Every request lands one complete
  // trace in the ring and one count in the registry.
  constexpr size_t kThreads = 3;
  constexpr size_t kSubmitsPerThread = 16;
  EngineOptions options;
  options.seed = 5;
  options.trace_sample_rate = 1.0;
  QueryEngine engine(options);
  ASSERT_TRUE(
      engine.RegisterPolicy("line", LinePolicy(16), Ramp(16), 100.0).ok());
  ASSERT_TRUE(engine.OpenSession("s", 10.0).ok());

  std::atomic<size_t> failures{0};
  std::vector<std::thread> callers;
  for (size_t t = 0; t < kThreads; ++t) {
    callers.emplace_back([&] {
      for (size_t i = 0; i < kSubmitsPerThread; ++i) {
        if (!engine.Submit(MakeRequest("s", "line", 0.01)).ok()) {
          failures.fetch_add(1);
        }
      }
    });
  }
  std::shared_ptr<ResultStream> stream =
      engine.SubmitStream(MakeRequest("s", "line", 0.01)).ValueOrDie();
  StreamChunk chunk;
  while (stream->Next(&chunk).ValueOrDie() != StreamNext::kDone) {
  }
  for (std::thread& caller : callers) caller.join();
  EXPECT_EQ(failures.load(), 0u);

  MetricsRegistry& metrics = engine.telemetry().metrics();
  EXPECT_EQ(metrics.counter("engine_streams_total")->value(), 1u);
  EXPECT_EQ(metrics.counter("engine_submits_total")->value(),
            kThreads * kSubmitsPerThread);

  // 48 submits + 1 stream, each a complete five-stage trace.
  const std::vector<TraceRecord> traces = engine.telemetry().SnapshotTraces();
  ASSERT_EQ(kThreads * kSubmitsPerThread + 1, traces.size());
  for (const TraceRecord& trace : traces) {
    EXPECT_TRUE(trace.ok);
    for (size_t stage = 0; stage < kTraceStageCount; ++stage) {
      EXPECT_GE(trace.stage_ms[stage], 0.0)
          << TraceStageName(static_cast<TraceStage>(stage));
    }
  }
}

}  // namespace
}  // namespace blowfish
