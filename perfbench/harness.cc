// Serving benchmark harness: drives QueryEngine through its public API
// (RegisterPolicy, OpenSession, Submit, SubmitBatch, SubmitStream) on
// one named closed-loop workload and checks every answer it gets.
//
//   perfbench_harness --workload NAME --seed N --seconds S --trace 0|1
//                     --work-dir DIR --out FILE [--commit ID]
//
// Load shape: one process, kClientThreads closed-loop clients (each
// waits for its reply before sending the next call), the obs plane at
// EngineOptions defaults with the scrape server on and scraped at 1 Hz,
// policy caps and session budgets far above anything a run can spend
// (a refusal is a defect, not load). The workload seed generates the
// data ramps, the range rectangles and the request order; the engine
// seed is fixed and separate.
//
// --trace 0 measures the end-to-end metrics (throughput, per-call
// latency, time to first answer, set-up time, peak RSS). --trace 1
// runs the workload on an untraced and a traced engine in alternating
// rounds (trace_sample_rate = 1, client spans joined to the engine's
// TraceRecords by trace id), then times each layer's public functions
// in isolation on the same inputs (layers.cc). Both modes run every
// output check; a failed check sets "correct": false in the last
// stdout line, and the run's full report goes to --out as JSON.
// --setup-only 1 runs one set-up and prints its seconds: --trace 0
// times its set-up repetitions this way, each in a fresh process.

#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <numeric>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "checks.h"
#include "core/mechanisms_kd.h"
#include "core/planner.h"
#include "engine/obs_server.h"
#include "engine/query_engine.h"
#include "layers.h"
#include "workload/builders.h"

using namespace blowfish;
using namespace perfbench;

namespace {

// Set-up is repeated and its median reported: at least kMinSetupReps
// times, then more until kSetupBudgetS of wall time has passed (or
// kMaxSetupReps). Each repetition runs in a fresh process, as a real
// cold start does: repetitions inside one long-lived process alternate
// between a warm and a cold allocator arena and read ~1.5x apart.
constexpr size_t kMinSetupReps = 8;
constexpr size_t kMaxSetupReps = 64;
constexpr double kSetupBudgetS = 2.0;
constexpr size_t kStreamChunk = 32;
constexpr size_t kBatchSize = 16;
/// Range sets per range target. First-chunk time depends on the first
/// ranges of a set, so many sets keep its median from following the
/// few rectangles one seed happens to draw.
constexpr size_t kRangePool = 64;

// --------------------------------------------------------- workload spec

enum class CallKind { kSubmit, kBatch, kStream };

/// One registered policy and the requests the workload sends it.
struct Target {
  std::string name;  ///< policy name, one of kWorkloadPolicies
  Policy policy;
  Vector data;
  bool ranges = false;
  Workload identity;                     ///< when !ranges
  std::vector<RangeWorkload> range_pool;  ///< when ranges
  size_t answers() const {
    return ranges ? range_pool[0].num_queries() : identity.num_queries();
  }
};

struct Call {
  CallKind kind = CallKind::kSubmit;
  size_t target = 0;  ///< first entry's target for a batch
  bool handle = true;  ///< first entry's path for a batch
  size_t pool = 0;     ///< range workload index
};

struct Spec {
  std::string name;
  std::vector<Target> targets;
  std::vector<std::vector<Call>> schedules;  ///< one per client
  bool has_streams = false;
  /// Calls per client before timing starts: a fixed amount of work, so
  /// the memory it leaves behind does not depend on throughput.
  size_t warmup_calls = 1000;
};

/// A target on the named workload policy with a seeded data ramp,
/// queried with the identity workload or (`ranges`) random ranges.
Target MakeTarget(const std::string& name, bool ranges, Rng* rng) {
  Target t;
  t.name = name;
  t.policy = WorkloadPolicy(name);
  t.ranges = ranges;
  t.data = SeededRamp(t.policy.domain_size(), rng);
  if (ranges) {
    for (size_t i = 0; i < kRangePool; ++i) {
      t.range_pool.push_back(RandomRanges(t.policy.domain, kRanges, rng));
    }
  } else {
    t.identity = IdentityWorkload(t.policy.domain_size());
  }
  return t;
}

/// Rounds of the targets in seeded order: every target once per round.
std::vector<size_t> RoundRobin(size_t targets, size_t length, Rng* rng) {
  std::vector<size_t> order;
  std::vector<size_t> round(targets);
  std::iota(round.begin(), round.end(), 0);
  while (order.size() < length) {
    std::shuffle(round.begin(), round.end(), *rng);
    order.insert(order.end(), round.begin(), round.end());
  }
  order.resize(length);
  return order;
}

bool BuildSpec(const std::string& name, uint64_t seed, Spec* spec) {
  Rng rng(seed * 0x9E3779B97F4A7C15ull + 17);
  spec->name = name;
  // Warm 1024-cell identity releases round-robin over the five planner
  // families: the mechanism and W x-hat answering dominate.
  if (name == "hist_warm") {
    for (const char* target : {"line", "theta", "grid", "slab", "dp"}) {
      spec->targets.push_back(MakeTarget(target, false, &rng));
    }
    for (size_t c = 0; c < kClientThreads; ++c) {
      std::vector<Call> calls;
      for (size_t t : RoundRobin(spec->targets.size(), 1000, &rng)) {
        calls.push_back({CallKind::kSubmit, t, true, 0});
      }
      spec->schedules.push_back(std::move(calls));
    }
    return true;
  }
  // 64-cell domains (releases 3-20 us), one call in four a 16-entry
  // batch: admission and its contention dominate.
  if (name == "admit_small") {
    for (const char* target : {"line64", "dp64", "grid8"}) {
      spec->targets.push_back(MakeTarget(target, false, &rng));
    }
    for (size_t c = 0; c < kClientThreads; ++c) {
      std::vector<Call> calls;
      const std::vector<size_t> order =
          RoundRobin(spec->targets.size(), 1024, &rng);
      // Requests alternate handle-carrying and string-id. A batch's 16
      // entries alternate among themselves, which leaves the parity of
      // the next request unchanged.
      bool handle = true;
      for (size_t i = 0; i < order.size(); ++i) {
        const bool batch = i % 4 == 3;
        calls.push_back({batch ? CallKind::kBatch : CallKind::kSubmit,
                         order[i], handle, 0});
        if (!batch) handle = !handle;
      }
      spec->schedules.push_back(std::move(calls));
    }
    return true;
  }
  // 200 ranges on the 64x64 theta=4 grid (per-query slab
  // reconstruction), Submit alternating with SubmitStream; one call in
  // four is instead 200 ranges on line 4096 (summed-area answering).
  if (name == "range_stream") {
    spec->has_streams = true;
    spec->warmup_calls = 32;
    spec->targets.push_back(MakeTarget("tgrid64", true, &rng));
    spec->targets.push_back(MakeTarget("line4096", true, &rng));
    for (size_t c = 0; c < kClientThreads; ++c) {
      std::vector<Call> calls;
      for (size_t i = 0; i < 256; ++i) {
        // Calls 4k..4k+2 are the grid's 3k..3k+2: streams alternate over
        // the grid calls, and over the summed-area calls among themselves.
        const bool sat = i % 4 == 3;
        const size_t grid_call = 3 * (i / 4) + i % 4;
        const bool stream = sat ? (i / 4) % 2 == 1 : grid_call % 2 == 1;
        calls.push_back(
            {stream ? CallKind::kStream : CallKind::kSubmit, sat ? 1u : 0u,
             true, static_cast<size_t>(rng.UniformInt(0, kRangePool - 1))});
      }
      spec->schedules.push_back(std::move(calls));
    }
    return true;
  }
  return false;
}

// ------------------------------------------------------------- the engine

/// Session c < kClientThreads belongs to client c; session kClientThreads
/// is the noise audit's.
std::string SessionName(size_t c) {
  return c < kClientThreads ? "client:" + std::to_string(c) : "audit:0";
}

/// Σ ε the engine acknowledged, per ledger, as the clients saw it.
struct Admitted {
  std::vector<double> session;  ///< per client, then the audit session
  std::vector<double> policy;   ///< per target
  Admitted() = default;
  explicit Admitted(size_t targets)
      : session(kClientThreads + 1, 0.0), policy(targets, 0.0) {}
  void Add(const Admitted& other) {
    for (size_t i = 0; i < session.size(); ++i) session[i] += other.session[i];
    for (size_t i = 0; i < policy.size(); ++i) policy[i] += other.policy[i];
  }
};

struct Served {
  std::unique_ptr<QueryEngine> engine;
  std::vector<PolicyHandle> policies;
  std::vector<LedgerHandle> sessions;
  double setup_seconds = 0.0;
};

QueryRequest MakeRequest(const Spec& spec, const Served& served,
                         size_t client, size_t target, bool handle,
                         size_t pool, const std::string& session) {
  const Target& t = spec.targets[target];
  QueryRequest request;
  request.session = session;
  request.policy = t.name;
  if (handle) {
    request.session_handle =
        client < served.sessions.size() ? served.sessions[client]
                                         : LedgerHandle();
    request.policy_handle = served.policies[target];
  }
  if (t.ranges) {
    request.ranges = t.range_pool[pool];
  } else {
    request.workload = t.identity;
  }
  request.epsilon = kEpsilon;
  return request;
}

/// Construction through one cold submit per policy (plan, certify,
/// precompute) — everything before the first timed request. The spend
/// journal is off; the scrape server is on.
std::string SetUp(const Spec& spec, bool traced, Admitted* admitted,
                  Served* served) {
  EngineOptions options;
  options.seed = kEngineSeed;
  options.trace_sample_rate = traced ? 1.0 : 0.0;
  options.obs_port = 0;
  const double start = NowMs();
  Result<std::unique_ptr<QueryEngine>> opened = QueryEngine::Open(options);
  if (!opened.ok()) return "engine open: " + opened.status().ToString();
  served->engine = std::move(opened).ValueOrDie();
  QueryEngine& engine = *served->engine;
  if (engine.obs_server() == nullptr) {
    return "scrape server: " + engine.obs_error().ToString();
  }
  for (const Target& t : spec.targets) {
    Status s = engine.RegisterPolicy(t.name, t.policy, t.data, kCap);
    if (!s.ok()) return "register " + t.name + ": " + s.ToString();
    served->policies.push_back(engine.ResolvePolicy(t.name).ValueOrDie());
  }
  for (size_t c = 0; c <= kClientThreads; ++c) {
    const std::string id = SessionName(c);
    Status s = engine.OpenSession(id, kCap);
    if (!s.ok()) return "open session " + id + ": " + s.ToString();
    if (c < kClientThreads) {
      served->sessions.push_back(engine.ResolveSession(id).ValueOrDie());
    }
  }
  for (size_t t = 0; t < spec.targets.size(); ++t) {
    const QueryRequest request =
        MakeRequest(spec, *served, 0, t, false, 0, SessionName(0));
    Result<QueryResult> r = engine.Submit(request);
    if (!r.ok()) return "cold submit " + spec.targets[t].name + ": " +
                        r.status().ToString();
    std::string err = perfbench::CheckAnswerCount(
        "cold " + spec.targets[t].name, spec.targets[t].answers(),
        r.ValueOrDie().answers.size());
    if (!err.empty()) return err;
    admitted->session[0] += kEpsilon;
    admitted->policy[t] += kEpsilon;
  }
  served->setup_seconds = (NowMs() - start) / 1e3;
  return "";
}

// ------------------------------------------------------------- the client

/// One client call, stamped by the client; its engine stages are the
/// TraceRecord with the same trace id (0 = untraced call).
struct Span {
  uint64_t trace_id = 0;
  double start_ms = 0.0;
  double duration_ms = 0.0;
  uint8_t kind = 0;
  uint8_t client = 0;
};

/// The timed phase is cut into windows of this length; throughput and
/// medians are taken per window and the median window reported, so a
/// burst of load from outside the benchmark moves one window, not the
/// run.
constexpr double kWindowMs = 500.0;
constexpr size_t kP99Calls = 1000;

struct ClientStats {
  /// Per window (by call start): per-call latency, stream first-chunk
  /// times, and requests answered.
  std::vector<std::vector<double>> latency_ms;
  std::vector<std::vector<double>> ttfc_ms;
  std::vector<uint64_t> window_answered;
  size_t window = 0;  ///< window of the call in progress
  std::vector<Span> spans;
  uint64_t attempted = 0;  ///< requests (a batch entry is one)
  uint64_t answered = 0;
  uint64_t plan_lookups = 0;
  uint64_t plan_hits = 0;
  size_t stream_peak_bytes = 0;
  Admitted admitted;
  std::vector<std::string> errors;
  void Fail(std::string error) {
    if (errors.size() < 8) errors.push_back(std::move(error));
  }
};

/// Prebuilt requests of one client: [target][pool][handle].
struct ClientRequests {
  std::vector<std::vector<std::array<QueryRequest, 2>>> single;
  std::vector<std::vector<QueryRequest>> batches;  ///< [target*2+handle]
};

ClientRequests BuildClientRequests(const Spec& spec, const Served& served,
                                   size_t client) {
  ClientRequests out;
  const std::string session = SessionName(client);
  out.single.resize(spec.targets.size());
  for (size_t t = 0; t < spec.targets.size(); ++t) {
    const size_t pools = spec.targets[t].ranges ? kRangePool : 1;
    for (size_t p = 0; p < pools; ++p) {
      out.single[t].push_back(
          {MakeRequest(spec, served, client, t, false, p, session),
           MakeRequest(spec, served, client, t, true, p, session)});
    }
  }
  for (size_t t = 0; t < spec.targets.size(); ++t) {
    for (int h = 0; h < 2; ++h) {
      std::vector<QueryRequest> batch;
      bool handle = h == 1;
      for (size_t j = 0; j < kBatchSize; ++j) {
        const size_t target = (t + j) % spec.targets.size();
        batch.push_back(
            MakeRequest(spec, served, client, target, handle, 0, session));
        handle = !handle;
      }
      out.batches.push_back(std::move(batch));
    }
  }
  return out;
}

void Answered(const Spec& spec, size_t client, size_t target,
              const Result<QueryResult>& r, ClientStats* st) {
  ++st->attempted;
  ++st->plan_lookups;
  const std::string& name = spec.targets[target].name;
  if (!r.ok()) {
    st->Fail(name + ": " + r.status().ToString());
    return;
  }
  std::string err = perfbench::CheckAnswerCount(
      name, spec.targets[target].answers(), r.ValueOrDie().answers.size());
  if (!err.empty()) {
    st->Fail(err);
    return;
  }
  ++st->answered;
  if (r.ValueOrDie().plan_cache_hit) ++st->plan_hits;
  st->admitted.session[client] += kEpsilon;
  st->admitted.policy[target] += kEpsilon;
}

void DoCall(const Spec& spec, QueryEngine& engine, const ClientRequests& reqs,
            const Call& call, size_t client, bool traced, bool record,
            ClientStats* st) {
  const QueryRequest& request =
      reqs.single[call.target][call.pool][call.handle ? 1 : 0];
  Span span;
  span.kind = static_cast<uint8_t>(call.kind);
  span.client = static_cast<uint8_t>(client);
  switch (call.kind) {
    case CallKind::kSubmit: {
      span.start_ms = NowMs();
      Result<QueryResult> r = Status::Internal("unset");
      if (traced) {
        RequestTrace trace = engine.telemetry().MaybeStartTrace();
        span.trace_id = trace.trace_id();
        r = engine.Submit(request, &trace);
        engine.telemetry().FinishTrace(&trace, r.ok());
      } else {
        r = engine.Submit(request);
      }
      span.duration_ms = NowMs() - span.start_ms;
      Answered(spec, client, call.target, r, st);
      break;
    }
    case CallKind::kBatch: {
      const std::vector<QueryRequest>& batch =
          reqs.batches[call.target * 2 + (call.handle ? 1 : 0)];
      span.start_ms = NowMs();
      std::vector<Result<QueryResult>> results = engine.SubmitBatch(batch);
      span.duration_ms = NowMs() - span.start_ms;
      if (results.size() != batch.size()) {
        st->Fail(perfbench::CheckAnswerCount("batch results", batch.size(),
                                             results.size()));
        st->attempted += batch.size();
        break;
      }
      for (size_t j = 0; j < batch.size(); ++j) {
        Answered(spec, client, (call.target + j) % spec.targets.size(),
                 results[j], st);
      }
      break;
    }
    case CallKind::kStream: {
      QueryRequest copy = request;
      StreamOptions options;
      options.chunk_queries = kStreamChunk;
      span.start_ms = NowMs();
      Result<std::shared_ptr<ResultStream>> stream =
          engine.SubmitStream(std::move(copy), options);
      perfbench::StreamDrain drain;
      if (stream.ok()) {
        drain = perfbench::DrainStream(stream.ValueOrDie().get(),
                                       span.start_ms);
      }
      span.duration_ms = NowMs() - span.start_ms;
      ++st->attempted;
      ++st->plan_lookups;
      const std::string& name = spec.targets[call.target].name;
      if (!stream.ok()) {
        st->Fail(name + " stream: " + stream.status().ToString());
        break;
      }
      const ResultStream& s = *stream.ValueOrDie();
      std::string err = perfbench::CheckStream(
          name + " stream", spec.targets[call.target].answers(), drain);
      if (err.empty()) {
        Result<StreamHeader> header = s.header();
        if (!header.ok() ||
            header.ValueOrDie().total_answers != drain.answers.size()) {
          err = name + " stream header disagrees with its chunks";
        } else if (header.ValueOrDie().plan_cache_hit) {
          ++st->plan_hits;
        }
      }
      if (!err.empty()) {
        st->Fail(err);
        break;
      }
      ++st->answered;
      st->stream_peak_bytes =
          std::max(st->stream_peak_bytes, s.peak_resident_bytes());
      st->admitted.session[client] += kEpsilon;
      st->admitted.policy[call.target] += kEpsilon;
      if (record) st->ttfc_ms[st->window].push_back(drain.first_chunk_ms);
      break;
    }
  }
  if (record) {
    st->latency_ms[st->window].push_back(span.duration_ms);
    if (traced) st->spans.push_back(span);
  }
}

/// The engine's TraceRecords, harvested from its bounded ring while the
/// traced phases run (the ring holds the last 256; records that wrap
/// out between two harvests are lost and show as unjoined spans). One
/// harvester follows one engine across phases, so each record is taken
/// once.
class TraceHarvester {
 public:
  explicit TraceHarvester(const EngineTelemetry* telemetry)
      : telemetry_(telemetry) {}

  void Harvest() {
    std::vector<TraceRecord> ring = telemetry_->SnapshotTraces();
    size_t begin = 0;
    if (have_last_) {
      for (size_t i = ring.size(); i-- > 0;) {
        if (ring[i].trace_id == last_id_) {
          begin = i + 1;
          break;
        }
      }
    }
    for (size_t i = begin; i < ring.size(); ++i) records_.push_back(ring[i]);
    if (!ring.empty()) {
      last_id_ = ring.back().trace_id;
      have_last_ = true;
    }
  }

  /// The records harvested since the last Take, in harvest order.
  std::vector<TraceRecord> Take() {
    std::vector<TraceRecord> out;
    out.swap(records_);
    return out;
  }

 private:
  const EngineTelemetry* telemetry_;
  std::vector<TraceRecord> records_;
  uint64_t last_id_ = 0;
  bool have_last_ = false;
};

struct PhaseResult {
  std::vector<ClientStats> clients;
  std::vector<double> scrape_ms;
  std::vector<TraceRecord> traces;
  std::vector<std::string> errors;
  uint64_t attempted() const {
    uint64_t n = 0;
    for (const ClientStats& c : clients) n += c.attempted;
    return n;
  }
  uint64_t answered() const {
    uint64_t n = 0;
    for (const ClientStats& c : clients) n += c.answered;
    return n;
  }
  /// Median over windows of the requests answered per second.
  double qps() const {
    std::vector<double> per_window;
    for (size_t w = 0; w < clients[0].window_answered.size(); ++w) {
      uint64_t n = 0;
      for (const ClientStats& c : clients) n += c.window_answered[w];
      per_window.push_back(static_cast<double>(n) * 1e3 / kWindowMs);
    }
    return Summarize(per_window).p50;
  }
  /// `stat` of each group of consecutive windows holding at least
  /// `min_samples` samples (pooled across clients; a short tail joins
  /// the last group), and the median over groups. Every sample is also
  /// appended to `pooled`.
  double WindowMedian(std::vector<std::vector<double>> ClientStats::*series,
                      double Summary::*stat, size_t min_samples,
                      std::vector<double>* pooled) const {
    std::vector<std::vector<double>> groups(1);
    for (size_t w = 0; w < clients[0].window_answered.size(); ++w) {
      if (groups.back().size() >= min_samples) groups.emplace_back();
      for (const ClientStats& c : clients) {
        const std::vector<double>& v = (c.*series)[w];
        groups.back().insert(groups.back().end(), v.begin(), v.end());
        pooled->insert(pooled->end(), v.begin(), v.end());
      }
    }
    if (groups.size() > 1 && groups.back().size() < min_samples) {
      std::vector<double>& last = groups[groups.size() - 2];
      last.insert(last.end(), groups.back().begin(), groups.back().end());
      groups.pop_back();
    }
    std::vector<double> per_group;
    for (const std::vector<double>& g : groups) {
      if (!g.empty()) per_group.push_back(Summarize(g).*stat);
    }
    return Summarize(per_group).p50;
  }
};

/// Appends `from` (a later phase on the same engine) to `into`: windows,
/// spans, trace records, scrapes and counts.
void Absorb(PhaseResult* into, PhaseResult from) {
  if (into->clients.empty()) {
    *into = std::move(from);
    return;
  }
  for (size_t c = 0; c < into->clients.size(); ++c) {
    ClientStats& a = into->clients[c];
    ClientStats& b = from.clients[c];
    auto append = [](auto* to, auto& more) {
      to->insert(to->end(), std::make_move_iterator(more.begin()),
                 std::make_move_iterator(more.end()));
    };
    append(&a.latency_ms, b.latency_ms);
    append(&a.ttfc_ms, b.ttfc_ms);
    append(&a.window_answered, b.window_answered);
    append(&a.spans, b.spans);
    a.attempted += b.attempted;
    a.answered += b.answered;
    a.plan_lookups += b.plan_lookups;
    a.plan_hits += b.plan_hits;
    a.stream_peak_bytes = std::max(a.stream_peak_bytes, b.stream_peak_bytes);
  }
  into->scrape_ms.insert(into->scrape_ms.end(), from.scrape_ms.begin(),
                         from.scrape_ms.end());
  into->traces.insert(into->traces.end(), from.traces.begin(),
                      from.traces.end());
}

/// Runs the closed loop: kClientThreads clients cycling their schedules
/// for `seconds` (or, when `calls` > 0, for exactly that many calls
/// each) and a 1 Hz /metrics scraper. With a `harvester` the calls are
/// traced and the engine's trace records harvested as they land.
PhaseResult RunPhase(const Spec& spec, Served* served, double seconds,
                     size_t calls, TraceHarvester* harvester, bool record,
                     Admitted* admitted) {
  QueryEngine& engine = *served->engine;
  const bool traced = harvester != nullptr;
  PhaseResult phase;
  phase.clients.resize(kClientThreads);
  std::vector<ClientRequests> reqs;
  for (size_t c = 0; c < kClientThreads; ++c) {
    phase.clients[c].admitted = Admitted(spec.targets.size());
    const size_t windows = std::max<size_t>(
        1, static_cast<size_t>(std::ceil(seconds * 1e3 / kWindowMs)));
    phase.clients[c].latency_ms.resize(windows);
    phase.clients[c].ttfc_ms.resize(windows);
    phase.clients[c].window_answered.assign(windows, 0);
    reqs.push_back(BuildClientRequests(spec, *served, c));
  }
  std::atomic<bool> start{false};
  std::atomic<bool> stop{false};
  double t0 = 0.0;  // written before `start` is released
  std::vector<std::thread> threads;
  for (size_t c = 0; c < kClientThreads; ++c) {
    threads.emplace_back([&, c] {
      while (!start.load(std::memory_order_acquire)) std::this_thread::yield();
      const std::vector<Call>& schedule = spec.schedules[c];
      size_t i = 0;
      ClientStats& st = phase.clients[c];
      const size_t last_window = st.window_answered.size() - 1;
      while (calls > 0 ? i < calls : !stop.load(std::memory_order_relaxed)) {
        st.window = std::min(
            last_window, static_cast<size_t>((NowMs() - t0) / kWindowMs));
        const uint64_t before = st.answered;
        DoCall(spec, engine, reqs[c], schedule[i % schedule.size()], c,
               traced, record, &st);
        st.window_answered[st.window] += st.answered - before;
        ++i;
      }
    });
  }
  const int port = engine.obs_server()->port();
  std::mutex scrape_mu;
  std::thread scraper([&] {
    while (!start.load(std::memory_order_acquire)) std::this_thread::yield();
    double next = NowMs();
    while (!stop.load(std::memory_order_relaxed)) {
      if (NowMs() >= next) {
        const double t0 = NowMs();
        Result<HttpResponse> r = ObsHttpGet(port, "/metrics");
        const double ms = NowMs() - t0;
        std::lock_guard<std::mutex> lock(scrape_mu);
        if (!r.ok() || r.ValueOrDie().status != 200) {
          phase.errors.push_back("scrape /metrics failed");
        } else {
          phase.scrape_ms.push_back(ms);
        }
        next += 1000.0;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  });
  std::thread harvest_thread;
  if (traced) {
    harvest_thread = std::thread([&] {
      while (!start.load(std::memory_order_acquire)) std::this_thread::yield();
      while (!stop.load(std::memory_order_relaxed)) {
        harvester->Harvest();
        std::this_thread::sleep_for(std::chrono::microseconds(500));
      }
    });
  }
  t0 = NowMs();
  start.store(true, std::memory_order_release);
  if (calls == 0) {
    std::this_thread::sleep_for(
        std::chrono::microseconds(static_cast<int64_t>(seconds * 1e6)));
    stop.store(true);
  }
  for (std::thread& t : threads) t.join();
  stop.store(true);
  scraper.join();
  if (traced) {
    harvest_thread.join();
    harvester->Harvest();
    phase.traces = harvester->Take();
  }
  for (ClientStats& c : phase.clients) {
    admitted->Add(c.admitted);
    for (std::string& e : c.errors) phase.errors.push_back(std::move(e));
  }
  return phase;
}

// ------------------------------------------------------------ the checks

/// Spent ε read back from every session and policy ledger against what
/// the clients saw admitted.
void CheckLedgers(const Spec& spec, const QueryEngine& engine,
                  const Admitted& admitted, const std::string& where,
                  std::vector<std::string>* errors) {
  for (size_t c = 0; c <= kClientThreads; ++c) {
    const std::string id = SessionName(c);
    Result<double> remaining = engine.SessionRemaining(id);
    if (!remaining.ok()) {
      errors->push_back(where + " session " + id + ": " +
                        remaining.status().ToString());
      continue;
    }
    std::string err = perfbench::CheckLedger(
        where + " session " + id, admitted.session[c],
        kCap - remaining.ValueOrDie());
    if (!err.empty()) errors->push_back(err);
  }
  for (size_t t = 0; t < spec.targets.size(); ++t) {
    Result<double> remaining = engine.PolicyRemaining(spec.targets[t].name);
    if (!remaining.ok()) {
      errors->push_back(where + " policy " + spec.targets[t].name + ": " +
                        remaining.status().ToString());
      continue;
    }
    std::string err = perfbench::CheckLedger(
        where + " policy " + spec.targets[t].name, admitted.policy[t],
        kCap - remaining.ValueOrDie());
    if (!err.empty()) errors->push_back(err);
  }
}

/// Trials per target in the noise-scale audit, on each side (a multiple
/// of kBatchSize). Errors after an isotonic fit are heavy-tailed and
/// correlated across queries, so histogram targets get ~256k squared
/// errors (4096 trials at 64 cells keeps the ratio's spread near 3%);
/// the ~10 ms slab range releases get 48 trials (their MSE estimate
/// stays within ~5% of its mean), other ranges 256.
size_t AuditTrials(const Target& t) {
  if (t.ranges) return t.policy.domain.num_dims() > 1 ? 48 : 256;
  return std::clamp<size_t>(262144 / t.answers(), 64, 4096);
}

/// Range targets are audited on one fixed set of ranges, drawn from
/// this seed whatever the workload seed, so their expected MSE can be
/// pinned.
constexpr uint64_t kAuditRangeSeed = 0xA0D17;

/// Expected per-query MSE at kEpsilon of the targets whose error does
/// not depend on the data (no isotonic fit), measured with 400-5000
/// direct trials (tgrid64: 36 audits of 48 trials on the kAuditRangeSeed
/// ranges over three data vectors, each within 5% of this mean); dp is
/// 2/ε² exactly. Pinning them catches a
/// change that rescales the noise inside the mechanism itself, which
/// the engine-vs-direct ratio cannot see (both sides share that code).
/// Every workload audits at least one pinned target.
double PinnedMse(const std::string& target) {
  static const std::map<std::string, double> pinned = {
      {"theta", 3.61e5}, {"grid", 6.28e5},  {"slab", 4.46e7},
      {"dp", 2.0e4},     {"dp64", 2.0e4},   {"grid8", 3.85e5},
      {"tgrid64", 4.15e8},
  };
  auto it = pinned.find(target);
  return it == pinned.end() ? 0.0 : it->second;
}

/// Noise-scale audit, outside any timed region: per-query MSE of engine
/// answers against the true W x, over the MSE of the same plan's
/// mechanism run directly on the same data at the same ε; where the
/// expected MSE is data-independent, the direct MSE against its pin.
void NoiseAudit(const Spec& spec, Served* served, uint64_t seed,
                Admitted* admitted, std::vector<std::string>* errors,
                std::vector<std::string>* lines) {
  QueryEngine& engine = *served->engine;
  Rng rng(seed ^ 0xA0D17ull);
  for (size_t t = 0; t < spec.targets.size(); ++t) {
    const Target& target = spec.targets[t];
    Rng range_rng(kAuditRangeSeed);
    std::optional<RangeWorkload> audit_ranges;
    if (target.ranges) {
      audit_ranges = RandomRanges(target.policy.domain, kRanges, &range_rng);
    }
    const RangeWorkload* ranges = audit_ranges ? &*audit_ranges : nullptr;
    const Vector truth =
        ranges ? ranges->Answer(target.data) : target.identity.Answer(target.data);
    QueryRequest request = MakeRequest(spec, *served, kClientThreads, t, false,
                                       0, SessionName(kClientThreads));
    if (ranges != nullptr) request.ranges = *ranges;
    std::vector<Vector> via_engine, direct;
    // Batches of identical requests: one ledger charge per batch, one
    // independent release per entry.
    const std::vector<QueryRequest> batch(kBatchSize, request);
    while (via_engine.size() < AuditTrials(target)) {
      for (Result<QueryResult>& r : engine.SubmitBatch(batch)) {
        if (!r.ok()) {
          errors->push_back("audit submit " + target.name + ": " +
                            r.status().ToString());
          return;
        }
        admitted->session[kClientThreads] += kEpsilon;
        admitted->policy[t] += kEpsilon;
        via_engine.push_back(std::move(r).ValueOrDie().answers);
      }
    }
    PlanRequest plan_request;
    plan_request.policy = target.policy;
    Result<Plan> planned = PlanMechanism(plan_request);
    if (!planned.ok()) {
      errors->push_back("audit plan " + target.name + ": " +
                        planned.status().ToString());
      return;
    }
    const Plan& plan = planned.ValueOrDie();
    if (ranges != nullptr && plan.range_mechanism != nullptr) {
      const Vector xg = plan.range_mechanism->PrecomputeTransformed(target.data);
      const double n =
          std::accumulate(target.data.begin(), target.data.end(), 0.0);
      for (size_t i = 0; i < AuditTrials(target); ++i) {
        direct.push_back(plan.range_mechanism->AnswerRangesOnTransformed(
            *ranges, xg, n, kEpsilon, &rng));
      }
    } else {
      for (size_t i = 0; i < AuditTrials(target); ++i) {
        const Vector xhat = plan.mechanism->Run(target.data, kEpsilon, &rng);
        direct.push_back(ranges ? ranges->Answer(xhat)
                                : target.identity.Answer(xhat));
      }
    }
    const double mse_engine = perfbench::MeanSquaredError(via_engine, truth);
    const double mse_direct = perfbench::MeanSquaredError(direct, truth);
    char buf[240];
    std::snprintf(buf, sizeof(buf),
                  "noise audit %-9s plan=%-18s mse engine %.6g direct %.6g "
                  "ratio %.4f, pinned %.6g",
                  target.name.c_str(), plan.kind.c_str(), mse_engine,
                  mse_direct, mse_engine / mse_direct, PinnedMse(target.name));
    lines->push_back(buf);
    std::string err =
        perfbench::CheckNoiseScale(target.name, mse_engine, mse_direct);
    if (!err.empty()) errors->push_back(err);
    if (PinnedMse(target.name) > 0.0) {
      err = perfbench::CheckNoiseScale(target.name + " (pinned)", mse_direct,
                                       PinnedMse(target.name));
      if (!err.empty()) errors->push_back(err);
    }
  }
}

// ---------------------------------------------------------- reporting

/// Peak resident set size of this process image so far (VmHWM, KiB).
/// Not getrusage: its ru_maxrss survives execve, so it would report the
/// launching process's peak when that was larger.
double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

std::string CpuModel() {
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir = ".";
  std::string out;
  std::string commit = "unknown";
  bool setup_only = false;  ///< one set-up, print its seconds, exit
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      args->workload = value;
    } else if (key == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      args->seconds = std::strtod(value.c_str(), nullptr);
    } else if (key == "--trace") {
      args->trace = value == "1";
    } else if (key == "--work-dir") {
      args->work_dir = value;
    } else if (key == "--out") {
      args->out = value;
    } else if (key == "--commit") {
      args->commit = value;
    } else if (key == "--setup-only") {
      args->setup_only = value == "1";
    } else {
      return false;
    }
  }
  return !args->workload.empty() && args->seconds > 0.0 && argc % 2 == 1;
}

/// Runs one set-up in a fresh copy of this program (--setup-only 1) and
/// returns its seconds; on failure sets `error`.
double SetUpInChild(const Args& args, std::string* error) {
  int fds[2];
  if (pipe(fds) != 0) {
    *error = "pipe failed";
    return 0.0;
  }
  const std::string seed = std::to_string(args.seed);
  const char* argv[] = {"perfbench_harness", "--workload",
                        args.workload.c_str(), "--seed", seed.c_str(),
                        "--setup-only", "1", nullptr};
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_adddup2(&actions, fds[1], STDOUT_FILENO);
  posix_spawn_file_actions_addclose(&actions, fds[0]);
  posix_spawn_file_actions_addclose(&actions, fds[1]);
  pid_t pid = 0;
  const int spawned =
      posix_spawn(&pid, "/proc/self/exe", &actions, nullptr,
                  const_cast<char* const*>(argv), environ);
  posix_spawn_file_actions_destroy(&actions);
  close(fds[1]);
  if (spawned != 0) {
    close(fds[0]);
    *error = std::string("spawn: ") + std::strerror(spawned);
    return 0.0;
  }
  std::string out;
  char buf[256];
  for (;;) {
    const ssize_t n = read(fds[0], buf, sizeof(buf));
    if (n > 0) {
      out.append(buf, static_cast<size_t>(n));
    } else if (n == 0 || errno != EINTR) {
      break;
    }
  }
  close(fds[0]);
  int status = 0;
  while (waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0 || out.empty()) {
    *error = "set-up process failed";
    return 0.0;
  }
  return std::strtod(out.c_str(), nullptr);
}

/// Stage and span tables of the traced phase: every harvested record
/// feeds the stage percentiles; a client span's self time is its
/// duration minus the stages of the record joined to it by trace id.
void TracedLayers(const PhaseResult& traced, std::vector<LayerMetric>* out,
                  std::vector<std::string>* span_lines) {
  const TraceStage stages[] = {TraceStage::kValidate, TraceStage::kResolve,
                               TraceStage::kPlan, TraceStage::kCharge,
                               TraceStage::kRelease};
  for (TraceStage stage : stages) {
    std::vector<double> us;
    for (const TraceRecord& r : traced.traces) {
      const double ms = r.stage_ms[static_cast<size_t>(stage)];
      if (ms >= 0.0) us.push_back(ms * 1e3);
    }
    const Summary s = Summarize(us);
    const std::string base = std::string("stage.") + TraceStageName(stage) +
                             "_us";
    out->push_back({base + ".p50", "us", s, s.p50});
    out->push_back({base + ".p99", "us", s, s.p99});
  }
  std::vector<double> self_us;
  size_t traced_calls = 0;
  size_t joined = 0;
  for (const ClientStats& c : traced.clients) {
    for (const Span& span : c.spans) {
      if (span.trace_id == 0) continue;
      ++traced_calls;
      auto it = std::lower_bound(
          traced.traces.begin(), traced.traces.end(), span.trace_id,
          [](const TraceRecord& r, uint64_t id) { return r.trace_id < id; });
      if (it == traced.traces.end() || it->trace_id != span.trace_id) continue;
      ++joined;
      double children = 0.0;
      std::string stages_json;
      for (TraceStage stage : stages) {
        const double ms = it->stage_ms[static_cast<size_t>(stage)];
        if (ms < 0.0) continue;
        children += ms;
        if (span_lines->size() < 20000) {
          stages_json += std::string(stages_json.empty() ? "" : ",") + "\"" +
                         TraceStageName(stage) + "\":" + JsonNumber(ms * 1e3);
        }
      }
      const double self = std::max(0.0, span.duration_ms - children) * 1e3;
      self_us.push_back(self);
      if (span_lines->size() < 20000) {
        span_lines->push_back(
            "{\"trace_id\":" + std::to_string(span.trace_id) +
            ",\"client\":" + std::to_string(span.client) +
            ",\"kind\":" + std::to_string(span.kind) +
            ",\"start_ms\":" + JsonNumber(span.start_ms) +
            ",\"duration_us\":" + JsonNumber(span.duration_ms * 1e3) +
            ",\"self_us\":" + JsonNumber(self) + ",\"children_us\":{" +
            stages_json + "}}");
      }
    }
  }
  const Summary s = Summarize(self_us);
  out->push_back({"span.self_us.p50", "us", s, s.p50});
  out->push_back(Reading("trace.join_ratio", "ratio",
                       traced_calls == 0 ? 0.0
                                         : static_cast<double>(joined) /
                                               static_cast<double>(traced_calls),
                       traced_calls));
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench_harness --workload NAME --seed N "
                 "--seconds S --trace 0|1 [--work-dir DIR] [--out FILE] "
                 "[--commit ID]\n");
    return 2;
  }
  Spec spec;
  if (!BuildSpec(args.workload, args.seed, &spec)) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  if (args.setup_only) {
    Served served;
    Admitted admitted(spec.targets.size());
    const std::string err = SetUp(spec, false, &admitted, &served);
    if (!err.empty()) {
      std::fprintf(stderr, "setup: %s\n", err.c_str());
      return 1;
    }
    std::printf("%.17g\n", served.setup_seconds);
    return 0;
  }
  std::filesystem::create_directories(args.work_dir);
  // Every workload runs with the spend journal off; the journaled engine
  // of the traced run (layers.cc) uses the engine's own flush policy.
  const std::string flush_policy =
      "workloads: journal off; traced durable layer: fsync per charge "
      "(engine default)";

  std::vector<std::string> errors;
  std::vector<std::string> notes;
  std::map<std::string, std::pair<double, std::string>> metrics;
  std::vector<LayerMetric> layers;
  std::vector<std::string> span_lines;
  uint64_t attempted = 0;
  uint64_t answered = 0;

  auto set_up = [&](bool traced, Admitted* admitted, Served* served) {
    std::string err = SetUp(spec, traced, admitted, served);
    if (!err.empty()) errors.push_back("setup: " + err);
    return err.empty();
  };
  auto warm_up = [&](Served* served, Admitted* admitted) {
    PhaseResult warm = RunPhase(spec, served, 0.0, spec.warmup_calls, nullptr,
                                false, admitted);
    for (const std::string& e : warm.errors) errors.push_back(e);
  };
  auto timed = [&](Served* served, Admitted* admitted,
                   TraceHarvester* harvester, double seconds,
                   PhaseResult* into) {
    PhaseResult phase =
        RunPhase(spec, served, seconds, 0, harvester, true, admitted);
    for (const std::string& e : phase.errors) errors.push_back(e);
    attempted += phase.attempted();
    answered += phase.answered();
    Absorb(into, std::move(phase));
  };
  // After the timed phases: the noise audit and the ledger checks on the
  // live engine.
  auto check = [&](Served* served, Admitted* admitted) {
    NoiseAudit(spec, served, args.seed, admitted, &errors, &notes);
    CheckLedgers(spec, *served->engine, *admitted, "live", &errors);
  };

  if (!args.trace) {
    Served served;
    Admitted admitted(spec.targets.size());
    if (set_up(false, &admitted, &served)) {
      warm_up(&served, &admitted);
      const double warm_rss_mb = PeakRssMb();
      PhaseResult phase;
      timed(&served, &admitted, nullptr, args.seconds, &phase);
      check(&served, &admitted);
      served.engine.reset();
      std::vector<double> setup_s;
      const double setup_start = NowMs();
      for (size_t rep = 1;
           errors.empty() && rep <= kMaxSetupReps &&
           (rep <= kMinSetupReps || NowMs() - setup_start < kSetupBudgetS * 1e3);
           ++rep) {
        std::string err;
        const double seconds = SetUpInChild(args, &err);
        if (!err.empty()) {
          errors.push_back("setup: " + err);
        } else {
          setup_s.push_back(seconds);
        }
      }
      // Medians per window; p99 per group of windows holding at least
      // kP99Calls calls, so ten or more lie beyond it.
      std::vector<double> latency, ttfc, unused;
      const double latency_p50 = phase.WindowMedian(
          &ClientStats::latency_ms, &Summary::p50, 1, &latency);
      const double latency_p99 = phase.WindowMedian(
          &ClientStats::latency_ms, &Summary::p99, kP99Calls, &unused);
      // Without streaming calls the first answer arrives with the reply.
      const double ttfc_p50 =
          spec.has_streams
              ? phase.WindowMedian(&ClientStats::ttfc_ms, &Summary::p50, 1,
                                   &ttfc)
              : latency_p50;
      if (!spec.has_streams) ttfc = latency;
      const Summary lat = Summarize(latency);
      const Summary first = Summarize(ttfc);
      metrics["throughput_qps"] = {phase.qps(), "1/s"};
      metrics["latency_p50_ms"] = {latency_p50, "ms"};
      metrics["latency_p99_ms"] = {latency_p99, "ms"};
      metrics["ttfc_p50_ms"] = {ttfc_p50, "ms"};
      const Summary setup = Summarize(setup_s);
      metrics["setup_s"] = {setup.p50, "s"};
      metrics["peak_rss_mb"] = {warm_rss_mb, "MB"};
      std::string windows = "answered per window:";
      for (size_t w = 0; w < phase.clients[0].window_answered.size(); ++w) {
        uint64_t n = 0;
        for (const ClientStats& c : phase.clients) n += c.window_answered[w];
        windows += " " + std::to_string(n);
      }
      notes.push_back(windows);
      char buf[200];
      std::snprintf(buf, sizeof(buf),
                    "calls %zu (pooled p99 %.6g ms), first-answer samples "
                    "%zu, failed_frac %.6g",
                    lat.count, lat.p99, first.count,
                    attempted == 0 ? 0.0
                                   : static_cast<double>(attempted - answered) /
                                         static_cast<double>(attempted));
      notes.push_back(buf);
      std::snprintf(buf, sizeof(buf),
                    "set-up repeated %zu times: q1 %.6g s, median %.6g s, "
                    "q3 %.6g s",
                    setup.count, setup.p25, setup.p50, setup.p75);
      notes.push_back(buf);
    }
  } else {
    // Untraced and traced engines side by side, timed in alternating
    // one-window rounds (ABAB...), so the overhead ratio compares like with
    // like on a host whose speed drifts.
    Served plain, served;
    Admitted plain_admitted(spec.targets.size());
    Admitted admitted(spec.targets.size());
    if (set_up(false, &plain_admitted, &plain) &&
        set_up(true, &admitted, &served)) {
      warm_up(&plain, &plain_admitted);
      warm_up(&served, &admitted);
      // Drop the records of set-up and warm-up: the stage tables hold the
      // timed rounds only.
      TraceHarvester harvester(&served.engine->telemetry());
      harvester.Harvest();
      harvester.Take();
      PhaseResult untraced, phase;
      const size_t rounds = std::max<size_t>(
          2, static_cast<size_t>(std::lround(args.seconds * 1e3 /
                                             (2 * kWindowMs))));
      for (size_t r = 0; r < rounds && errors.empty(); ++r) {
        timed(&plain, &plain_admitted, nullptr, kWindowMs / 1e3, &untraced);
        timed(&served, &admitted, &harvester, kWindowMs / 1e3, &phase);
      }
      std::sort(phase.traces.begin(), phase.traces.end(),
                [](const TraceRecord& a, const TraceRecord& b) {
                  return a.trace_id < b.trace_id;
                });
      const double untraced_qps = untraced.qps();
      CheckLedgers(spec, *plain.engine, plain_admitted, "live", &errors);
      plain.engine.reset();
      check(&served, &admitted);
      QueryEngine& engine = *served.engine;
      TracedLayers(phase, &layers, &span_lines);
      uint64_t lookups = 0, hits = 0;
      size_t stream_peak = 0;
      for (const ClientStats& c : phase.clients) {
        lookups += c.plan_lookups;
        hits += c.plan_hits;
        stream_peak = std::max(stream_peak, c.stream_peak_bytes);
      }
      layers.push_back(Reading("plan_cache.hit_ratio", "ratio",
                             lookups == 0 ? 0.0
                                          : static_cast<double>(hits) /
                                                static_cast<double>(lookups),
                             lookups));
      layers.push_back(Reading("transform_cache.bytes", "bytes",
                             static_cast<double>(
                                 engine.transform_cache_stats().bytes),
                             engine.transform_cache_stats().entries));
      layers.push_back(Reading("stream.peak_resident_bytes", "bytes",
                             static_cast<double>(stream_peak), 1));
      layers.push_back(Reading("trace.overhead_ratio", "ratio",
                             untraced_qps > 0.0 ? phase.qps() / untraced_qps
                                                : 0.0,
                             rounds));
      std::vector<double> scrape = phase.scrape_ms;
      const int port = engine.obs_server()->port();
      for (int i = 0; i < 20; ++i) {
        const double t0 = NowMs();
        Result<HttpResponse> r = ObsHttpGet(port, "/metrics");
        scrape.push_back(NowMs() - t0);
        if (!r.ok() || r.ValueOrDie().status != 200) {
          errors.push_back("scrape /metrics failed");
          break;
        }
      }
      layers.push_back(Sampled("obs.scrape_ms", "ms", scrape));
      served.engine.reset();
      for (LayerMetric& m : IsolatedLayers(args.seed, args.work_dir, &errors)) {
        layers.push_back(std::move(m));
      }
    }
  }

  const bool correct = errors.empty() && attempted > 0 && attempted == answered;
  if (errors.empty() && attempted != answered) {
    errors.push_back("some requests failed without a reported error");
  }

  // Human-readable report.
  std::printf("workload %s  seed %llu  seconds %g  trace %d\n",
              spec.name.c_str(), static_cast<unsigned long long>(args.seed),
              args.seconds, args.trace ? 1 : 0);
  const std::string cpu = CpuModel();
  std::printf("host: nproc %u, cpu %s, compiler %s, build %s, commit %s\n",
              std::thread::hardware_concurrency(), cpu.c_str(),
              PERFBENCH_COMPILER, PERFBENCH_BUILD_TYPE, args.commit.c_str());
  std::printf("load: %zu closed-loop clients, journal flush: %s\n",
              kClientThreads, flush_policy.c_str());
  for (const std::string& n : notes) std::printf("%s\n", n.c_str());
  for (const auto& [name, value] : metrics) {
    std::printf("  %-22s %14.6g %s\n", name.c_str(), value.first,
                value.second.c_str());
  }
  if (!layers.empty()) {
    std::printf("\n  %-34s %-6s %8s %12s %12s %12s\n", "layer", "unit",
                "count", "median", "q1", "q3");
    for (const LayerMetric& m : layers) {
      std::printf("  %-34s %-6s %8zu %12.6g %12.6g %12.6g\n", m.name.c_str(),
                  m.unit.c_str(), m.summary.count, m.value, m.summary.p25,
                  m.summary.p75);
    }
  }
  for (const std::string& e : errors) {
    std::fprintf(stderr, "CHECK FAILED: %s\n", e.c_str());
  }

  std::string result = "{\"correct\": ";
  result += correct ? "true" : "false";
  result += ", \"attempted\": " + std::to_string(attempted);
  result += ", \"failed\": " + std::to_string(attempted - answered);
  result += ", \"metrics\": {";
  bool first = true;
  auto emit = [&](const std::string& name, double value,
                  const std::string& unit) {
    result += first ? "" : ", ";
    first = false;
    result += JsonString(name) + ": {\"value\": " + JsonNumber(value) +
              ", \"unit\": " + JsonString(unit) + "}";
  };
  for (const auto& [name, value] : metrics) emit(name, value.first, value.second);
  for (const LayerMetric& m : layers) emit(m.name, m.value, m.unit);
  result += "}}";

  if (!args.out.empty()) {
    std::ofstream out(args.out);
    out << "{\"result\": " << result << ",\n \"meta\": {"
        << "\"workload\": " << JsonString(spec.name)
        << ", \"seed\": " << args.seed << ", \"seconds\": "
        << JsonNumber(args.seconds) << ", \"trace\": " << (args.trace ? 1 : 0)
        << ", \"nproc\": " << std::thread::hardware_concurrency()
        << ", \"cpu_model\": " << JsonString(cpu)
        << ", \"compiler\": " << JsonString(PERFBENCH_COMPILER)
        << ", \"build_type\": " << JsonString(PERFBENCH_BUILD_TYPE)
        << ", \"commit\": " << JsonString(args.commit)
        << ", \"client_threads\": " << kClientThreads
        << ", \"journal_flush_policy\": " << JsonString(flush_policy)
        << "},\n \"layers\": [";
    for (size_t i = 0; i < layers.size(); ++i) {
      const LayerMetric& m = layers[i];
      out << (i ? ",\n  " : "\n  ") << "{\"name\": " << JsonString(m.name)
          << ", \"unit\": " << JsonString(m.unit)
          << ", \"count\": " << m.summary.count
          << ", \"value\": " << JsonNumber(m.value)
          << ", \"median\": " << JsonNumber(m.summary.p50)
          << ", \"q1\": " << JsonNumber(m.summary.p25)
          << ", \"q3\": " << JsonNumber(m.summary.p75)
          << ", \"p99\": " << JsonNumber(m.summary.p99) << "}";
    }
    out << "],\n \"notes\": [";
    for (size_t i = 0; i < notes.size(); ++i) {
      out << (i ? ", " : "") << JsonString(notes[i]);
    }
    out << "],\n \"errors\": [";
    for (size_t i = 0; i < errors.size(); ++i) {
      out << (i ? ", " : "") << JsonString(errors[i]);
    }
    out << "]}\n";
    if (!span_lines.empty()) {
      std::ofstream spans(args.out + ".spans.jsonl");
      for (const std::string& line : span_lines) spans << line << "\n";
    }
  }
  std::printf("%s\n", result.c_str());
  return 0;
}
