// engine_stats_dump — exercise the engine's telemetry layer and dump
// every surface it exports: the unified metrics registry (JSON or
// Prometheus text exposition), the ε-audit event log (JSONL), and the
// sampled per-request stage traces (JSONL).
//
// Usage:
//   engine_stats_dump [--format json|prom] [--out <prefix>]
//                     [--requests <n>] [--sample-rate <r>]
//                     [--journal <dir>]
//
// Without --out everything prints to stdout, section-separated. With
// --out the tool writes <prefix>.metrics.json (or .prom),
// <prefix>.audit.jsonl and <prefix>.traces.jsonl — the files a crash
// handler or a scrape endpoint would serve.
//
// --journal <dir> switches to the durability smoke test instead: run
// journaled demo traffic (spends, a refusal, a mid-run checkpoint so
// replay covers checkpoint + tail), shut the engine down, re-open the
// same journal directory with a fresh engine, and require every
// re-opened ledger to resume at bit-exactly the pre-shutdown balance.
// Exits nonzero on any mismatch — CI runs this before ledger_fsck.
//
// --snapshot <dir> runs the warm-restart smoke: fork a child that
// warms an engine and loops WriteSnapshot, SIGKILL it mid-loop, then
// re-open the directory with a fresh engine and require (a) a valid
// generation restored, (b) the first submit to hit the plan cache
// with zero misses, and (c) the answer to be bit-identical to a cold
// engine with the same seed. The directory is left behind for
// snapshot_fsck — CI runs the fsck over it next.
//
// --serve <port> starts the engine's in-process scrape server
// (127.0.0.1, port 0 = ephemeral; the bound port prints to stdout)
// and keeps generating light demo traffic until SIGINT/SIGTERM — a
// live target for `curl /metrics`, `/varz`, `/healthz`, `/flightz`,
// `/auditz`, `/burnz` and for the CI exposition lint.
//
// --flight <out.jsonl> additionally dumps the always-on flight
// recorder after the demo traffic.

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cinttypes>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "engine/query_engine.h"
#include "engine/snapshot_store.h"
#include "workload/builders.h"

namespace {

using namespace blowfish;

[[noreturn]] void Usage(const char* msg) {
  std::fprintf(stderr, "error: %s\n\n", msg);
  std::fprintf(stderr,
               "usage: engine_stats_dump [--format json|prom] "
               "[--out PREFIX] [--requests N] [--sample-rate R] "
               "[--journal DIR] [--snapshot DIR] [--serve PORT] "
               "[--flight OUT.jsonl]\n");
  std::exit(2);
}

struct Args {
  std::string format = "json";
  std::string out;
  std::string journal;
  std::string snapshot;
  std::string flight;
  int serve = -1;  ///< obs port; -1 = no scrape server
  int requests = 64;
  double sample_rate = 1.0;
};

Args Parse(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const auto value = [&]() -> const char* {
      if (i + 1 >= argc) Usage(("missing value for " + flag).c_str());
      return argv[++i];
    };
    if (flag == "--format") {
      args.format = value();
      if (args.format != "json" && args.format != "prom") {
        Usage("--format must be json or prom");
      }
    } else if (flag == "--out") {
      args.out = value();
    } else if (flag == "--journal") {
      args.journal = value();
    } else if (flag == "--snapshot") {
      args.snapshot = value();
    } else if (flag == "--serve") {
      args.serve = std::atoi(value());
      if (args.serve < 0 || args.serve > 65535) {
        Usage("--serve needs a port in [0, 65535] (0 = ephemeral)");
      }
    } else if (flag == "--flight") {
      args.flight = value();
    } else if (flag == "--requests") {
      args.requests = std::atoi(value());
      if (args.requests < 1) Usage("--requests must be >= 1");
    } else if (flag == "--sample-rate") {
      args.sample_rate = std::atof(value());
    } else {
      Usage(("unknown flag " + flag).c_str());
    }
  }
  return args;
}

Vector Ramp(size_t n, size_t mod) {
  Vector x(n, 0.0);
  for (size_t i = 0; i < n; ++i) x[i] = static_cast<double>(i % mod);
  return x;
}

void WriteFile(const std::string& path, const std::string& body) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "error: cannot write %s\n", path.c_str());
    std::exit(1);
  }
  std::fwrite(body.data(), 1, body.size(), f);
  std::fclose(f);
  std::fprintf(stderr, "wrote %s (%zu bytes)\n", path.c_str(), body.size());
}

bool BitExact(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

volatile std::sig_atomic_t g_stop = 0;
void HandleStopSignal(int) { g_stop = 1; }

/// Durability smoke: journaled traffic -> shutdown -> recovery must
/// resume every ledger at the exact pre-shutdown balance.
int RunJournalSmoke(const Args& args) {
  EngineOptions options;
  options.seed = 2015;
  options.journal_path = args.journal;
  // Tiny segments so the demo traffic actually rotates; checkpointing
  // is driven explicitly below to pin the replayed shape
  // (checkpoint + tail), so the automatic path stays off.
  options.journal_segment_bytes = 1u << 12;
  options.journal_auto_checkpoint = false;

  double session_remaining = 0.0;
  double policy_remaining = 0.0;
  {
    Result<std::unique_ptr<QueryEngine>> opened = QueryEngine::Open(options);
    if (!opened.ok()) {
      std::fprintf(stderr, "journal smoke: open failed: %s\n",
                   opened.status().ToString().c_str());
      return 1;
    }
    QueryEngine& engine = **opened;
    engine.RegisterPolicy("salaries", LinePolicy(16), Ramp(16, 13), 4.0)
        .Check();
    engine.OpenSession("alice", 3.0).Check();
    engine.OpenSession("bob", 0.4).Check();

    QueryRequest request;
    request.session = "alice";
    request.policy = "salaries";
    request.workload = IdentityWorkload(16);
    request.epsilon = 0.01;
    const int half = args.requests / 2 + 1;
    for (int i = 0; i < half; ++i) engine.Submit(request).status().Check();

    // Compact mid-run: recovery below must replay checkpoint + tail.
    engine.CheckpointJournal().Check();
    for (int i = 0; i < half; ++i) engine.Submit(request).status().Check();

    // A refusal is journaled too (best-effort) and must not add spend.
    QueryRequest greedy = request;
    greedy.session = "bob";
    greedy.epsilon = 1.0;
    if (engine.Submit(greedy).ok()) {
      std::fprintf(stderr, "journal smoke: refusal demo admitted\n");
      return 1;
    }

    session_remaining = engine.SessionRemaining("alice").ValueOrDie();
    policy_remaining = engine.PolicyRemaining("salaries").ValueOrDie();
  }  // engine destroyed: the journal is all that remains

  Result<std::unique_ptr<QueryEngine>> reopened = QueryEngine::Open(options);
  if (!reopened.ok()) {
    std::fprintf(stderr, "journal smoke: recovery failed: %s\n",
                 reopened.status().ToString().c_str());
    return 1;
  }
  QueryEngine& engine = **reopened;
  // Re-opening the same ledger ids consumes the replayed balances.
  engine.RegisterPolicy("salaries", LinePolicy(16), Ramp(16, 13), 4.0).Check();
  engine.OpenSession("alice", 3.0).Check();
  engine.OpenSession("bob", 0.4).Check();

  const double session_recovered = engine.SessionRemaining("alice").ValueOrDie();
  const double policy_recovered = engine.PolicyRemaining("salaries").ValueOrDie();
  if (!BitExact(session_recovered, session_remaining) ||
      !BitExact(policy_recovered, policy_remaining)) {
    std::fprintf(stderr,
                 "journal smoke: recovered balances diverge: "
                 "session %.17g != %.17g or policy %.17g != %.17g\n",
                 session_recovered, session_remaining, policy_recovered,
                 policy_remaining);
    return 1;
  }
  const LedgerJournal::Stats stats = engine.journal()->stats();
  std::printf("journal smoke: PASS dir=%s recovered_records=%" PRIu64
              " session_remaining=%.17g policy_remaining=%.17g\n",
              args.journal.c_str(), stats.recovered_records,
              session_recovered, policy_recovered);
  return 0;
}

/// Warm-restart smoke: a forked writer warms an engine and loops
/// WriteSnapshot until SIGKILLed; the parent then re-opens the store
/// and requires a warm, bit-identical engine. Leaves the directory
/// behind for snapshot_fsck.
int RunSnapshotSmoke(const Args& args) {
  EngineOptions options;
  options.seed = 2015;
  options.snapshot_path = args.snapshot;

  const auto register_all = [](QueryEngine& engine) {
    engine.RegisterPolicy("salaries", LinePolicy(16), Ramp(16, 13), 4.0)
        .Check();
    engine
        .RegisterPolicy("mobility", GridPolicy(DomainShape({16, 16}), 4),
                        Ramp(256, 17), 4.0)
        .Check();
    engine.OpenSession("alice", 1e6).Check();
  };
  QueryRequest request;
  request.session = "alice";
  request.policy = "salaries";
  request.workload = IdentityWorkload(16);
  request.epsilon = 0.01;

  int ack_pipe[2];
  if (pipe(ack_pipe) != 0) {
    std::fprintf(stderr, "snapshot smoke: pipe failed\n");
    return 1;
  }
  const pid_t child = fork();
  if (child < 0) {
    std::fprintf(stderr, "snapshot smoke: fork failed\n");
    return 1;
  }
  if (child == 0) {
    // Writer: warm both policies, then publish snapshot generations
    // until killed, acking one byte per completed WriteSnapshot.
    close(ack_pipe[0]);
    QueryEngine engine(options);
    register_all(engine);
    engine.Submit(request).status().Check();
    QueryRequest grid = request;
    grid.policy = "mobility";
    grid.workload = IdentityWorkload(256);
    engine.Submit(grid).status().Check();
    for (;;) {
      engine.WriteSnapshot().Check();
      const char ack = 's';
      if (write(ack_pipe[1], &ack, 1) != 1) _exit(0);
    }
  }
  close(ack_pipe[1]);
  int acks = 0;
  char byte = 0;
  while (acks < 6 && read(ack_pipe[0], &byte, 1) == 1) ++acks;
  kill(child, SIGKILL);
  int wstatus = 0;
  waitpid(child, &wstatus, 0);
  while (read(ack_pipe[0], &byte, 1) == 1) ++acks;  // drain late acks
  close(ack_pipe[0]);
  if (acks < 6) {
    std::fprintf(stderr, "snapshot smoke: writer died early (%d acks)\n",
                 acks);
    return 1;
  }

  // Reopen: rename-is-publish means the kill must not have cost us a
  // valid generation, and the restored engine must be warm.
  QueryEngine restored(options);
  const QueryEngine::SnapshotRestoreStats& stats =
      restored.snapshot_restore_stats();
  if (!stats.loaded || stats.policies_restored != 2) {
    std::fprintf(stderr,
                 "snapshot smoke: restore incomplete (loaded=%d policies=%zu)\n",
                 stats.loaded ? 1 : 0, stats.policies_restored);
    return 1;
  }
  for (const std::string& skipped : stats.skipped_files) {
    std::fprintf(stderr, "snapshot smoke: skipped %s\n", skipped.c_str());
  }
  restored.OpenSession("alice", 1e6).Check();
  const QueryResult warm = restored.Submit(request).ValueOrDie();
  const QueryEngine::PlanCacheStats cache = restored.plan_cache_stats();
  if (!warm.plan_cache_hit || cache.misses != 0) {
    std::fprintf(stderr,
                 "snapshot smoke: restart was cold (hit=%d misses=%" PRIu64
                 ")\n",
                 warm.plan_cache_hit ? 1 : 0,
                 static_cast<uint64_t>(cache.misses));
    return 1;
  }

  // Same seed + same registration order: the restored engine's first
  // submit must be bit-identical to a cold engine's.
  EngineOptions cold_options;
  cold_options.seed = 2015;
  QueryEngine cold(cold_options);
  register_all(cold);
  const QueryResult reference = cold.Submit(request).ValueOrDie();
  if (warm.answers.size() != reference.answers.size()) {
    std::fprintf(stderr, "snapshot smoke: answer size diverges\n");
    return 1;
  }
  for (size_t i = 0; i < warm.answers.size(); ++i) {
    if (!BitExact(warm.answers[i], reference.answers[i])) {
      std::fprintf(stderr,
                   "snapshot smoke: answer[%zu] diverges: %.17g != %.17g\n",
                   i, warm.answers[i], reference.answers[i]);
      return 1;
    }
  }
  std::printf("snapshot smoke: PASS dir=%s generation=%" PRIu64
              " acks=%d transforms_restored=%zu\n",
              args.snapshot.c_str(), stats.generation, acks,
              stats.transforms_restored);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = Parse(argc, argv);
  if (!args.journal.empty()) return RunJournalSmoke(args);
  if (!args.snapshot.empty()) return RunSnapshotSmoke(args);

  if (args.serve >= 0) {
    std::signal(SIGINT, HandleStopSignal);
    std::signal(SIGTERM, HandleStopSignal);
  }

  EngineOptions options;
  options.seed = 2015;  // reproducible demo traffic
  options.trace_sample_rate = args.sample_rate;
  options.obs_port = args.serve;
  {
    QueryEngine engine(options);

    engine.RegisterPolicy("salaries", LinePolicy(16), Ramp(16, 13), 4.0)
        .Check();
    engine
        .RegisterPolicy("mobility", GridPolicy(DomainShape({16, 16}), 4),
                        Ramp(256, 17), 4.0)
        .Check();
    engine.OpenSession("alice", 3.0).Check();
    engine.OpenSession("bob", 0.4).Check();

    // Warm + cold synchronous traffic.
    QueryRequest request;
    request.session = "alice";
    request.policy = "salaries";
    request.workload = IdentityWorkload(16);
    request.epsilon = 0.01;
    for (int i = 0; i < args.requests; ++i) engine.Submit(request).status().Check();

    // A grouped batch (one atomic charge for the group).
    std::vector<QueryRequest> batch(4, request);
    for (auto& entry : batch) entry.epsilon = 0.005;
    for (const auto& outcome : engine.SubmitBatch(batch)) outcome.status().Check();

    // A cold plan (fresh policy) on its own thread, racing warm
    // submits on this one.
    engine
        .RegisterPolicy("roads", Theta1DPolicy(256, 4), Ramp(256, 23), 4.0)
        .Check();
    QueryRequest cold;
    cold.session = "alice";
    cold.policy = "roads";
    cold.workload = IdentityWorkload(256);
    cold.epsilon = 0.05;
    Status cold_status;
    std::thread planner([&] { cold_status = engine.Submit(cold).status(); });
    for (int i = 0; i < 8; ++i) engine.Submit(request).status().Check();
    planner.join();
    cold_status.Check();

    // A chunked stream, read on this thread.
    std::vector<RangeQuery> cells;
    for (size_t r = 0; r < 16; ++r)
      for (size_t c = 0; c < 16; ++c) cells.push_back({{r, c}, {r, c}});
    QueryRequest scan;
    scan.session = "alice";
    scan.policy = "mobility";
    scan.ranges = RangeWorkload("full-scan", DomainShape({16, 16}),
                                std::move(cells));
    scan.epsilon = 0.05;
    StreamOptions stream_options;
    stream_options.chunk_queries = 32;
    std::shared_ptr<ResultStream> stream =
        engine.SubmitStream(scan, stream_options).ValueOrDie();
    StreamChunk chunk;
    while (stream->Next(&chunk).ValueOrDie() != StreamNext::kDone) {
    }

    // Budget refusals land in the audit log too.
    QueryRequest greedy = request;
    greedy.session = "bob";
    greedy.epsilon = 1.0;
    if (engine.Submit(greedy).ok()) {
      std::fprintf(stderr, "error: refusal demo unexpectedly admitted\n");
      return 1;
    }

    const EngineTelemetry& telemetry = engine.telemetry();
    const std::string metrics = args.format == "prom"
                                    ? telemetry.metrics().PrometheusText()
                                    : telemetry.metrics().SnapshotJson();
    const std::string audit = telemetry.audit().ExportJsonl();
    const std::string traces = telemetry.TracesJsonl();

    if (args.out.empty()) {
      std::printf("==== metrics (%s) ====\n%s\n", args.format.c_str(),
                  metrics.c_str());
      std::printf("==== audit (jsonl) ====\n%s", audit.c_str());
      std::printf("==== traces (jsonl) ====\n%s", traces.c_str());
    } else {
      const char* ext = args.format == "prom" ? ".metrics.prom"
                                              : ".metrics.json";
      WriteFile(args.out + ext, metrics);
      WriteFile(args.out + ".audit.jsonl", audit);
      WriteFile(args.out + ".traces.jsonl", traces);
    }
    if (!args.flight.empty()) {
      WriteFile(args.flight, telemetry.flight().DumpJsonl());
    }

    if (args.serve >= 0) {
      if (engine.obs_server() == nullptr) {
        std::fprintf(stderr, "error: obs server did not start: %s\n",
                     engine.obs_error().ToString().c_str());
        return 1;
      }
      // Line-buffered port announcement so a scripted caller (CI) can
      // scrape immediately.
      std::printf("obs server listening on http://127.0.0.1:%d (/metrics "
                  "/varz /healthz /flightz /auditz /burnz) — Ctrl-C stops\n",
                  engine.obs_server()->port());
      std::fflush(stdout);
      // Keep light demo traffic flowing so scrapes show live counters
      // (a generous dedicated session: the loop never exhausts it).
      engine.OpenSession("scrape-demo:traffic", 1e9).Check();
      QueryRequest tick;
      tick.session = "scrape-demo:traffic";
      tick.policy = "salaries";
      tick.workload = IdentityWorkload(16);
      tick.epsilon = 1e-4;
      while (g_stop == 0) {
        (void)engine.Submit(tick);
        usleep(50 * 1000);
      }
      std::printf("obs server: served %" PRIu64 " scrapes, stopping\n",
                  engine.obs_server()->requests_served());
    }
  }
  return 0;
}
