// The live operability plane: per-tenant labeled metric families,
// ε burn-rate alerting, the always-on flight recorder, and the
// in-process /metrics + /healthz scrape server.
//
// What these tests pin down:
//   - the burn-rate tracker trips on the exact charge a scripted
//     spend schedule says it should — and only that one
//   - /healthz answers 200 while charges are durable and flips to 503
//     the moment the journal is fault-injected into poisoning
//   - a budget-refusal burst fires the flight recorder's incident
//     detector once, and the auto-dump carries the refused requests
//     with their tenant class and ε intact
//   - the Prometheus exposition is conformant: HELP/TYPE for every
//     family, label values escaped, histogram le-buckets cumulative
//     and non-decreasing
//   - labeled families cap their cardinality: tuple #max+1 collapses
//     into the `other` series instead of allocating
//   - scraping (PrometheusText/SnapshotJson/Healthz) races a Submit
//     flood without tearing (run under TSan in CI)
//   - the request parser answers mutated request bytes (over-long
//     paths, NULs, missing CRLF, > 4 KiB) with a well-formed status
//     line, and the server keeps serving

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <map>
#include <random>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "engine/ledger_journal.h"
#include "engine/obs_server.h"
#include "engine/query_engine.h"
#include "gtest/gtest.h"
#include "workload/builders.h"

namespace blowfish {
namespace {

Vector Ramp(size_t n) {
  Vector x(n, 0.0);
  for (size_t i = 0; i < n; ++i) x[i] = static_cast<double>(i % 7);
  return x;
}

QueryRequest MakeRequest(const std::string& session, const std::string& policy,
                         size_t domain, double epsilon) {
  QueryRequest request;
  request.session = session;
  request.policy = policy;
  request.workload = IdentityWorkload(domain);
  request.epsilon = epsilon;
  return request;
}

std::string MakeTempDir() {
  char tmpl[] = "/tmp/blowfish_obs_XXXXXX";
  const char* dir = ::mkdtemp(tmpl);
  EXPECT_NE(dir, nullptr);
  return dir == nullptr ? std::string() : std::string(dir);
}

// ------------------------------------------------- burn-rate alerting

// Budget 10, fast window 10 s, slow window 100 s, horizon 60 s, and a
// hand-driven clock. The schedule is chosen so the projections land
// on known sides of the horizon at every step:
//   t=0s  charge 1.0  -> fast 0.1 ε/s, balance 9, projects 90 s: calm
//   t=1s  charge 4.0  -> fast 0.5, balance 5, projects 10 s — but the
//          slow window still projects 100 s: the spike alone must not
//          page anyone
//   t=2s  charge 2.0  -> fast 0.7 (4.3 s) AND slow 0.07 (42.9 s) both
//          inside the horizon: the alert fires on exactly this charge
//   t=200s charge .001 -> both windows rotated empty: the alert clears
TEST(BurnRate, FiresOnTheExactScriptedCharge) {
  std::atomic<int64_t> now_us{0};
  BudgetAccountant accountant;
  BoundedRing<BurnAlert> alerts(64);
  BurnRateConfig config;
  config.enabled = true;
  config.fast_window_s = 10.0;
  config.slow_window_s = 100.0;
  config.alert_horizon_s = 60.0;
  config.now_micros = [&now_us] { return now_us.load(); };
  accountant.SetBurnRate(config, &alerts);

  const LedgerHandle ledger =
      accountant.OpenLedger("session/burn", 10.0).ValueOrDie();
  const ChargeTag tag;

  ASSERT_TRUE(accountant.Charge(&ledger, 1, 1.0, tag).ok());
  EXPECT_EQ(accountant.burn_alerts_fired(), 0u);
  EXPECT_EQ(accountant.burn_alerts_active(), 0);

  now_us.store(1'000'000);
  ASSERT_TRUE(accountant.Charge(&ledger, 1, 4.0, tag).ok());
  EXPECT_EQ(accountant.burn_alerts_fired(), 0u)
      << "slow window must gate the spike";

  now_us.store(2'000'000);
  ASSERT_TRUE(accountant.Charge(&ledger, 1, 2.0, tag).ok());
  EXPECT_EQ(accountant.burn_alerts_fired(), 1u);
  EXPECT_EQ(accountant.burn_alerts_active(), 1);

  std::vector<BurnAlert> fired = alerts.Snapshot();
  ASSERT_EQ(fired.size(), 1u);
  EXPECT_TRUE(fired[0].fired);
  EXPECT_EQ(fired[0].ledger_id, "session/burn");
  EXPECT_EQ(fired[0].wall_micros, 2'000'000);
  EXPECT_DOUBLE_EQ(fired[0].remaining, 3.0);
  EXPECT_DOUBLE_EQ(fired[0].fast_rate, 0.7);
  EXPECT_DOUBLE_EQ(fired[0].slow_rate, 0.07);
  EXPECT_NEAR(fired[0].projected_s, 3.0 / 0.7, 1e-12);

  // A further hot charge while already alerting must not double-fire.
  now_us.store(3'000'000);
  ASSERT_TRUE(accountant.Charge(&ledger, 1, 0.5, tag).ok());
  EXPECT_EQ(accountant.burn_alerts_fired(), 1u);
  EXPECT_EQ(accountant.burn_alerts_active(), 1);

  // Quiet period: both windows rotate out, the next charge clears.
  now_us.store(200'000'000);
  ASSERT_TRUE(accountant.Charge(&ledger, 1, 0.001, tag).ok());
  EXPECT_EQ(accountant.burn_alerts_active(), 0);
  std::vector<BurnAlert> all = alerts.Snapshot();
  ASSERT_EQ(all.size(), 2u);
  EXPECT_FALSE(all[1].fired);
  EXPECT_EQ(all[1].ledger_id, "session/burn");

  // The JSONL export carries both transitions.
  const std::string jsonl = alerts.ExportJsonl();
  EXPECT_NE(jsonl.find("\"kind\":\"fired\""), std::string::npos);
  EXPECT_NE(jsonl.find("\"kind\":\"cleared\""), std::string::npos);
}

TEST(BurnRate, ClosingAnAlertingLedgerClearsIt) {
  std::atomic<int64_t> now_us{0};
  BudgetAccountant accountant;
  BoundedRing<BurnAlert> alerts(8);
  BurnRateConfig config;
  config.enabled = true;
  config.fast_window_s = 10.0;
  config.slow_window_s = 10.0;
  config.alert_horizon_s = 1e6;  // everything projects inside
  config.now_micros = [&now_us] { return now_us.load(); };
  accountant.SetBurnRate(config, &alerts);

  const LedgerHandle ledger =
      accountant.OpenLedger("session/doomed", 5.0).ValueOrDie();
  ASSERT_TRUE(accountant.Charge(&ledger, 1, 1.0, ChargeTag()).ok());
  ASSERT_EQ(accountant.burn_alerts_active(), 1);

  ASSERT_TRUE(accountant.CloseLedger(ledger).ok());
  EXPECT_EQ(accountant.burn_alerts_active(), 0);
  std::vector<BurnAlert> all = alerts.Snapshot();
  ASSERT_EQ(all.size(), 2u);
  EXPECT_FALSE(all[1].fired);
}

// The engine plumbs the burn knobs through EngineOptions and exposes
// the state as gauges a scraper can read.
TEST(BurnRate, EngineExposesBurnGauges) {
  std::atomic<int64_t> now_us{0};
  EngineOptions options;
  options.seed = 7;
  options.burn_fast_window_s = 10.0;
  options.burn_slow_window_s = 10.0;
  options.burn_alert_horizon_s = 1e6;
  options.burn_clock_micros = [&now_us] { return now_us.load(); };
  QueryEngine engine(options);
  ASSERT_TRUE(
      engine.RegisterPolicy("p", LinePolicy(8), Ramp(8), 100.0).ok());
  ASSERT_TRUE(engine.OpenSession("acme:1", 100.0).ok());
  ASSERT_TRUE(engine.Submit(MakeRequest("acme:1", "p", 8, 0.5)).ok());

  double value = -1.0;
  ASSERT_TRUE(engine.telemetry().metrics().TryReadValue(
      "engine_burn_alerts_active", &value));
  EXPECT_EQ(value, 2.0);  // session grant and policy cap both burn
  ASSERT_TRUE(engine.telemetry().metrics().TryReadValue(
      "engine_burn_alerts_fired_total", &value));
  EXPECT_EQ(value, 2.0);
}

// ------------------------------------------------------ scrape server

TEST(ObsServer, ServesMetricsVarzHealthzFlightz) {
  EngineOptions options;
  options.seed = 7;
  options.obs_port = 0;  // ephemeral
  QueryEngine engine(options);
  ASSERT_NE(engine.obs_server(), nullptr) << engine.obs_error().ToString();
  const int port = engine.obs_server()->port();
  ASSERT_GT(port, 0);

  ASSERT_TRUE(engine.RegisterPolicy("p", LinePolicy(8), Ramp(8), 4.0).ok());
  ASSERT_TRUE(engine.OpenSession("acme:1", 2.0).ok());
  ASSERT_TRUE(engine.Submit(MakeRequest("acme:1", "p", 8, 0.25)).ok());

  HttpResponse metrics = ObsHttpGet(port, "/metrics").ValueOrDie();
  EXPECT_EQ(metrics.status, 200);
  EXPECT_NE(metrics.headers.find("text/plain; version=0.0.4"),
            std::string::npos);
  EXPECT_NE(metrics.body.find("engine_submits_total 1"), std::string::npos);
  EXPECT_NE(metrics.body.find("engine_tenant_requests_total{policy=\"p\","
                              "tenant=\"acme\"} 1"),
            std::string::npos);

  HttpResponse varz = ObsHttpGet(port, "/varz").ValueOrDie();
  EXPECT_EQ(varz.status, 200);
  EXPECT_NE(varz.body.find("\"engine_submits_total\""), std::string::npos);
  EXPECT_NE(varz.body.find("\"families\""), std::string::npos);

  HttpResponse healthz = ObsHttpGet(port, "/healthz").ValueOrDie();
  EXPECT_EQ(healthz.status, 200);
  EXPECT_NE(healthz.body.find("\"ok\":true"), std::string::npos);

  HttpResponse flightz = ObsHttpGet(port, "/flightz").ValueOrDie();
  EXPECT_EQ(flightz.status, 200);
  EXPECT_NE(flightz.body.find("\"tenant\":\"acme\""), std::string::npos);

  EXPECT_EQ(ObsHttpGet(port, "/nope").ValueOrDie().status, 404);
  EXPECT_GE(engine.obs_server()->requests_served(), 5u);
}

// /auditz and /burnz serve the rings' JSONL exports. The audit body is
// the replayable spend record, so it must replay clean and complete.
TEST(ObsServer, ServesAuditzAndBurnzRings) {
  EngineOptions options;
  options.seed = 7;
  options.obs_port = 0;
  options.burn_alert_horizon_s = 1e6;  // every spend projects exhaustion
  QueryEngine engine(options);
  ASSERT_NE(engine.obs_server(), nullptr) << engine.obs_error().ToString();
  const int port = engine.obs_server()->port();

  ASSERT_TRUE(engine.RegisterPolicy("p", LinePolicy(8), Ramp(8), 4.0).ok());
  ASSERT_TRUE(engine.OpenSession("acme:1", 2.0).ok());
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(engine.Submit(MakeRequest("acme:1", "p", 8, 0.25)).ok());
  }
  EXPECT_FALSE(engine.Submit(MakeRequest("acme:1", "p", 8, 5.0)).ok());

  HttpResponse auditz = ObsHttpGet(port, "/auditz").ValueOrDie();
  EXPECT_EQ(auditz.status, 200);
  const JsonlReplayReport audit = ReplayJsonl(auditz.body);
  EXPECT_TRUE(audit.clean());
  EXPECT_EQ(audit.events, engine.telemetry().audit().total());
  EXPECT_EQ(audit.events, 5u);  // four spends and the refusal
  EXPECT_NE(auditz.body.find("\"refusal\":\"budget_exhausted\""),
            std::string::npos);

  HttpResponse burnz = ObsHttpGet(port, "/burnz").ValueOrDie();
  EXPECT_EQ(burnz.status, 200);
  const JsonlReplayReport burn = ReplayJsonl(burnz.body);
  EXPECT_TRUE(burn.clean());
  EXPECT_EQ(burn.events, engine.telemetry().burn_alerts().total());
  EXPECT_EQ(burn.events, 2u);  // session grant and policy cap both fire
}

TEST(ObsServer, HealthzFlipsTo503WhenDurabilityPoisons) {
  const std::string dir = MakeTempDir();
  JournalFaultPlan plan;
  FaultInjectingJournalIo io(PosixJournalIo(), &plan);
  EngineOptions options;
  options.seed = 7;
  options.obs_port = 0;
  options.journal_path = dir;
  options.journal_io = &io;
  auto engine = QueryEngine::Open(options).ValueOrDie();
  ASSERT_NE(engine->obs_server(), nullptr);
  const int port = engine->obs_server()->port();

  ASSERT_TRUE(engine->RegisterPolicy("p", LinePolicy(8), Ramp(8), 4.0).ok());
  ASSERT_TRUE(engine->OpenSession("acme:1", 2.0).ok());
  ASSERT_TRUE(engine->Submit(MakeRequest("acme:1", "p", 8, 0.1)).ok());
  EXPECT_EQ(ObsHttpGet(port, "/healthz").ValueOrDie().status, 200);

  // Data fsync fails AND the repair fsync fails: the journal's tail
  // state is unknowable, so it goes sticky-unavailable and the engine
  // fails closed — the exact state /healthz must surface as 503.
  plan.fail_sync_count = 2;
  plan.fail_sync_at = plan.sync_calls.load() + 1;
  const Status refused =
      engine->Submit(MakeRequest("acme:1", "p", 8, 0.1)).status();
  ASSERT_FALSE(refused.ok());
  ASSERT_EQ(refused.code(), StatusCode::kUnavailableDurability);

  HttpResponse sick = ObsHttpGet(port, "/healthz").ValueOrDie();
  EXPECT_EQ(sick.status, 503);
  EXPECT_NE(sick.body.find("\"ok\":false"), std::string::npos);
  EXPECT_NE(sick.body.find("durability"), std::string::npos);

  // The durability refusal is an incident: the flight recorder must
  // have tripped on the very first one.
  EXPECT_TRUE(engine->telemetry().flight().incident_fired());
}

// One raw connection: send `bytes`, half-close, return everything the
// server wrote back. A plain socket, not ObsHttpGet, so the request
// can be any byte string.
std::string RawExchange(int port, const std::string& bytes) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  if (fd < 0) return "";
  struct timeval tv;
  tv.tv_sec = 5;
  tv.tv_usec = 0;
  (void)::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  struct sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<uint16_t>(port));
  std::string reply;
  if (::connect(fd, reinterpret_cast<struct sockaddr*>(&addr),
                sizeof(addr)) != 0) {
    ADD_FAILURE() << "connect: " << std::strerror(errno);
    ::close(fd);
    return reply;
  }
  // The server may answer and close before reading everything (it
  // stops at 4 KiB), so a failed send is not an error here.
  size_t sent = 0;
  while (sent < bytes.size()) {
    const ssize_t n = ::send(fd, bytes.data() + sent, bytes.size() - sent,
                             MSG_NOSIGNAL);
    if (n <= 0) break;
    sent += static_cast<size_t>(n);
  }
  (void)::shutdown(fd, SHUT_WR);
  char buf[4096];
  for (;;) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    reply.append(buf, static_cast<size_t>(n));
  }
  ::close(fd);
  return reply;
}

// Seeded byte-mutation fuzz of the request parser over a live server:
// every reply must be a well-formed HTTP/1.0 status line with a status
// the server can legitimately send, and the server must keep serving
// and count every connection.
TEST(ObsServer, SurvivesMutatedRequestBytes) {
  EngineOptions options;
  options.seed = 7;
  options.obs_port = 0;
  QueryEngine engine(options);
  ASSERT_NE(engine.obs_server(), nullptr) << engine.obs_error().ToString();
  const int port = engine.obs_server()->port();
  ASSERT_TRUE(engine.RegisterPolicy("p", LinePolicy(8), Ramp(8), 4.0).ok());

  const std::vector<std::string> seeds = {
      "GET /metrics HTTP/1.0\r\n\r\n",
      "GET /" + std::string(3000, 'a') + " HTTP/1.0\r\n\r\n",
      "GET /healthz HTTP/1.0",
      "GET /" + std::string(1, '\0') + "metrics" + std::string(1, '\0') +
          " HTTP/1.0\r\n\r\n",
      "GET /varz HTTP/1.0\r\nX-Pad: " + std::string(5000, 'x') +
          "\r\n\r\n",
  };
  std::mt19937_64 rng(20150731);
  constexpr int kIterations = 300;
  const uint64_t served_before = engine.obs_server()->requests_served();
  for (int iter = 0; iter < kIterations; ++iter) {
    std::string bytes = seeds[iter % seeds.size()];
    const int mutations = static_cast<int>(rng() % 4);
    for (int m = 0; m < mutations && !bytes.empty(); ++m) {
      const size_t at = rng() % bytes.size();
      switch (rng() % 5) {
        case 0: bytes[at] = static_cast<char>(rng()); break;  // overwrite
        case 1: bytes.insert(at, 1, static_cast<char>(rng())); break;
        case 2: bytes.erase(at, 1); break;
        case 3: bytes.resize(at); break;  // truncate
        case 4: bytes.insert(at, rng() % 2 ? "\r\n" : std::string(1, '\0'));
      }
    }
    const std::string reply = RawExchange(port, bytes);
    const size_t eol = reply.find("\r\n");
    ASSERT_NE(eol, std::string::npos) << "iteration " << iter;
    const std::string status_line = reply.substr(0, eol);
    EXPECT_TRUE(status_line.rfind("HTTP/1.0 200 ", 0) == 0 ||
                status_line.rfind("HTTP/1.0 404 ", 0) == 0 ||
                status_line.rfind("HTTP/1.0 405 ", 0) == 0)
        << "iteration " << iter << ": " << status_line;
    EXPECT_NE(reply.find("\r\n\r\n"), std::string::npos)
        << "iteration " << iter;
  }
  EXPECT_EQ(engine.obs_server()->requests_served(),
            served_before + kIterations);
  EXPECT_EQ(ObsHttpGet(port, "/healthz").ValueOrDie().status, 200);
}

// ----------------------------------------------------- flight recorder

TEST(FlightRecorder, RefusalBurstFiresIncidentAndDumpsTenants) {
  const std::string dump_path = MakeTempDir() + "/flight.jsonl";
  EngineOptions options;
  options.seed = 7;
  options.flight_recorder_capacity = 256;
  options.flight_burst_window = 64;
  options.flight_burst_refusals = 8;
  options.flight_dump_path = dump_path;
  QueryEngine engine(options);

  ASSERT_TRUE(engine.RegisterPolicy("p", LinePolicy(8), Ramp(8), 100.0).ok());
  ASSERT_TRUE(engine.OpenSession("acme:alice", 1.0).ok());

  // Healthy traffic first, then a refusal burst from one tenant.
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(engine.Submit(MakeRequest("acme:alice", "p", 8, 0.01)).ok());
  }
  EXPECT_FALSE(engine.telemetry().flight().incident_fired());
  for (int i = 0; i < 8; ++i) {
    const Status refused =
        engine.Submit(MakeRequest("acme:alice", "p", 8, 5.0)).status();
    ASSERT_EQ(refused.code(), StatusCode::kOutOfRange);
  }
  EXPECT_TRUE(engine.telemetry().flight().incident_fired());

  // The ring holds both the run-up and the refusals, attributed.
  size_t ok_records = 0;
  size_t refused_records = 0;
  for (const FlightRecord& record : engine.telemetry().flight().Snapshot()) {
    EXPECT_STREQ(record.tenant, "acme");
    EXPECT_STREQ(record.policy, "p");
    if (record.outcome == FlightOutcome::kOk) {
      ++ok_records;
      EXPECT_EQ(record.epsilon, 0.01);
    } else {
      ASSERT_EQ(record.outcome, FlightOutcome::kRefusedBudget);
      ++refused_records;
      EXPECT_EQ(record.epsilon, 5.0);
    }
  }
  EXPECT_EQ(ok_records, 20u);
  EXPECT_EQ(refused_records, 8u);

  // The incident auto-dumped the ring while it held the run-up.
  std::ifstream dump(dump_path);
  ASSERT_TRUE(dump.good()) << "incident must write " << dump_path;
  std::stringstream buffer;
  buffer << dump.rdbuf();
  const std::string jsonl = buffer.str();
  EXPECT_NE(jsonl.find("\"outcome\":\"refused_budget\""), std::string::npos);
  EXPECT_NE(jsonl.find("\"tenant\":\"acme\""), std::string::npos);
  EXPECT_NE(jsonl.find("\"eps\":5"), std::string::npos);

  // Exactly one incident per recorder lifetime: more refusals must
  // not re-dump (the dump keeps the *first* incident's run-up).
  for (int i = 0; i < 8; ++i) {
    (void)engine.Submit(MakeRequest("acme:alice", "p", 8, 5.0));
  }
  EXPECT_TRUE(engine.telemetry().flight().incident_fired());
}

TEST(FlightRecorder, HandleOnlyRequestsStillCarryTheirTenant) {
  EngineOptions options;
  options.seed = 7;
  options.flight_recorder_capacity = 64;
  QueryEngine engine(options);
  ASSERT_TRUE(engine.RegisterPolicy("p", LinePolicy(8), Ramp(8), 4.0).ok());
  ASSERT_TRUE(engine.OpenSession("fleet:worker-3", 2.0).ok());

  QueryRequest request;
  request.session_handle = engine.ResolveSession("fleet:worker-3").ValueOrDie();
  request.policy_handle = engine.ResolvePolicy("p").ValueOrDie();
  request.workload = IdentityWorkload(8);
  request.epsilon = 0.1;
  ASSERT_TRUE(engine.Submit(request).ok());

  std::vector<FlightRecord> records = engine.telemetry().flight().Snapshot();
  ASSERT_EQ(records.size(), 1u);
  EXPECT_STREQ(records[0].tenant, "fleet");
  EXPECT_STREQ(records[0].policy, "p");
}

// ------------------------------------------- exposition conformance

// A minimal exposition parser: enough structure to assert HELP/TYPE
// coverage and cumulative buckets without a real Prometheus client.
struct Exposition {
  std::set<std::string> help;  ///< metric names with a # HELP line
  std::set<std::string> type;  ///< metric names with a # TYPE line
  std::vector<std::string> samples;  ///< non-comment lines
};

Exposition ParseExposition(const std::string& text) {
  Exposition out;
  std::istringstream lines(text);
  std::string line;
  while (std::getline(lines, line)) {
    if (line.empty()) continue;
    if (line.rfind("# HELP ", 0) == 0) {
      out.help.insert(line.substr(7, line.find(' ', 7) - 7));
    } else if (line.rfind("# TYPE ", 0) == 0) {
      out.type.insert(line.substr(7, line.find(' ', 7) - 7));
    } else {
      out.samples.push_back(line);
    }
  }
  return out;
}

// The family a sample line belongs to: the name up to '{' or ' ',
// with histogram suffixes stripped.
std::string FamilyOf(const std::string& sample) {
  std::string name = sample.substr(0, sample.find_first_of("{ "));
  for (const char* suffix : {"_bucket", "_sum", "_count"}) {
    const size_t len = std::string(suffix).size();
    if (name.size() > len && name.compare(name.size() - len, len, suffix) == 0) {
      return name.substr(0, name.size() - len);
    }
  }
  return name;
}

TEST(Exposition, EveryFamilyHasHelpAndType) {
  EngineOptions options;
  options.seed = 7;
  QueryEngine engine(options);
  ASSERT_TRUE(engine.RegisterPolicy("p", LinePolicy(8), Ramp(8), 4.0).ok());
  ASSERT_TRUE(engine.OpenSession("acme:1", 2.0).ok());
  ASSERT_TRUE(engine.Submit(MakeRequest("acme:1", "p", 8, 0.1)).ok());

  const Exposition exposition =
      ParseExposition(engine.telemetry().metrics().PrometheusText());
  ASSERT_FALSE(exposition.samples.empty());
  for (const std::string& sample : exposition.samples) {
    const std::string family = FamilyOf(sample);
    EXPECT_TRUE(exposition.help.count(family))
        << "missing # HELP for " << family << " (sample: " << sample << ")";
    EXPECT_TRUE(exposition.type.count(family))
        << "missing # TYPE for " << family << " (sample: " << sample << ")";
  }
  // Spot-check a real help string survived the plumbing.
  EXPECT_NE(engine.telemetry().metrics().PrometheusText().find(
                "# HELP engine_submits_total Submit attempts"),
            std::string::npos);
}

TEST(Exposition, LabelValuesAreEscaped) {
  MetricsRegistry registry;
  CounterFamily* family = registry.counter_family(
      "esc_total", {"tenant", "policy"}, 8, "escape test");
  family->WithLabels("a\\b", "c\"d\ne")->Add(3);
  const std::string text = registry.PrometheusText();
  EXPECT_NE(
      text.find("esc_total{tenant=\"a\\\\b\",policy=\"c\\\"d\\ne\"} 3"),
      std::string::npos)
      << text;
}

TEST(Exposition, HelpTextIsEscaped) {
  MetricsRegistry registry;
  registry.counter("weird_total", "line one\nline \\ two");
  const std::string text = registry.PrometheusText();
  EXPECT_NE(text.find("# HELP weird_total line one\\nline \\\\ two"),
            std::string::npos)
      << text;
}

TEST(Exposition, HistogramBucketsAreCumulativeAndNonDecreasing) {
  MetricsRegistry registry;
  LatencyHistogram* histogram = registry.histogram("lat_ms", "latency");
  for (double ms : {0.001, 0.05, 0.05, 1.0, 8.0, 8.0, 8.0, 250.0}) {
    histogram->Record(ms);
  }
  const std::string text = registry.PrometheusText();

  uint64_t previous = 0;
  uint64_t last_bucket = 0;
  uint64_t total = 0;
  bool saw_inf = false;
  std::istringstream lines(text);
  std::string line;
  while (std::getline(lines, line)) {
    if (line.rfind("lat_ms_bucket{", 0) == 0) {
      const uint64_t value = std::stoull(line.substr(line.rfind(' ') + 1));
      ASSERT_GE(value, previous) << "buckets must be cumulative: " << line;
      previous = value;
      last_bucket = value;
      if (line.find("le=\"+Inf\"") != std::string::npos) saw_inf = true;
    } else if (line.rfind("lat_ms_count ", 0) == 0) {
      total = std::stoull(line.substr(line.rfind(' ') + 1));
    }
  }
  EXPECT_TRUE(saw_inf);
  EXPECT_EQ(total, 8u);
  EXPECT_EQ(last_bucket, total) << "+Inf bucket must equal _count";
}

// ------------------------------------------------ bounded cardinality

TEST(MetricFamily, OverflowCollapsesIntoOther) {
  MetricsRegistry registry;
  CounterFamily* family =
      registry.counter_family("cap_total", {"tenant"}, 2, "cap test");
  family->WithLabels("a")->Add(1);
  family->WithLabels("b")->Add(1);
  // Tuple #3 exceeds max_series: both lookups land on one shared
  // preallocated series — no allocation, no new exposition series.
  Counter* first = family->WithLabels("c");
  Counter* second = family->WithLabels("d");
  EXPECT_EQ(first, second);
  first->Add(5);
  EXPECT_EQ(family->size(), 2u);
  EXPECT_EQ(family->overflow_hits(), 2u);

  const std::string text = registry.PrometheusText();
  EXPECT_NE(text.find("cap_total{tenant=\"a\"} 1"), std::string::npos);
  EXPECT_NE(text.find("cap_total{tenant=\"other\"} 5"), std::string::npos);
  EXPECT_EQ(text.find("tenant=\"c\""), std::string::npos);
}

TEST(MetricFamily, EngineCapsTenantCardinality) {
  EngineOptions options;
  options.seed = 7;
  options.tenant_metrics_capacity = 4;
  QueryEngine engine(options);
  ASSERT_TRUE(engine.RegisterPolicy("p", LinePolicy(8), Ramp(8), 1e6).ok());
  // 8 distinct tenant classes against a 4-tuple budget.
  for (int t = 0; t < 8; ++t) {
    const std::string session = "tenant" + std::to_string(t) + ":s";
    ASSERT_TRUE(engine.OpenSession(session, 10.0).ok());
    ASSERT_TRUE(engine.Submit(MakeRequest(session, "p", 8, 0.01)).ok());
  }
  // The overflow series wears `other` in every label position — it is
  // one shared bucket, not a per-policy one.
  const std::string text = engine.telemetry().metrics().PrometheusText();
  EXPECT_NE(text.find("engine_tenant_requests_total{policy=\"other\","
                      "tenant=\"other\"} 4"),
            std::string::npos)
      << text;
}

// ------------------------------------------------- scrape-vs-write race

// Four submitters flood the engine while one thread scrapes every
// surface a handler serves. No assertion beyond "nothing tears" —
// this test exists to run under TSan (CI's engine_* sanitizer glob).
TEST(ObsConcurrency, ScrapesRaceSubmitsCleanly) {
  EngineOptions options;
  options.seed = 7;
  options.trace_sample_rate = 0.25;
  options.flight_recorder_capacity = 128;  // small: wraps under load
  options.tenant_metrics_capacity = 8;
  QueryEngine engine(options);
  ASSERT_TRUE(engine.RegisterPolicy("p", LinePolicy(8), Ramp(8), 1e9).ok());

  constexpr int kWriters = 4;
  constexpr int kPerWriter = 400;
  std::vector<std::thread> writers;
  writers.reserve(kWriters);
  for (int w = 0; w < kWriters; ++w) {
    const std::string session = "writer" + std::to_string(w) + ":s";
    ASSERT_TRUE(engine.OpenSession(session, 1e9).ok());
    writers.emplace_back([&engine, session] {
      for (int i = 0; i < kPerWriter; ++i) {
        ASSERT_TRUE(engine.Submit(MakeRequest(session, "p", 8, 1e-6)).ok());
      }
    });
  }
  std::atomic<bool> done{false};
  std::thread scraper([&engine, &done] {
    while (!done.load(std::memory_order_relaxed)) {
      const std::string prom = engine.telemetry().metrics().PrometheusText();
      ASSERT_FALSE(prom.empty());
      const std::string json = engine.telemetry().metrics().SnapshotJson();
      ASSERT_FALSE(json.empty());
      (void)engine.telemetry().flight().Snapshot();
      (void)engine.Healthz();
    }
  });
  for (std::thread& writer : writers) writer.join();
  done.store(true, std::memory_order_relaxed);
  scraper.join();

  double submits = 0.0;
  ASSERT_TRUE(engine.telemetry().metrics().TryReadValue("engine_submits_total",
                                                        &submits));
  EXPECT_EQ(submits, static_cast<double>(kWriters * kPerWriter));
  EXPECT_EQ(engine.telemetry().flight().total(),
            static_cast<uint64_t>(kWriters * kPerWriter));
}

}  // namespace
}  // namespace blowfish
