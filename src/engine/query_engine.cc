#include "engine/query_engine.h"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <utility>

#include "core/grid_theta_adapter.h"
#include "core/mechanisms_kd.h"
#include "engine/snapshot_store.h"

namespace blowfish {

namespace {
// SplitMix64-style odd multiplier: consecutive submit indices map to
// well-separated Rng seeds.
constexpr uint64_t kStreamStep = 0x9E3779B97F4A7C15ull;

const std::string& WorkloadName(const QueryRequest& request) {
  return request.ranges.has_value() ? request.ranges->name()
                                    : request.workload.name();
}

/// Shape checks of one request, made without any allocation. On
/// success `*domain` is the number of cells its workload spans.
Status ValidateShape(const QueryRequest& request, size_t* domain) {
  if (request.epsilon <= 0.0) {
    return Status::InvalidArgument("submit needs a positive epsilon");
  }
  const bool has_ranges = request.ranges.has_value();
  if (has_ranges && request.workload.num_queries() > 0) {
    return Status::InvalidArgument(
        "submit carries both a dense and a range workload; set exactly one");
  }
  const size_t num_queries = has_ranges ? request.ranges->num_queries()
                                        : request.workload.num_queries();
  if (num_queries == 0) {
    return Status::InvalidArgument("submit needs a non-empty workload");
  }
  *domain = has_ranges ? request.ranges->domain().size()
                       : request.workload.domain_size();
  return Status::OK();
}

Status CheckDomain(const QueryRequest& request, size_t domain,
                   const RegisteredPolicy& entry) {
  if (domain != entry.policy.domain_size()) {
    return Status::InvalidArgument(
        "workload '" + WorkloadName(request) + "' spans " +
        std::to_string(domain) + " cells but policy '" + entry.name +
        "' has domain size " + std::to_string(entry.policy.domain_size()));
  }
  return Status::OK();
}

FlightOutcome FlightOutcomeOf(const Status& status) {
  if (status.ok()) return FlightOutcome::kOk;
  switch (status.code()) {
    case StatusCode::kOutOfRange:
      return FlightOutcome::kRefusedBudget;
    case StatusCode::kUnavailableDurability:
      return FlightOutcome::kRefusedDurability;
    default:
      return FlightOutcome::kFailed;
  }
}

uint32_t Micros(std::chrono::steady_clock::duration elapsed) {
  return static_cast<uint32_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(elapsed).count());
}

}  // namespace

QueryEngine::QueryEngine(EngineOptions options)
    : options_(std::move(options)),
      seed_(options_.seed.has_value() ? *options_.seed : Rng::EntropySeed()),
      telemetry_(options_.trace_sample_rate, options_.audit_log_capacity,
                 options_.flight_recorder_capacity) {
  // Every spend/refusal the accountant decides lands in the audit
  // ring, pushed under the charge's shard locks (see telemetry.h
  // for the ordering guarantee that buys).
  accountant_.SetAuditLog(&telemetry_.audit());

  telemetry_.flight().ConfigureBurst(options_.flight_burst_window,
                                     options_.flight_burst_refusals);
  if (options_.burn_alerts_enabled) {
    BurnRateConfig burn;
    burn.enabled = true;
    burn.fast_window_s = options_.burn_fast_window_s;
    burn.slow_window_s = options_.burn_slow_window_s;
    burn.alert_horizon_s = options_.burn_alert_horizon_s;
    burn.now_micros = options_.burn_clock_micros;
    accountant_.SetBurnRate(std::move(burn), &telemetry_.burn_alerts());
  }

  if (!options_.journal_path.empty()) {
    JournalOptions jopts;
    jopts.dir = options_.journal_path;
    jopts.segment_bytes = options_.journal_segment_bytes;
    jopts.io_retries = options_.journal_io_retries;
    jopts.retry_backoff_micros = options_.journal_retry_backoff_micros;
    jopts.allow_torn_tail = options_.journal_allow_torn_tail;
    jopts.io = options_.journal_io;
    jopts.metrics = &telemetry_.metrics();
    Result<std::unique_ptr<LedgerJournal>> journal =
        LedgerJournal::Open(std::move(jopts));
    if (journal.ok()) {
      journal_ = std::move(journal).ValueOrDie();
      // From here on every charge is write-ahead journaled before it
      // commits, and ledgers opened under recovered ids resume their
      // pre-crash spends (see BudgetAccountant::SetJournal).
      accountant_.SetJournal(journal_.get());
    } else {
      // A constructor cannot return the failure, so the engine fails
      // closed instead: Resolve refuses everything with this status.
      // QueryEngine::Open surfaces it properly.
      journal_error_ = journal.status();
    }
  }

  MetricsRegistry& metrics = telemetry_.metrics();
  m_submits_ = metrics.counter("engine_submits_total",
                               "Submit attempts, including refused ones");
  m_failures_ = metrics.counter("engine_submit_failures_total",
                                "Submit attempts that returned an error");
  m_refused_budget_ = metrics.counter(
      "engine_refused_budget_total",
      "Submits refused with kOutOfRange: a ledger could not afford the "
      "requested epsilon");
  m_batches_ = metrics.counter("engine_batches_total", "SubmitBatch calls");
  m_batch_entries_ = metrics.counter("engine_batch_entries_total",
                                     "Entries across all batches");
  m_streams_ = metrics.counter("engine_streams_total",
                               "Stream admissions attempted");
  m_eps_charged_ = metrics.double_counter(
      "engine_epsilon_charged_total",
      "Total epsilon charged across all successful admissions");
  m_submit_latency_ = metrics.histogram("engine_submit_latency_ms",
                                        "End-to-end Submit latency");

  // Per-(policy, tenant) slices of the counters above: the tenant
  // label is the session id's class prefix (see TenantClassOf), the
  // family bounded so exposition cardinality cannot be driven by
  // callers minting session ids (overflow collapses to "other").
  if (options_.tenant_metrics_capacity > 0) {
    const std::vector<std::string> labels = {"policy", "tenant"};
    f_tenant_requests_ = metrics.counter_family(
        "engine_tenant_requests_total", labels,
        options_.tenant_metrics_capacity,
        "Requests per (policy, tenant class), every outcome");
    f_tenant_failures_ = metrics.counter_family(
        "engine_tenant_failures_total", labels,
        options_.tenant_metrics_capacity,
        "Failed requests per (policy, tenant class)");
    f_tenant_refused_ = metrics.counter_family(
        "engine_tenant_refused_total", labels,
        options_.tenant_metrics_capacity,
        "Requests refused per (policy, tenant class): budget exhausted "
        "(kOutOfRange) or durability unavailable");
    f_tenant_eps_ = metrics.double_counter_family(
        "engine_tenant_epsilon_charged_total", labels,
        options_.tenant_metrics_capacity,
        "Epsilon charged per (policy, tenant class)");
    f_tenant_latency_ = metrics.histogram_family(
        "engine_tenant_latency_ms", labels, options_.tenant_metrics_capacity,
        "End-to-end request latency per (policy, tenant class)");
  }
  obs_enabled_ =
      f_tenant_requests_ != nullptr || telemetry_.flight().enabled();

  // Component levels, read at snapshot time from the stats the
  // components already maintain (no second bookkeeping).
  metrics.gauge_callback("engine_plan_cache_hits", [this] {
    return static_cast<double>(plan_hits_.load(std::memory_order_relaxed));
  });
  metrics.gauge_callback("engine_plan_cache_misses", [this] {
    return static_cast<double>(plan_misses_.load(std::memory_order_relaxed));
  });
  metrics.gauge_callback("engine_transform_cache_entries", [this] {
    return static_cast<double>(transform_cache_stats().entries);
  });
  metrics.gauge_callback("engine_transform_cache_bytes", [this] {
    return static_cast<double>(transform_cache_stats().bytes);
  });
  metrics.gauge_callback("engine_policies", [this] {
    return static_cast<double>(registry_.size());
  });
  metrics.gauge_callback("engine_sessions", [this] {
    std::shared_lock<std::shared_mutex> lock(sessions_mu_);
    return static_cast<double>(sessions_.size());
  });
  metrics.gauge_callback("engine_audit_events_total", [this] {
    return static_cast<double>(telemetry_.audit().total());
  });
  // Events lost to ring wrap-around are exactly the spends a JSONL
  // export can no longer replay, so dashboards alert on this name
  // (nonzero = widen the ring or scrape /auditz more often; the crash
  // journal is unaffected — it never drops).
  metrics.gauge_callback("engine_audit_dropped", [this] {
    return static_cast<double>(telemetry_.audit().dropped());
  });
  // The trace ring's drop counter, mirroring engine_audit_dropped:
  // nonzero means sampled traces were overwritten before an exporter
  // read them (widen the ring or export more often).
  metrics.gauge_callback(
      "engine_trace_dropped",
      [this] { return static_cast<double>(telemetry_.traces().dropped()); },
      "Sampled traces lost to trace-ring wrap-around");
  metrics.gauge_callback(
      "engine_burn_alerts_fired_total",
      [this] { return static_cast<double>(accountant_.burn_alerts_fired()); },
      "Burn-rate alerts fired: a ledger's two-window spend rate "
      "projected exhaustion inside the alert horizon");
  metrics.gauge_callback(
      "engine_burn_alerts_active",
      [this] { return static_cast<double>(accountant_.burn_alerts_active()); },
      "Ledgers currently in the burn-alerting state");
  metrics.gauge_callback(
      "engine_flight_records_total",
      [this] { return static_cast<double>(telemetry_.flight().total()); },
      "Requests captured by the always-on flight recorder");
  metrics.gauge_callback(
      "engine_flight_incident",
      [this] { return telemetry_.flight().incident_fired() ? 1.0 : 0.0; },
      "1 once the flight recorder's incident detector has fired "
      "(first durability refusal or refusal burst)");
  metrics.gauge_callback(
      "engine_obs_requests_total",
      [this] {
        return obs_server_ == nullptr
                   ? 0.0
                   : static_cast<double>(obs_server_->requests_served());
      },
      "HTTP requests the in-process scrape server answered");
  // Warm-restart observability: what this process inherited from the
  // snapshot store (fixed at construction).
  metrics.gauge_callback("engine_snapshot_generation", [this] {
    return static_cast<double>(snapshot_restore_stats_.generation);
  });
  metrics.gauge_callback("engine_snapshot_restored_policies", [this] {
    return static_cast<double>(snapshot_restore_stats_.policies_restored);
  });
  metrics.gauge_callback("engine_snapshot_restored_transforms", [this] {
    return static_cast<double>(snapshot_restore_stats_.transforms_restored);
  });
  metrics.gauge_callback("engine_snapshot_items_skipped", [this] {
    return static_cast<double>(snapshot_restore_stats_.items_skipped);
  });

  // Warm restart runs after the journal is wired (restored policies
  // open their versioned cap ledgers through the accountant, which
  // must already absorb journal-recovered spends) and before any
  // submit can exist. A poisoned journal skips the restore: the
  // engine refuses everything anyway, and opening ledgers against an
  // unjournaled accountant would let spends bypass the write-ahead
  // contract after the poison clears.
  if (!options_.snapshot_path.empty() && journal_error_.ok()) {
    RestoreFromSnapshot();
  }

  // The scrape server starts last: its handlers snapshot the registry
  // and the rings, so everything they touch must already be wired. A
  // bind failure (port taken) degrades observability, never the data
  // plane — the engine runs and obs_error() says why /metrics is dark.
  if (options_.obs_port >= 0) {
    ObsHandlers handlers;
    handlers.metrics_text = [this] {
      return telemetry_.metrics().PrometheusText();
    };
    handlers.varz_json = [this] { return telemetry_.metrics().SnapshotJson(); };
    handlers.healthz = [this] { return Healthz(); };
    handlers.jsonl["/flightz"] = [this] {
      return telemetry_.flight().DumpJsonl();
    };
    handlers.jsonl["/auditz"] = [this] {
      return telemetry_.audit().ExportJsonl();
    };
    handlers.jsonl["/burnz"] = [this] {
      return telemetry_.burn_alerts().ExportJsonl();
    };
    Result<std::unique_ptr<ObsServer>> server =
        ObsServer::Start(options_.obs_port, std::move(handlers));
    if (server.ok()) {
      obs_server_ = std::move(server).ValueOrDie();
    } else {
      obs_error_ = server.status();
    }
  }
}

Result<std::unique_ptr<QueryEngine>> QueryEngine::Open(EngineOptions options) {
  std::unique_ptr<QueryEngine> engine(new QueryEngine(std::move(options)));
  BF_RETURN_NOT_OK(engine->journal_error_);
  return engine;
}

Status QueryEngine::durability_health() const {
  if (!journal_error_.ok()) return journal_error_;
  if (journal_ != nullptr) return journal_->health();
  return Status::OK();
}

HealthReport QueryEngine::Healthz() const {
  HealthReport report;
  const Status durability = durability_health();
  // The up/down decision is exactly the fail-closed durability signal:
  // a 503 here means every charge is being refused too. Everything
  // else in the body is context, not a cause for 503 — a burn alert
  // or a dropped audit event degrades insight, not correctness.
  report.ok = durability.ok();
  std::string& body = report.body;
  body = "{\"ok\":";
  body += report.ok ? "true" : "false";
  body += ",\"durability\":";
  AppendJsonString(durability.ok() ? "OK" : durability.ToString(), &body);
  body += ",\"snapshot_generation\":";
  body += std::to_string(snapshot_restore_stats_.generation);
  body += ",\"burn_alerts_active\":";
  body += std::to_string(accountant_.burn_alerts_active());
  body += ",\"audit_dropped\":";
  body += std::to_string(telemetry_.audit().dropped());
  body += ",\"trace_dropped\":";
  body += std::to_string(telemetry_.traces().dropped());
  body += ",\"flight_incident\":";
  body += telemetry_.flight().incident_fired() ? "true" : "false";
  body += "}\n";
  return report;
}

std::string_view QueryEngine::TenantClassOf(const std::string& session_id) {
  const size_t cut = session_id.find_first_of(":/#@");
  return std::string_view(session_id)
      .substr(0, cut == std::string::npos ? session_id.size() : cut);
}

void QueryEngine::RecordRequestObs(const QueryRequest& request,
                                   const RegisteredPolicy* entry,
                                   const Status& status,
                                   double charged_epsilon, uint32_t admit_us,
                                   uint32_t total_us) {
  if (!obs_enabled_) return;

  // Resolve the policy label: the canonical registry name when the
  // request got far enough, its string otherwise. A failed handle-only
  // request resolves the handle here (off the success path).
  std::shared_ptr<const RegisteredPolicy> resolved;
  std::string_view policy_label;
  if (entry != nullptr) {
    policy_label = entry->name;
  } else if (!request.policy.empty()) {
    policy_label = request.policy;
  } else if (request.policy_handle.valid()) {
    Result<std::shared_ptr<const RegisteredPolicy>> lookup =
        registry_.Get(request.policy_handle);
    if (lookup.ok()) {
      resolved = std::move(lookup).ValueOrDie();
      policy_label = resolved->name;
    }
  }
  if (policy_label.empty()) policy_label = "unknown";

  // Resolve the tenant class. Handle-only requests carry no session
  // string, so the class is copied out of session_tenants_ into a
  // stack buffer under the shared lock (a concurrent CloseSession can
  // erase the entry the moment the lock drops).
  char tenant_buf[sizeof(FlightRecord::tenant)];
  std::string_view tenant;
  if (!request.session.empty()) {
    tenant = TenantClassOf(request.session);
  } else if (request.session_handle.valid()) {
    std::shared_lock<std::shared_mutex> lock(sessions_mu_);
    auto it = session_tenants_.find(request.session_handle.bits());
    if (it != session_tenants_.end()) {
      const size_t n = std::min(it->second.size(), sizeof(tenant_buf) - 1);
      std::memcpy(tenant_buf, it->second.data(), n);
      tenant_buf[n] = '\0';
      tenant = std::string_view(tenant_buf, n);
    }
  }
  if (tenant.empty()) tenant = "unknown";

  if (f_tenant_requests_ != nullptr) {
    f_tenant_requests_->WithLabels(policy_label, tenant)->Add(1);
    if (status.ok()) {
      if (charged_epsilon > 0.0) {
        f_tenant_eps_->WithLabels(policy_label, tenant)->Add(charged_epsilon);
      }
    } else {
      f_tenant_failures_->WithLabels(policy_label, tenant)->Add(1);
      if (status.code() == StatusCode::kOutOfRange ||
          status.code() == StatusCode::kUnavailableDurability) {
        f_tenant_refused_->WithLabels(policy_label, tenant)->Add(1);
      }
    }
    // total_us == 0 means "not timed" (batch group entries), not a
    // zero-latency request — keep it out of the histograms.
    if (total_us > 0) {
      f_tenant_latency_->WithLabels(policy_label, tenant)
          ->Record(total_us / 1000.0);
    }
  }

  FlightRecorder& flight = telemetry_.flight();
  if (flight.enabled()) {
    FlightRecord record;
    record.t_us = WallMicros();
    record.epsilon = request.epsilon;
    record.admit_us = admit_us;
    record.total_us = total_us;
    record.outcome = FlightOutcomeOf(status);
    record.SetTenant(tenant);
    record.SetPolicy(policy_label);
    if (flight.Record(record) && !options_.flight_dump_path.empty()) {
      // First incident: persist the ring while it still holds the
      // run-up traffic. Best-effort — a failed dump loses forensics,
      // not correctness (the in-memory ring stays dumpable).
      std::ofstream out(options_.flight_dump_path,
                        std::ios::out | std::ios::trunc);
      if (out) out << flight.DumpJsonl();
    }
  }
}

Status QueryEngine::CheckpointJournal() {
  if (journal_ == nullptr) {
    return Status::InvalidArgument(
        "engine has no journal (EngineOptions::journal_path unset)");
  }
  return accountant_.WriteCheckpoint();
}

void QueryEngine::MaybeCheckpointJournal() {
  if (journal_ == nullptr || !options_.journal_auto_checkpoint ||
      !journal_->checkpoint_due()) {
    return;
  }
  // Best-effort: a failed compaction leaves more segments on disk but
  // never loses a record; the next due submit retries.
  (void)accountant_.WriteCheckpoint();
}

void QueryEngine::RestoreFromSnapshot() {
  SnapshotImage image;
  snapshot::OpenReport report;
  const Status opened =
      snapshot::OpenLatest(options_.snapshot_path, &image, &report);
  if (!opened.ok()) return;  // unconfigured path; nothing to restore
  snapshot_restore_stats_.skipped_files = report.skipped;
  if (!report.loaded) return;  // cold start (missing or all corrupt)
  snapshot_restore_stats_.loaded = true;
  snapshot_restore_stats_.generation = report.generation;

  // Persisted transforms by serving-slot key; each restored plan
  // consumes its own.
  std::unordered_map<uint64_t, const SnapshotTransform*> transforms;
  for (const SnapshotTransform& st : image.transforms) {
    const uint64_t key = ServingSlotKey(st.version, st.data_dependent ? 1 : 0);
    if (!transforms.emplace(key, &st).second) {
      ++snapshot_restore_stats_.items_skipped;  // duplicate section
    }
  }

  for (const SnapshotPolicy& sp : image.policies) {
    // Structural validation first: a snapshot section decodes under
    // its CRC, but restore still refuses shapes the engine could
    // crash on. Refusal means "skip" — the operator re-registers the
    // policy as on any cold start. DomainShape aborts on a zero dim,
    // so the cell count is checked (without overflow) before it.
    size_t cells = sp.dims.empty() ? 0 : 1;
    for (const size_t d : sp.dims) {
      cells = d != 0 && cells <= SIZE_MAX / d ? cells * d : 0;
    }
    if (sp.registered_name.empty() || cells == 0 ||
        cells != sp.num_vertices || sp.data.size() != cells) {
      ++snapshot_restore_stats_.items_skipped;
      continue;
    }
    DomainShape domain(sp.dims);
    Graph graph(sp.num_vertices);
    bool edges_ok = true;
    for (const Graph::Edge& e : sp.edges) {
      const bool u_ok = e.u < sp.num_vertices;
      const bool v_ok = e.v < sp.num_vertices || e.v == Graph::kBottom;
      if (!u_ok || !v_ok || e.u == e.v || graph.HasEdge(e.u, e.v)) {
        edges_ok = false;
        break;
      }
      graph.AddEdge(e.u, e.v);
    }
    if (!edges_ok || graph.num_edges() == 0) {
      ++snapshot_restore_stats_.items_skipped;
      continue;
    }
    Policy policy{sp.policy_name, std::move(domain), std::move(graph)};

    // Same sequence as RegisterPolicy, but claiming the persisted
    // version: ledger first (absorbing any journal-recovered spends
    // for this (name, version)), then publish. ClaimVersion advances
    // the registry counter past every restored version, so future
    // registrations can never alias a persisted ledger or cache key.
    Result<LedgerHandle> ledger = accountant_.OpenLedger(
        PolicyLedger(sp.registered_name, sp.version), sp.epsilon_cap);
    if (!ledger.ok()) {
      ++snapshot_restore_stats_.items_skipped;
      continue;
    }
    const Status registered =
        registry_.Register(sp.registered_name, std::move(policy), sp.data,
                           sp.epsilon_cap, sp.version, *ledger);
    if (!registered.ok()) {
      accountant_.CloseLedger(*ledger).Check();
      ++snapshot_restore_stats_.items_skipped;
      continue;
    }
    ++snapshot_restore_stats_.policies_restored;

    Result<std::shared_ptr<const RegisteredPolicy>> entry =
        registry_.Get(sp.registered_name);
    if (!entry.ok()) continue;
    const RegisteredPolicy& live = *entry.ValueOrDie();
    for (const SnapshotPlanHint& hint : sp.plan_hints) {
      if (hint.slot > 1) {
        ++snapshot_restore_stats_.items_skipped;
        continue;
      }
      PlanRequest plan_request;
      plan_request.policy = live.policy;
      plan_request.prefer_data_dependent = hint.slot == 1;
      if (hint.certified_stretch >= 1) {
        plan_request.certified_stretch = hint.certified_stretch;
      }
      Result<Plan> planned = PlanMechanism(std::move(plan_request));
      // The replanned strategy must be the one the hint was recorded
      // for — a kind mismatch means the planner (or the policy)
      // changed since the snapshot, and a stretch hint recorded for a
      // different strategy must not leak into this one.
      if (!planned.ok() || planned.ValueOrDie().kind != hint.kind) {
        ++snapshot_restore_stats_.items_skipped;
        continue;
      }
      Plan plan = std::move(planned).ValueOrDie();
      std::shared_ptr<const BlowfishMechanism::ReleasePrecompute> decoded;
      const auto persisted =
          transforms.find(ServingSlotKey(live.version, hint.slot));
      if (persisted != transforms.end()) {
        const SnapshotTransform& st = *persisted->second;
        decoded = plan.mechanism->DecodePrecompute(st.family, st.payload);
        transforms.erase(persisted);
        if (decoded != nullptr) {
          ++snapshot_restore_stats_.transforms_restored;
        } else {
          ++snapshot_restore_stats_.items_skipped;  // family/shape mismatch
        }
      }
      // Not persisted (no precompute split, or not serializable) or not
      // decodable: the builder rebuilds it now, so the restored slot is
      // warm.
      ServingState state = BuildServingState(live.name, live.data,
                                             std::move(plan),
                                             std::move(decoded));
      bool built = false;
      (void)live.slots[hint.slot].GetOrBuild(
          [&] { return Result<ServingState>(std::move(state)); }, &built);
      ++snapshot_restore_stats_.plans_restored;
    }
  }
  // Transforms no restored plan consumed: stale or unknown versions,
  // or slots whose plan hint was skipped.
  snapshot_restore_stats_.items_skipped += transforms.size();
}

Status QueryEngine::WriteSnapshot() {
  if (options_.snapshot_path.empty()) {
    return Status::InvalidArgument(
        "engine has no snapshot store (EngineOptions::snapshot_path unset)");
  }
  // Collect under brief registry shard locks (snapshots are immutable
  // shared_ptrs and built serving slots never change). Serialization
  // and file I/O then run with no engine lock held.
  SnapshotImage image;
  for (const std::shared_ptr<const RegisteredPolicy>& snapshot :
       registry_.Snapshots()) {
    const RegisteredPolicy& entry = *snapshot;
    SnapshotPolicy sp;
    sp.registered_name = entry.name;
    sp.policy_name = entry.policy.name;
    sp.version = entry.version;
    sp.epsilon_cap = entry.epsilon_cap;
    sp.dims = entry.policy.domain.dims();
    sp.num_vertices = entry.policy.graph.num_vertices();
    sp.edges = entry.policy.graph.edges();
    sp.data = entry.data;
    for (size_t slot = 0; slot < 2; ++slot) {
      const ServingState* state = entry.slots[slot].get();
      if (state == nullptr) continue;
      SnapshotPlanHint hint;
      hint.slot = static_cast<uint8_t>(slot);
      hint.kind = state->plan.kind;
      hint.certified_stretch = state->plan.stretch;
      sp.plan_hints.push_back(std::move(hint));
      const BlowfishMechanism::ReleasePrecompute* pre =
          state->precompute.get();
      if (pre == nullptr) continue;
      SnapshotTransform st;
      st.family = std::string(pre->SerialFamily());
      if (st.family.empty() || !pre->EncodePayload(&st.payload)) {
        continue;  // family not serializable; it will recompute on use
      }
      st.registered_name = entry.name;
      st.version = entry.version;
      st.data_dependent = slot == 1;
      image.transforms.push_back(std::move(st));
    }
    image.policies.push_back(std::move(sp));
  }

  return snapshot::Write(options_.snapshot_path, image);
}

std::string QueryEngine::SessionLedger(const std::string& session_id) {
  return "session/" + session_id;
}

// Ledger ids are versioned so a submit always charges the cap of the
// exact data snapshot it releases. '\x1f' cannot appear in registered
// names, so the prefix uniquely identifies one name (names may
// contain '/').
std::string QueryEngine::PolicyLedger(const std::string& name,
                                      uint64_t version) {
  return PolicyLedgerPrefix(name) + std::to_string(version);
}

std::string QueryEngine::PolicyLedgerPrefix(const std::string& name) {
  return "policy/" + name + '\x1f';
}

Status QueryEngine::RegisterPolicy(const std::string& name, Policy policy,
                                   Vector data, double epsilon_cap) {
  std::lock_guard<std::mutex> admin(admin_mu_);
  // The ledger must exist before any submit can see the version, so:
  // reserve the version, open its ledger, then publish (carrying the
  // ledger's handle so warm submits never resolve the id again).
  const uint64_t version = registry_.ReserveVersion();
  Result<LedgerHandle> ledger =
      accountant_.OpenLedger(PolicyLedger(name, version), epsilon_cap);
  if (!ledger.ok()) return ledger.status();
  const Status registered =
      registry_.Register(name, std::move(policy), std::move(data),
                         epsilon_cap, version, *ledger);
  if (!registered.ok()) {
    accountant_.CloseLedger(*ledger).Check();
    return registered;
  }
  if (options_.warm_plan_cache) {
    Result<std::shared_ptr<const RegisteredPolicy>> entry =
        registry_.Get(name);
    if (entry.ok()) {
      bool hit = false;
      // Best effort: an unplannable policy still registers, and the
      // submit path reports the planning error.
      (void)GetOrPlan(*entry.ValueOrDie(), /*prefer_data_dependent=*/false,
                      &hit);
    }
  }
  return Status::OK();
}

Status QueryEngine::ReplacePolicy(const std::string& name, Policy policy,
                                  Vector data, double epsilon_cap) {
  std::lock_guard<std::mutex> admin(admin_mu_);
  BF_RETURN_NOT_OK(registry_.Get(name).status());
  // Fresh data, fresh cap, fresh ledger id — opened before the swap
  // publishes the version, so no submit ever charges a missing
  // ledger. The superseded version's ledger stays open so in-flight
  // submits drain against *its* cap.
  const uint64_t version = registry_.ReserveVersion();
  Result<LedgerHandle> ledger =
      accountant_.OpenLedger(PolicyLedger(name, version), epsilon_cap);
  if (!ledger.ok()) return ledger.status();
  const Status replaced =
      registry_.Replace(name, std::move(policy), std::move(data),
                        epsilon_cap, version, *ledger);
  if (!replaced.ok()) {
    accountant_.CloseLedger(*ledger).Check();
    return replaced;
  }
  return Status::OK();
}

Status QueryEngine::UnregisterPolicy(const std::string& name) {
  std::lock_guard<std::mutex> admin(admin_mu_);
  BF_RETURN_NOT_OK(registry_.Unregister(name));
  accountant_.CloseLedgersWithPrefix(PolicyLedgerPrefix(name));
  return Status::OK();
}

bool QueryEngine::IsWarm(const QueryRequest& request) const {
  Result<std::shared_ptr<const RegisteredPolicy>> lookup =
      request.policy_handle.valid() ? registry_.Get(request.policy_handle)
                                    : registry_.Get(request.policy);
  // Unresolvable policy: the submit will fail with kNotFound before
  // any planning — nothing cold about it.
  if (!lookup.ok()) return true;
  const RegisteredPolicy& entry = *lookup.ValueOrDie();
  return entry.slots[request.prefer_data_dependent ? 1 : 0].get() != nullptr;
}

QueryEngine::PlanCacheStats QueryEngine::plan_cache_stats() const {
  PlanCacheStats stats;
  stats.hits = plan_hits_.load(std::memory_order_relaxed);
  stats.misses = plan_misses_.load(std::memory_order_relaxed);
  stats.entries = transform_cache_stats().entries;
  return stats;
}

QueryEngine::TransformCacheStats QueryEngine::transform_cache_stats() const {
  TransformCacheStats stats;
  for (const std::shared_ptr<const RegisteredPolicy>& entry :
       registry_.Snapshots()) {
    for (const ServingSlot& slot : entry->slots) {
      const ServingState* state = slot.get();
      if (state == nullptr) continue;
      ++stats.entries;
      if (state->precompute != nullptr) {
        stats.bytes += state->precompute->ApproxBytes();
      }
    }
  }
  return stats;
}

Status QueryEngine::OpenSession(const std::string& session_id,
                                double epsilon_budget) {
  if (session_id.empty()) {
    return Status::InvalidArgument("session id must be non-empty");
  }
  Result<LedgerHandle> handle =
      accountant_.OpenLedger(SessionLedger(session_id), epsilon_budget);
  if (!handle.ok()) return handle.status();
  std::unique_lock<std::shared_mutex> lock(sessions_mu_);
  sessions_[session_id] = *handle;
  // Tenant class for handle-only submits (which carry no session
  // string to derive it from at record time).
  session_tenants_[handle->bits()] = std::string(TenantClassOf(session_id));
  return Status::OK();
}

Status QueryEngine::CloseSession(const std::string& session_id) {
  LedgerHandle handle;
  {
    std::unique_lock<std::shared_mutex> lock(sessions_mu_);
    auto it = sessions_.find(session_id);
    if (it == sessions_.end()) {
      return Status::NotFound("session '" + session_id + "' is not open");
    }
    handle = it->second;
    sessions_.erase(it);
    session_tenants_.erase(handle.bits());
  }
  return accountant_.CloseLedger(handle);
}

Result<LedgerHandle> QueryEngine::ResolveSession(
    const std::string& session_id) const {
  std::shared_lock<std::shared_mutex> lock(sessions_mu_);
  auto it = sessions_.find(session_id);
  if (it == sessions_.end()) {
    return Status::NotFound("session '" + session_id + "' is not open");
  }
  return it->second;
}

Result<const ServingState*> QueryEngine::GetOrPlan(
    const RegisteredPolicy& entry, bool prefer_data_dependent,
    bool* cache_hit) {
  bool built = false;
  Result<const ServingState*> state =
      entry.slots[prefer_data_dependent ? 1 : 0].GetOrBuild(
          [&]() -> Result<ServingState> {
            Result<Plan> planned =
                PlanMechanism(PlanRequest{entry.policy, prefer_data_dependent});
            if (!planned.ok()) return planned.status();
            return BuildServingState(entry.name, entry.data,
                                     std::move(planned).ValueOrDie());
          },
          &built);
  (built ? plan_misses_ : plan_hits_).fetch_add(1, std::memory_order_relaxed);
  *cache_hit = !built;
  return state;
}

/// The noisy release one admission paid for. Everything after it is
/// post-processing (Thm 4.1), so the entry points differ only in how
/// they pull answers out of it.
struct QueryEngine::Draw {
  /// θ>=2 grid fast path: this submit's slab/line releases, answered
  /// by per-query reconstruction. Null on the histogram paths.
  std::unique_ptr<GridThetaRangeMechanism::RangeCursor> ranges;
  /// Histogram paths: the noisy estimate x̂ (domain-sized, not
  /// workload-sized).
  Vector estimate;
  PrivacyGuarantee guarantee;
};

QueryEngine::Draw QueryEngine::DrawRelease(const QueryRequest& request,
                                           const Admission& admission) {
  const RegisteredPolicy& entry = *admission.entry;
  const ServingState& state = *admission.state;
  const Plan& plan = state.plan;
  // Private random stream per submit; immutable plan, caller-side rng.
  // With a fixed seed the n-th admission draws the n-th stream, whether
  // its answers are materialized or streamed.
  const uint64_t stream = submit_counter_.fetch_add(1) + 1;
  // dp-lint: allow(charge-before-noise) the one noise-draw dispatch; every caller holds an Admission whose Charge already succeeded
  Rng rng(seed_ ^ (kStreamStep * stream));

  Draw draw;
  // The fast path reconstructs in the policy's own grid geometry, so
  // the request's domain must match the policy's shape exactly, not
  // just its flattened size.
  if (request.ranges.has_value() && plan.range_mechanism != nullptr &&
      request.ranges->domain().dims() == entry.policy.domain.dims()) {
    // Noise is drawn once for this submit's slab releases and only the
    // queried ranges are reconstructed, each from the edges crossing
    // its border — O(perimeter·θ²) per query, added in edge order so
    // the bits equal a full edge scan's. range_mechanism
    // comes only with the grid adapter, whose precompute is always a
    // slab transform, and every built slot holds its precompute.
    const auto* slab =
        dynamic_cast<const GridThetaHistogramAdapter::SlabPrecompute*>(
            state.precompute.get());
    BF_CHECK(slab != nullptr);
    draw.ranges = plan.range_mechanism->BeginRanges(slab->xg, slab->n,
                                                    request.epsilon, &rng);
    draw.guarantee = plan.range_mechanism->Guarantee(request.epsilon);
  } else {
    draw.estimate =
        state.precompute != nullptr
            ? plan.mechanism->RunPrecomputed(*state.precompute,
                                             request.epsilon, &rng)
            : plan.mechanism->Run(entry.data, request.epsilon, &rng);
    draw.guarantee = plan.mechanism->Guarantee(request.epsilon);
  }
  MaybeCheckpointJournal();
  return draw;
}

QueryResult QueryEngine::Materialize(const QueryRequest& request,
                                     const Admission& admission) {
  Draw draw = DrawRelease(request, admission);
  QueryResult result;
  if (draw.ranges != nullptr) {
    draw.ranges->AnswerNext(*request.ranges, request.ranges->num_queries(),
                            &result.answers);
  } else if (request.ranges.has_value()) {
    // Range workloads on histogram-release plans are answered from x̂
    // with a summed-area table; W is never materialized.
    result.answers = request.ranges->Answer(draw.estimate);
  } else {
    result.answers = request.workload.Answer(draw.estimate);
  }
  result.plan_kind = admission.state->plan.kind;
  result.plan_cache_hit = admission.cache_hit;
  result.range_fast_path = draw.ranges != nullptr;
  result.guarantee = std::move(draw.guarantee);
  // Balances observed atomically inside the charge — a ledger closed
  // right after still reports the value this submit actually saw.
  result.session_remaining = admission.remaining[0];
  result.policy_remaining = admission.remaining[1];
  return result;
}

namespace {

/// Streams the θ>=2 grid fast path: the core cursor holds this
/// submit's noisy releases; the snapshot keeps its serving slot's
/// mechanism (and so the cursor's back-pointer) alive.
class GridStreamCursor : public ChunkCursor {
 public:
  GridStreamCursor(std::shared_ptr<const RegisteredPolicy> entry,
                   RangeWorkload workload,
                   std::unique_ptr<GridThetaRangeMechanism::RangeCursor> core,
                   size_t chunk_queries)
      : entry_(std::move(entry)),
        workload_(std::move(workload)),
        core_(std::move(core)),
        chunk_queries_(chunk_queries) {}

  std::optional<StreamChunk> NextChunk() override {
    if (core_->position() >= workload_.num_queries()) return std::nullopt;
    StreamChunk chunk;
    chunk.offset = core_->position();
    core_->AnswerNext(workload_, chunk_queries_, &chunk.values);
    return chunk;
  }
  size_t total_answers() const override { return workload_.num_queries(); }

 private:
  std::shared_ptr<const RegisteredPolicy> entry_;
  RangeWorkload workload_;
  std::unique_ptr<GridThetaRangeMechanism::RangeCursor> core_;
  size_t chunk_queries_;
};

/// Streams range answers off a released histogram estimate: the
/// summed-area table is built once, each chunk answers a block of
/// queries from it (identical arithmetic to RangeWorkload::Answer).
class SatStreamCursor : public ChunkCursor {
 public:
  SatStreamCursor(RangeWorkload workload, const Vector& estimate,
                  size_t chunk_queries)
      : workload_(std::move(workload)),
        answerer_(workload_.domain(), estimate),
        chunk_queries_(chunk_queries) {}

  std::optional<StreamChunk> NextChunk() override {
    if (next_ >= workload_.num_queries()) return std::nullopt;
    const size_t end =
        std::min(next_ + chunk_queries_, workload_.num_queries());
    StreamChunk chunk;
    chunk.offset = next_;
    chunk.values.reserve(end - next_);
    for (; next_ < end; ++next_) {
      chunk.values.push_back(answerer_.Answer(workload_.queries()[next_]));
    }
    return chunk;
  }
  size_t total_answers() const override { return workload_.num_queries(); }

 private:
  RangeWorkload workload_;
  SummedAreaAnswerer answerer_;
  size_t chunk_queries_;
  size_t next_ = 0;
};

/// Streams a dense `W x̂` in row blocks: each row is the same CSR dot
/// MultiplyVector performs, so chunk concatenation is bit-identical
/// to the materialized product.
class DenseStreamCursor : public ChunkCursor {
 public:
  DenseStreamCursor(Workload workload, Vector estimate, size_t chunk_queries)
      : workload_(std::move(workload)),
        estimate_(std::move(estimate)),
        chunk_queries_(chunk_queries) {}

  std::optional<StreamChunk> NextChunk() override {
    if (next_ >= workload_.num_queries()) return std::nullopt;
    const size_t end =
        std::min(next_ + chunk_queries_, workload_.num_queries());
    StreamChunk chunk;
    chunk.offset = next_;
    chunk.values.reserve(end - next_);
    for (; next_ < end; ++next_) {
      chunk.values.push_back(workload_.matrix().RowDot(next_, estimate_));
    }
    return chunk;
  }
  size_t total_answers() const override { return workload_.num_queries(); }

 private:
  Workload workload_;
  Vector estimate_;
  size_t chunk_queries_;
  size_t next_ = 0;
};

}  // namespace

Result<std::shared_ptr<ResultStream>> QueryEngine::SubmitStream(
    QueryRequest request, const StreamOptions& options) {
  m_streams_->Add(1);
  RequestTrace trace = telemetry_.MaybeStartTrace();
  std::chrono::steady_clock::time_point start;
  if (obs_enabled_) start = std::chrono::steady_clock::now();
  Result<Admission> admitted = Admit(request, &trace);
  const uint32_t admit_us =
      obs_enabled_ ? Micros(std::chrono::steady_clock::now() - start) : 0;
  if (!admitted.ok()) {
    RecordRequestObs(request, nullptr, admitted.status(),
                     /*charged_epsilon=*/0.0, admit_us, admit_us);
    telemetry_.FinishTrace(&trace, false);
    return admitted.status();
  }
  const Admission admission = std::move(admitted).ValueOrDie();
  // Recorded at admission — ε is spent here, and the request's
  // workload is about to move into the cursor. The noise draw below
  // lands in the release-stage histogram instead.
  RecordRequestObs(request, admission.entry.get(), Status::OK(),
                   request.epsilon, admit_us, admit_us);
  StreamHeader header;
  std::unique_ptr<ChunkCursor> cursor;
  {
    // The release stage covers the noise draw and the cursor's set-up;
    // chunk production afterwards is pure post-processing on the
    // consumer's thread.
    TraceStageTimer timer(&trace, TraceStage::kRelease);
    Draw draw = DrawRelease(request, admission);
    const size_t chunk_queries = std::max<size_t>(1, options.chunk_queries);
    if (draw.ranges != nullptr) {
      cursor = std::make_unique<GridStreamCursor>(
          admission.entry, std::move(*request.ranges), std::move(draw.ranges),
          chunk_queries);
      header.range_fast_path = true;
    } else if (request.ranges.has_value()) {
      cursor = std::make_unique<SatStreamCursor>(std::move(*request.ranges),
                                                 draw.estimate, chunk_queries);
    } else {
      cursor = std::make_unique<DenseStreamCursor>(
          std::move(request.workload), std::move(draw.estimate),
          chunk_queries);
    }
    header.guarantee = std::move(draw.guarantee);
  }
  telemetry_.FinishTrace(&trace, true);
  header.plan_kind = admission.state->plan.kind;
  header.plan_cache_hit = admission.cache_hit;
  header.session_remaining = admission.remaining[0];
  header.policy_remaining = admission.remaining[1];
  header.total_answers = cursor->total_answers();
  return std::shared_ptr<ResultStream>(
      new ResultStream(std::move(cursor), std::move(header)));
}

Status QueryEngine::Resolve(const QueryRequest& request, RequestTrace* trace,
                            Admission* admission) {
  // Fail closed before any work: an engine whose journal failed to
  // open must refuse admission outright — serving charges it cannot
  // journal would silently void the durability guarantee. (Runtime
  // poisoning is enforced inside Charge by the journal itself.)
  if (!journal_error_.ok()) return journal_error_;

  size_t domain = 0;
  {
    TraceStageTimer timer(trace, TraceStage::kValidate);
    BF_RETURN_NOT_OK(ValidateShape(request, &domain));
  }

  TraceStageTimer timer(trace, TraceStage::kResolve);
  // Session first: a submit against an unknown session must not plan.
  // This is a resolution, not a budget probe — the charge is the
  // single point that touches the ledger.
  if (request.session_handle.valid()) {
    admission->session_ledger = request.session_handle;
  } else {
    Result<LedgerHandle> session = ResolveSession(request.session);
    if (!session.ok()) return session.status();
    admission->session_ledger = *session;
  }

  Result<std::shared_ptr<const RegisteredPolicy>> lookup =
      request.policy_handle.valid() ? registry_.Get(request.policy_handle)
                                    : registry_.Get(request.policy);
  if (!lookup.ok()) return lookup.status();
  admission->entry = std::move(lookup).ValueOrDie();
  return CheckDomain(request, domain, *admission->entry);
}

Result<QueryEngine::Admission> QueryEngine::Admit(const QueryRequest& request,
                                                  RequestTrace* trace) {
  Admission admission;
  BF_RETURN_NOT_OK(Resolve(request, trace, &admission));

  // Plan first (data-independent, costs no budget), charge second, and
  // only then draw noise: a refused query releases nothing.
  {
    TraceStageTimer timer(trace, TraceStage::kPlan);
    Result<const ServingState*> state = GetOrPlan(
        *admission.entry, request.prefer_data_dependent, &admission.cache_hit);
    if (!state.ok()) return state.status();
    admission.state = *state;
  }

  {
    TraceStageTimer timer(trace, TraceStage::kCharge);
    const LedgerHandle ledgers[2] = {admission.session_ledger,
                                     admission.entry->ledger};
    ChargeTag tag;
    tag.workload = WorkloadName(request);
    tag.context = admission.state->plan.audit_context;
    const Status charged = accountant_.Charge(ledgers, 2, request.epsilon,
                                              tag, admission.remaining);
    if (!charged.ok()) {
      if (charged.code() == StatusCode::kOutOfRange) {
        m_refused_budget_->Add(1);
      }
      return charged;
    }
    m_eps_charged_->Add(request.epsilon);
  }
  return admission;
}

Result<QueryResult> QueryEngine::Submit(const QueryRequest& request) {
  RequestTrace trace = telemetry_.MaybeStartTrace();
  Result<QueryResult> result = Submit(request, &trace);
  telemetry_.FinishTrace(&trace, result.ok());
  return result;
}

Result<QueryResult> QueryEngine::Submit(const QueryRequest& request,
                                        RequestTrace* trace) {
  const auto start = std::chrono::steady_clock::now();
  m_submits_->Add(1);
  Result<Admission> admitted = Admit(request, trace);
  // One extra clock read, only when the obs plane wants the admission
  // split for flight records.
  const uint32_t admit_us =
      obs_enabled_ ? Micros(std::chrono::steady_clock::now() - start) : 0;
  if (!admitted.ok()) {
    m_failures_->Add(1);
    m_submit_latency_->Record(std::chrono::duration<double, std::milli>(
                                  std::chrono::steady_clock::now() - start)
                                  .count());
    RecordRequestObs(request, nullptr, admitted.status(),
                     /*charged_epsilon=*/0.0, admit_us, admit_us);
    return admitted.status();
  }
  const Admission admission = std::move(admitted).ValueOrDie();

  QueryResult result;
  {
    TraceStageTimer timer(trace, TraceStage::kRelease);
    result = Materialize(request, admission);
  }
  const auto end = std::chrono::steady_clock::now();
  m_submit_latency_->Record(
      std::chrono::duration<double, std::milli>(end - start).count());
  RecordRequestObs(request, admission.entry.get(), Status::OK(),
                   request.epsilon, admit_us, Micros(end - start));
  return result;
}

std::vector<Result<QueryResult>> QueryEngine::SubmitBatch(
    const std::vector<QueryRequest>& batch, const BatchOptions& options) {
  m_batches_->Add(1);
  m_batch_entries_->Add(batch.size());
  std::vector<Result<QueryResult>> results(
      batch.size(),
      Result<QueryResult>(Status::Internal("batch entry not processed")));

  // Group by (session ledger, policy snapshot, planner options): the
  // plan lookup and the budget charge happen once per group instead of
  // once per entry. A group's Admission is what Admit would have built
  // for one Submit, with the group's combined charge.
  struct Group {
    Admission admission;
    bool prefer_data_dependent = false;
    std::vector<size_t> indices;
    double eps_sum = 0.0;
    double eps_max = 0.0;
  };
  std::vector<Group> groups;

  for (size_t i = 0; i < batch.size(); ++i) {
    const QueryRequest& request = batch[i];
    Admission resolved;
    const Status status = Resolve(request, /*trace=*/nullptr, &resolved);
    if (!status.ok()) {
      results[i] = status;
      RecordRequestObs(request, resolved.entry.get(), status, 0.0, 0, 0);
      continue;
    }
    Group* group = nullptr;
    for (Group& g : groups) {
      if (g.admission.session_ledger == resolved.session_ledger &&
          g.admission.entry == resolved.entry &&
          g.prefer_data_dependent == request.prefer_data_dependent) {
        group = &g;
        break;
      }
    }
    if (group == nullptr) {
      groups.emplace_back();
      group = &groups.back();
      group->admission = std::move(resolved);
      group->prefer_data_dependent = request.prefer_data_dependent;
    }
    group->indices.push_back(i);
    // dp-lint: allow(epsilon-confinement) composition pre-aggregation; the sum/max only shapes the batch charge handed to BudgetAccountant::Charge
    group->eps_sum += request.epsilon;
    group->eps_max = std::max(group->eps_max, request.epsilon);
  }

  for (Group& group : groups) {
    Admission& admission = group.admission;
    const RegisteredPolicy* entry = admission.entry.get();
    Result<const ServingState*> state_result =
        GetOrPlan(*entry, group.prefer_data_dependent, &admission.cache_hit);
    if (!state_result.ok()) {
      for (size_t i : group.indices) {
        results[i] = state_result.status();
        RecordRequestObs(batch[i], entry, state_result.status(), 0.0, 0, 0);
      }
      continue;
    }
    admission.state = *state_result;

    const size_t m = group.indices.size();
    const double epsilon =
        options.disjoint_domains ? group.eps_max : group.eps_sum;
    const std::string& first_name = WorkloadName(batch[group.indices.front()]);
    std::string batch_label;
    ChargeTag tag;
    if (m == 1) {
      tag.workload = first_name;
    } else {
      batch_label =
          "batch[" + std::to_string(m) + "] incl. " + first_name;
      tag.workload = batch_label;
    }
    tag.context = admission.state->plan.audit_context;
    tag.parallel_count =
        options.disjoint_domains ? static_cast<uint32_t>(m) : 1;

    const LedgerHandle ledgers[2] = {admission.session_ledger, entry->ledger};
    const Status charged =
        accountant_.Charge(ledgers, 2, epsilon, tag, admission.remaining);
    if (!charged.ok()) {
      if (charged.code() == StatusCode::kOutOfRange &&
          !options.disjoint_domains && m > 1) {
        // The combined sequential charge does not fit. Degrade to
        // per-entry charges in batch order so the budget admits
        // exactly the prefix individual Submits would have admitted.
        // (Each retried entry counts and audits as its own Submit.)
        for (size_t i : group.indices) results[i] = Submit(batch[i]);
      } else {
        // A disjoint-domain charge is indivisible (parallel
        // composition covers the whole set or none); resolution
        // failures apply to every entry alike.
        if (charged.code() == StatusCode::kOutOfRange) {
          m_refused_budget_->Add(1);
        }
        for (size_t i : group.indices) {
          results[i] = charged;
          RecordRequestObs(batch[i], entry, charged, 0.0, 0, 0);
        }
      }
      continue;
    }
    m_eps_charged_->Add(epsilon);
    bool group_charge_recorded = false;
    for (size_t i : group.indices) {
      results[i] = Materialize(batch[i], admission);
      // ε attribution matches what the ledgers saw: each entry's own
      // ask under sequential composition (they sum to the charge), the
      // single max-ε charge once per group under parallel composition.
      double entry_epsilon = batch[i].epsilon;
      if (options.disjoint_domains) {
        entry_epsilon = group_charge_recorded ? 0.0 : epsilon;
        group_charge_recorded = true;
      }
      RecordRequestObs(batch[i], entry, Status::OK(), entry_epsilon, 0, 0);
    }
  }
  return results;
}

Result<PolicyMetadata> QueryEngine::GetPolicyMetadata(
    const std::string& name) const {
  Result<std::shared_ptr<const RegisteredPolicy>> entry =
      registry_.Get(name);
  if (!entry.ok()) return entry.status();
  return entry.ValueOrDie()->metadata;
}

Result<double> QueryEngine::SessionRemaining(
    const std::string& session_id) const {
  return accountant_.Remaining(SessionLedger(session_id));
}

Result<double> QueryEngine::PolicyRemaining(const std::string& name) const {
  // The current version's cap; superseded versions only drain.
  Result<std::shared_ptr<const RegisteredPolicy>> entry =
      registry_.Get(name);
  if (!entry.ok()) return entry.status();
  return accountant_.Remaining(entry.ValueOrDie()->ledger);
}

Result<std::string> QueryEngine::SessionAudit(
    const std::string& session_id) const {
  return accountant_.Audit(SessionLedger(session_id));
}

}  // namespace blowfish
