// The policy-aware query engine: the serving layer above the planner.
//
//   PolicyRegistry   named policies + the data they protect + ε caps
//                    (sharded by name hash; handles skip the hash);
//                    each snapshot carries one serving slot per
//                    planner option holding its plan and noise-free
//                    release transform, built once on first contact
//   BudgetAccountant per-policy and per-session ε ledgers (sharded by
//                    id hash), charged atomically before any noise is
//                    drawn
//   QueryEngine      Submit(): look up policy -> get-or-plan ->
//                    charge budget -> dispatch to the cheapest
//                    execution path the plan supports
//
// The warm hot path is handle-based. OpenSession / ResolveSession and
// ResolvePolicy hand out integer handles; a QueryRequest carrying them
// submits with zero string construction and zero map hashing: the
// session handle indexes its accountant shard directly, the policy
// handle indexes its registry shard, the plan comes from the snapshot's
// own serving slot (one atomic load yields both the plan and the
// noise-free release precompute — database transform, component
// totals, for general graphs a conjugate-gradient solve), and the
// charge records a structured audit tag (shared context string, no
// formatting). String-id requests still work and pay only one hash
// per lookup.
//
// Caching. The paper's transformational equivalence makes every
// costly serving artifact a function of one snapshot and one planner
// option: the strategy behind f_G(W) depends only on the policy graph
// G, the transformed database g_G(x) only on G and the snapshot's
// data. So both live in the snapshot's ServingSlot (see
// policy_registry.h) and nowhere else: a cold miss builds them under
// the slot's own mutex (single flight per (policy, version, option)),
// and Replace/Unregister need no invalidation — the slots die with
// the superseded snapshot once its last in-flight reader lets go.
//
// Execution dispatch. A dense workload is answered as W x̂ from the
// plan's full-histogram release. An implicit range workload on a θ>=2
// grid policy instead routes to GridThetaRangeMechanism's per-query
// slab reconstruction (noise drawn once per submit, only the queried
// ranges rebuilt from the edges crossing their border — O(perimeter·θ²)
// per query, summed in edge order so the bits match a full edge scan);
// on any other policy it is answered from the histogram release via a
// summed-area table. Both paths charge the same ε and state the same
// guarantee.
// Submit, SubmitBatch and SubmitStream share one resolve step and one
// noise-draw dispatch; they differ only in how they pull answers out
// of the drawn release (all at once, or chunk by chunk).
//
// Privacy semantics. Every submit is one sequential-composition step:
// it spends its ε on the policy's global cap (the data owner's bound
// across *all* sessions, DPolicy-style release accounting) and on the
// caller's session grant. A submit whose ε no ledger can afford fails
// with kOutOfRange *before* the mechanism runs, so refused queries
// leak nothing. Answers are post-processing of the submit's noisy
// releases and are free: one release answers the whole workload.
// SubmitBatch groups requests by (session, policy) and charges each
// group once — Σε under sequential composition, or max ε when the
// caller declares the batch's workloads disjoint-domain
// (BatchOptions::disjoint_domains, the paper's parallel-composition
// rule: one neighbor step touches one part).
//
// Concurrency. QueryEngine is the one request path and owns no
// threads: callers submit from their own. Registry and accountant are
// sharded (see their headers), plans and precomputes are immutable
// after construction with caller-provided randomness — each submit
// derives a private Rng stream from the engine seed and a submit
// counter, so concurrent submits are reproducible-in-aggregate and
// never share generator state. A cold plan does not block warm
// submits: a warm submit reads its serving slot with one acquire load,
// and a cold build is single-flight on that slot's own mutex, so only
// same-slot callers wait for it (and share its result).

#ifndef BLOWFISH_ENGINE_QUERY_ENGINE_H_
#define BLOWFISH_ENGINE_QUERY_ENGINE_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <shared_mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/thread_annotations.h"
#include "engine/budget_accountant.h"
#include "engine/obs_server.h"
#include "engine/policy_registry.h"
#include "engine/stream.h"
#include "engine/telemetry.h"
#include "workload/workload.h"

namespace blowfish {

struct EngineOptions {
  /// Root seed for the engine's per-submit random streams. Leave
  /// unset in deployments: a predictable seed lets an adversary
  /// regenerate the noise and undo the privacy guarantee, so the
  /// default draws fresh entropy (Rng::EntropySeed) per engine. Set
  /// it only for reproducible tests and benchmarks.
  std::optional<uint64_t> seed;
  /// Plan (and precompute the release transform) at registration time
  /// so the first submit is already warm.
  bool warm_plan_cache = false;

  // ---- telemetry knobs (see engine/telemetry.h) ----

  /// Fraction of submits carrying a full per-stage trace (validate →
  /// resolve → plan → charge → release). 0 (the default) turns the
  /// sampler into a single load — no clocks, no allocation on the hot
  /// path; small rates (0.01) are cheap enough to stay on in
  /// production.
  double trace_sample_rate = 0.0;
  /// Events retained by the ε-audit ring (spends and refusals, with
  /// post-charge balances). 0 disables audit capture entirely.
  size_t audit_log_capacity = 4096;

  // ---- operability-plane knobs (see engine/obs_server.h) ----

  /// TCP port of the in-process scrape server (/metrics, /varz,
  /// /healthz, /flightz, /auditz, /burnz on 127.0.0.1). -1 (default)
  /// disables it; 0 binds an ephemeral port (tests/benches —
  /// obs_server()->port() reports what was bound). A bind failure
  /// never fails the engine: obs_server() stays null and obs_error()
  /// carries the reason.
  int obs_port = -1;
  /// Distinct (policy, tenant) label tuples each per-tenant metric
  /// family retains before collapsing new tuples into one `other`
  /// series (see MetricFamily — a hostile tenant minting fresh ids
  /// cannot explode exposition cardinality). 0 disables per-tenant
  /// labeled metrics entirely.
  size_t tenant_metrics_capacity = 64;
  /// Requests retained by the always-on flight recorder (rounded up
  /// to a power of two; independent of trace_sample_rate). 0 disables.
  size_t flight_recorder_capacity = 4096;
  /// When set, the first incident (a durability refusal, or a refusal
  /// burst — see the burst knobs) dumps the flight ring to this file
  /// as JSONL, while it still holds the pre-incident traffic.
  std::string flight_dump_path;
  /// Incident detector: fire when `flight_burst_refusals` budget
  /// refusals land within `flight_burst_window` consecutive records.
  uint32_t flight_burst_window = 256;
  uint32_t flight_burst_refusals = 32;
  /// ε burn-rate alerting (SRE-style two-window burn, evaluated per
  /// ledger inside the charge — see BurnRateConfig). On by default:
  /// the evaluation is O(1) arithmetic under locks the charge already
  /// holds.
  bool burn_alerts_enabled = true;
  double burn_fast_window_s = 60.0;
  double burn_slow_window_s = 600.0;
  /// Alert when both windows' spend rates project ledger exhaustion
  /// within this horizon.
  double burn_alert_horizon_s = 600.0;
  /// Test seam: burn-rate clock (wall micros). Null uses the system
  /// clock. Lets a test script an exact spend schedule and pin the
  /// exact charge on which an alert trips.
  std::function<int64_t()> burn_clock_micros;

  // ---- durability knobs (see engine/ledger_journal.h) ----

  /// Directory of the crash-safe ε-spend journal. Empty (default)
  /// keeps the historical in-memory-only accounting. Non-empty:
  /// recovery runs at engine construction (replaying the journal to
  /// bit-exact ledger balances; ledgers re-opened under recovered ids
  /// resume pre-crash spends), every charge is write-ahead journaled
  /// and fsync'd before it commits, and a charge whose record cannot
  /// be made durable is refused with kUnavailableDurability — the
  /// engine fails closed. Prefer QueryEngine::Open over the plain
  /// constructor so recovery failures surface as a Status.
  std::string journal_path;
  /// Active-segment size triggering journal rotation + checkpoint.
  size_t journal_segment_bytes = 4u << 20;
  /// Bounded retry budget for transient journal I/O errors.
  int journal_io_retries = 4;
  /// Base backoff between journal I/O retries (deterministic jitter).
  uint32_t journal_retry_backoff_micros = 200;
  /// Recovery: truncate a crash-torn final record instead of refusing
  /// startup. Mid-journal corruption and seq gaps refuse regardless.
  bool journal_allow_torn_tail = false;
  /// Checkpoint + compact the journal automatically when it flags
  /// itself due (runs after a submit, under all accountant shard
  /// locks). Off: the caller drives CheckpointJournal() itself.
  bool journal_auto_checkpoint = true;
  /// Test seam: pluggable journal I/O (fault injection; not owned).
  /// Null uses POSIX.
  JournalIo* journal_io = nullptr;

  // ---- snapshot-store knobs (see engine/snapshot_store.h) ----

  /// Directory of the warm-restart snapshot store. Empty (default)
  /// disables it. Non-empty: construction maps the newest valid
  /// snapshot generation and pre-populates the registry and the
  /// snapshots' serving slots, so previously-warm requests
  /// readmit without replanning or recomputing — bit-identically,
  /// since transforms round trip as IEEE bit patterns. Strictly
  /// fail-open: a missing or corrupt snapshot means a cold start
  /// (older generations are tried first), never a refusal — unlike
  /// the journal, the snapshot carries no privacy state, only
  /// recomputable caches. WriteSnapshot() persists the next
  /// generation.
  std::string snapshot_path;
};

/// \brief One query: a linear workload against a registered policy,
/// spending `epsilon` from the session's and the policy's budgets.
///
/// The workload is carried either densely (`workload`, an explicit
/// q×k matrix) or implicitly (`ranges`, axis-aligned range queries) —
/// exactly one of the two. Range requests against a θ>=2 grid policy
/// take the engine's fast path: per-query slab reconstruction instead
/// of a full k×k histogram release, with identical privacy semantics
/// and budget charges. Range requests against any other policy are
/// answered from the policy's histogram release via a summed-area
/// table — the dense matrix is never materialized either way.
///
/// `session_handle` / `policy_handle`, when valid, replace the string
/// lookups entirely (the strings are then ignored): a warm submit
/// carrying both performs no string construction or map hashing.
struct QueryRequest {
  std::string session;
  std::string policy;
  /// From OpenSession/ResolveSession; overrides `session` when valid.
  LedgerHandle session_handle;
  /// From ResolvePolicy; overrides `policy` when valid. Survives
  /// ReplacePolicy (it names the binding), dies on UnregisterPolicy.
  PolicyHandle policy_handle;
  Workload workload;
  std::optional<RangeWorkload> ranges;
  double epsilon = 0.0;
  /// Planner option: prefer data-dependent estimation (DAWA).
  bool prefer_data_dependent = false;
};

/// \brief A successful release.
struct QueryResult {
  Vector answers;             ///< one entry per workload query
  std::string plan_kind;      ///< strategy family the planner chose
  bool plan_cache_hit = false;
  /// True when the answers came from per-query range reconstruction
  /// (θ>=2 grid fast path) rather than a full-histogram release.
  bool range_fast_path = false;
  PrivacyGuarantee guarantee;  ///< stated for this release's ε
  /// Post-charge ledger balances, read atomically inside the charge
  /// itself (no later lock round-trip). nullopt only on paths that
  /// could not observe the ledger (never for a successful submit);
  /// an exhausted ledger reports 0.0.
  std::optional<double> session_remaining;
  std::optional<double> policy_remaining;
};

/// \brief Batch-wide submission options.
struct BatchOptions {
  /// The caller declares that the batch's workloads operate on
  /// disjoint sub-domains of each policy's histogram. Each
  /// (session, policy) group is then charged max(ε_i) once — the
  /// parallel-composition rule — instead of Σε_i. The engine cannot
  /// verify the disjointness claim; stating it falsely voids the
  /// stated guarantee, exactly as in the paper's Theorem 5.4 usage.
  bool disjoint_domains = false;
};

/// \brief Concurrent facade over registry + accountant.
class QueryEngine {
 public:
  explicit QueryEngine(EngineOptions options = EngineOptions());

  /// Constructs an engine, surfacing journal recovery failure as a
  /// Status. The plain constructor cannot report one, so it instead
  /// leaves the engine *poisoned*: every request refuses with the
  /// recovery error and no charge is ever admitted unjournaled. Use
  /// this factory whenever `options.journal_path` is set.
  static Result<std::unique_ptr<QueryEngine>> Open(EngineOptions options);

  /// OK when charges can be made durable: no journal configured, or a
  /// journal that opened cleanly and is not poisoned. The recovery
  /// error (construction) or the sticky kUnavailableDurability
  /// (poisoned at runtime) otherwise.
  Status durability_health() const;

  /// Forces a journal checkpoint + compaction now (snapshots every
  /// ledger under all accountant shard locks). kInvalidArgument when
  /// the engine has no journal.
  Status CheckpointJournal();

  /// The crash-safe spend journal, or null when durability is off
  /// (stats and tests).
  const LedgerJournal* journal() const { return journal_.get(); }

  /// Serializes the current registry and its serving slots (plan
  /// hints + transforms) as the next snapshot generation under
  /// EngineOptions::snapshot_path (atomic: write-temp + fsync +
  /// rename + directory fsync; a crash mid-write never touches the
  /// previous generation). State is collected under brief registry
  /// shard locks; serialization and I/O run with no engine lock held.
  /// kInvalidArgument when no snapshot path is configured.
  Status WriteSnapshot();

  /// \brief What construction restored from the snapshot store (all
  /// zeros / false when no snapshot was configured or none was
  /// valid). Written once during construction, immutable after.
  struct SnapshotRestoreStats {
    bool loaded = false;          ///< a valid generation was mapped
    uint64_t generation = 0;      ///< its generation number
    size_t policies_restored = 0;
    size_t plans_restored = 0;       ///< serving slots pre-populated
    size_t transforms_restored = 0;  ///< precomputes decoded, not rebuilt
    /// Sections present in the snapshot but not restored (stale
    /// version, failed validation, unknown family) — each one is a
    /// fail-open fallback to cold compute, not an error.
    size_t items_skipped = 0;
    /// Corrupt/unreadable generation files that were passed over
    /// ("file: reason"), newest first.
    std::vector<std::string> skipped_files;
  };
  const SnapshotRestoreStats& snapshot_restore_stats() const {
    return snapshot_restore_stats_;
  }

  /// Publishes `policy` and the histogram it protects; `epsilon_cap`
  /// bounds total spend across all sessions for the life of the entry.
  Status RegisterPolicy(const std::string& name, Policy policy, Vector data,
                        double epsilon_cap);

  /// Swaps data/policy under an existing name: the new entry starts
  /// with cold serving slots and its own fresh ε ledger (new
  /// data is a fresh privacy resource). Budget ledgers are keyed by
  /// (name, version), so in-flight submits that snapshotted the old
  /// entry drain against the *old* data's cap — a replace can never
  /// let the new data's cap absorb old-data releases or vice versa.
  /// Superseded ledgers stay open until the name is unregistered.
  /// Policy handles survive and see the new entry.
  Status ReplacePolicy(const std::string& name, Policy policy, Vector data,
                       double epsilon_cap);

  /// Unpublishes a policy and closes its budget ledgers. New submits
  /// get kNotFound; an in-flight submit holding a snapshot keeps its
  /// (immutable) policy and data, but fails with kNotFound if it has
  /// not yet charged the budget when the ledgers close — it never
  /// releases unaccounted noise.
  Status UnregisterPolicy(const std::string& name);

  /// Opens a session entitled to spend `epsilon_budget` in total.
  Status OpenSession(const std::string& session_id, double epsilon_budget);

  /// Closes a session; later submits on it get kNotFound.
  Status CloseSession(const std::string& session_id);

  /// The open session's ledger handle (for handle-carrying requests).
  Result<LedgerHandle> ResolveSession(const std::string& session_id) const;

  /// The registered policy's handle (for handle-carrying requests).
  Result<PolicyHandle> ResolvePolicy(const std::string& name) const {
    return registry_.Resolve(name);
  }

  /// Executes one request. Errors: kNotFound (unknown session or
  /// policy, or a stale handle), kInvalidArgument (workload/domain
  /// mismatch, bad ε, both or neither workload representation set),
  /// kOutOfRange (session or policy budget exhausted — charged before
  /// any noise is drawn, so a refusal releases nothing).
  Result<QueryResult> Submit(const QueryRequest& request);

  /// Submit with a caller-owned trace span (a harness that joins its
  /// own client-side spans to the engine's stages passes one in). The
  /// caller keeps ownership: this overload records admission/release
  /// stages into `trace` but never finishes it. Plain Submit ==
  /// MaybeStartTrace + this + FinishTrace.
  Result<QueryResult> Submit(const QueryRequest& request,
                             RequestTrace* trace);

  /// Executes one request as a result stream instead of a
  /// materialized answer vector. Admission — validate, resolve, plan,
  /// charge ε atomically — is identical to Submit, and *all* noise is
  /// drawn before this returns, so the stream's chunks are pure
  /// post-processing of releases the charge already covers. Next()
  /// computes the next chunk on the consumer's own thread.
  /// Concatenating every chunk is bit-identical to Submit's answer
  /// vector for the same engine state and seed. Cancelling mid-stream
  /// keeps the ledger charge. Errors mirror Submit's. The request is
  /// taken by value so its workload moves into the stream's cursor
  /// instead of being deep-copied (a dense W can be large — streaming
  /// exists to avoid duplicating exactly that).
  Result<std::shared_ptr<ResultStream>> SubmitStream(
      QueryRequest request, const StreamOptions& options = StreamOptions());

  /// Executes a batch; entry i is the outcome of request i. Each entry
  /// passes Submit's resolve step; requests are then grouped by
  /// (session, policy, planner options), and each group looks up its
  /// plan once and charges the budget once — Σε_i (sequential
  /// composition), or max ε_i when `options.disjoint_domains` declares
  /// the batch disjoint. A failed
  /// entry does not stop the rest of the batch; if a group's combined
  /// sequential charge does not fit, the group degrades to per-entry
  /// charges in batch order (admitting the prefix the budget affords,
  /// exactly as individual Submits would). A disjoint group charges
  /// all-or-nothing: parallel composition covers the whole set or
  /// none of it. Each admitted entry then draws its own noise through
  /// Submit's dispatch, so its answers match a lone Submit's.
  std::vector<Result<QueryResult>> SubmitBatch(
      const std::vector<QueryRequest>& batch,
      const BatchOptions& options = BatchOptions());

  /// Registry metadata snapshot; kNotFound if absent.
  Result<PolicyMetadata> GetPolicyMetadata(const std::string& name) const;

  Result<double> SessionRemaining(const std::string& session_id) const;
  Result<double> PolicyRemaining(const std::string& name) const;
  /// Human-readable per-session spend ledger: the balance, then the
  /// session's spends still in the ε-audit ring (bounded by
  /// EngineOptions::audit_log_capacity; older ones are only counted).
  Result<std::string> SessionAudit(const std::string& session_id) const;

  /// True when submitting `request` now would run no expensive cold
  /// work: the target snapshot's serving slot (plan + noise-free
  /// release precompute) is already built. Requests that cannot
  /// resolve a policy at all also count as warm — they fail fast
  /// without planning.
  bool IsWarm(const QueryRequest& request) const;

  const EngineOptions& options() const { return options_; }

  /// The engine's observability bundle: metrics registry (every
  /// component registers here), the ε-audit event log, the
  /// always-on flight recorder, and the trace sampler/ring. See
  /// engine/telemetry.h.
  EngineTelemetry& telemetry() { return telemetry_; }
  const EngineTelemetry& telemetry() const { return telemetry_; }

  /// The in-process scrape server, or null when EngineOptions::
  /// obs_port is unset (or binding failed — see obs_error()).
  const ObsServer* obs_server() const { return obs_server_.get(); }
  /// Why the scrape server is not running (OK when it is, or when it
  /// was never requested). A bind failure degrades observability but
  /// never the data plane, so it is reported here instead of failing
  /// engine construction.
  const Status& obs_error() const { return obs_error_; }

  /// The composed health probe /healthz serves: 200 (ok) while
  /// charges can be made durable, 503 the moment durability_health()
  /// refuses — the same fail-closed signal requests refuse with. The
  /// JSON body additionally reports snapshot generation, active burn
  /// alerts, and audit/trace ring drops (context for the on-call, not
  /// part of the up/down decision).
  HealthReport Healthz() const;

  /// \brief Plan lookups: one per admission (a batch group counts
  /// once), so hits + misses == lookups. A miss is a lookup that ran
  /// the planner (and the release transform), successful or not;
  /// single-flight followers of a cold build count as hits.
  struct PlanCacheStats {
    uint64_t hits = 0;
    uint64_t misses = 0;
    size_t entries = 0;  ///< built serving slots across live snapshots
  };
  PlanCacheStats plan_cache_stats() const;
  size_t num_policies() const { return registry_.size(); }
  std::vector<std::string> Names() const { return registry_.Names(); }
  /// Built serving slots across live snapshots (tests).
  size_t transform_cache_entries() const {
    return transform_cache_stats().entries;
  }

  /// \brief Resident release transforms, walked from the live
  /// snapshots' serving slots (superseded snapshots still held by an
  /// in-flight reader are not counted).
  struct TransformCacheStats {
    size_t entries = 0;  ///< built slots, including "no precompute split"
    size_t bytes = 0;    ///< Σ ApproxBytes of the resident precomputes
  };
  TransformCacheStats transform_cache_stats() const;

 private:
  /// Everything an entry point establishes before any noise is drawn:
  /// the resolved session and snapshot, then the snapshot's serving
  /// state and the committed charge. Submit and SubmitStream build one
  /// per request; a SubmitBatch group builds one for all its entries.
  struct Admission {
    std::shared_ptr<const RegisteredPolicy> entry;
    const ServingState* state = nullptr;  ///< owned by `entry`
    LedgerHandle session_ledger;
    bool cache_hit = false;
    double remaining[2] = {0.0, 0.0};  ///< post-charge session/policy
  };

  /// The resolve step every entry point shares: fail closed on a
  /// poisoned journal → validate → session (ResolveSession, unless the
  /// request carries a handle) → policy → domain check. Fills
  /// `admission`'s session ledger and entry; the entry stays set when
  /// only the domain check failed. Stages are stamped into `trace`
  /// when it is active.
  Status Resolve(const QueryRequest& request, RequestTrace* trace,
                 Admission* admission);

  /// The admission of Submit and SubmitStream: Resolve → get-or-plan →
  /// atomic two-ledger charge. On success ε is spent; the caller must
  /// draw the release (DrawRelease).
  Result<Admission> Admit(const QueryRequest& request, RequestTrace* trace);

  /// The noisy release of one request (defined in query_engine.cc).
  struct Draw;

  /// The one noise-draw dispatch, shared by every entry point: derives
  /// the submit's private rng stream, then draws either the θ-grid fast
  /// path's slab releases (a range request on a plan with a range
  /// mechanism and a matching grid shape) or the histogram estimate x̂,
  /// and states the guarantee. Runs the journal housekeeping after the
  /// draw. `admission` must hold a committed charge.
  Draw DrawRelease(const QueryRequest& request, const Admission& admission);

  /// Submit's and a batch entry's release: DrawRelease, then every
  /// answer in one go.
  QueryResult Materialize(const QueryRequest& request,
                          const Admission& admission);

  /// Post-release housekeeping: when the journal has flagged a
  /// checkpoint due (and auto-checkpointing is on), snapshot + compact.
  /// Best-effort — a failed compaction leaves the journal longer,
  /// never wrong.
  void MaybeCheckpointJournal();

  /// Construction-time warm restart: maps the newest valid snapshot
  /// generation and re-registers its policies (claiming their
  /// persisted versions), replans each recorded serving slot with the
  /// certified-stretch hint (skipping the certification BFS), and
  /// fills it with the decoded precompute (rebuilding one that did not
  /// decode). Every failure is fail-open: the item is skipped and
  /// recomputed lazily on first contact. Runs before any submit can
  /// exist, so it touches the slots without contention.
  void RestoreFromSnapshot();

  /// The snapshot's serving state for one planner option: one atomic
  /// load when warm; when cold, plans and precomputes the release
  /// transform under the slot's single-flight mutex. Counts the
  /// lookup as a hit or a miss.
  Result<const ServingState*> GetOrPlan(const RegisteredPolicy& entry,
                                        bool prefer_data_dependent,
                                        bool* cache_hit);

  /// The bounded-cardinality tenant label of a session id: the prefix
  /// before the first ':', '/', '#', or '@' — the conventional
  /// class/instance separators ("analytics:worker-17" → "analytics").
  /// Ids with no separator are their own class. A view into
  /// `session_id`, no allocation.
  static std::string_view TenantClassOf(const std::string& session_id);

  /// Per-request observability fan-out, called once per request on
  /// every outcome path: bumps the per-(policy, tenant) metric
  /// families and appends a flight record (running the incident
  /// detector; the first incident dumps the ring to
  /// options_.flight_dump_path). One branch when both features are
  /// disabled. `entry` may be null when the request failed before
  /// policy resolution; `charged_epsilon` is the ε this request
  /// actually added to the ledgers (0 on failures, and on batch
  /// entries whose group charge was attributed elsewhere).
  void RecordRequestObs(const QueryRequest& request,
                        const RegisteredPolicy* entry, const Status& status,
                        double charged_epsilon, uint32_t admit_us,
                        uint32_t total_us);

  static std::string SessionLedger(const std::string& session_id);
  static std::string PolicyLedger(const std::string& name, uint64_t version);
  static std::string PolicyLedgerPrefix(const std::string& name);

  EngineOptions options_;
  uint64_t seed_;  ///< resolved from options_.seed or entropy
  /// Declared before the accountant: the accountant holds a raw
  /// pointer to the audit log and appends during Charge, so the
  /// telemetry bundle must be destroyed after it.
  EngineTelemetry telemetry_;
  /// Crash-safe spend journal; null when options_.journal_path is
  /// empty. Declared after the telemetry bundle (its counters live in
  /// the registry) and before the accountant (which holds a raw
  /// pointer and appends during Charge), so destruction runs
  /// accountant -> journal -> telemetry.
  std::unique_ptr<LedgerJournal> journal_;
  /// Set when the plain constructor could not open/recover the
  /// journal: the engine is poisoned and Resolve refuses every
  /// request with this status (fail closed — never serve unjournaled
  /// charges).
  Status journal_error_;
  PolicyRegistry registry_;
  BudgetAccountant accountant_;
  std::atomic<uint64_t> plan_hits_{0};
  std::atomic<uint64_t> plan_misses_{0};

  // Hot-path metric handles (registered once in the constructor;
  // updates are relaxed atomics — see MetricsRegistry).
  Counter* m_submits_;           ///< Submit attempts (incl. refused)
  Counter* m_failures_;          ///< Submit attempts that failed
  Counter* m_refused_budget_;    ///< failures that were kOutOfRange
  Counter* m_batches_;           ///< SubmitBatch calls
  Counter* m_batch_entries_;     ///< entries across all batches
  Counter* m_streams_;           ///< stream admissions attempted
  DoubleCounter* m_eps_charged_; ///< Σε across successful charges
  LatencyHistogram* m_submit_latency_;  ///< every Submit, end to end

  // Per-(policy, tenant) labeled families (null when
  // options_.tenant_metrics_capacity == 0). Updates are the family's
  // lock-free probe + a relaxed atomic — see MetricFamily.
  CounterFamily* f_tenant_requests_ = nullptr;
  CounterFamily* f_tenant_failures_ = nullptr;
  CounterFamily* f_tenant_refused_ = nullptr;
  DoubleCounterFamily* f_tenant_eps_ = nullptr;
  HistogramFamily* f_tenant_latency_ = nullptr;
  /// False when both per-tenant families and the flight recorder are
  /// off: RecordRequestObs is then a single branch (hot-path
  /// discipline: no clocks, no locks, no atomics beyond what the
  /// unlabeled metrics already pay).
  bool obs_enabled_ = false;

  /// session id -> ledger handle; lets string-id submits reach the
  /// accountant without building the "session/…" ledger id.
  mutable std::shared_mutex sessions_mu_;
  std::unordered_map<std::string, LedgerHandle> sessions_
      GUARDED_BY(sessions_mu_);
  /// handle bits -> tenant class, for handle-only warm submits whose
  /// request carries no session string. Written by OpenSession /
  /// CloseSession; RecordRequestObs copies the (short) class into a
  /// stack buffer under the shared lock, so a concurrent close can
  /// never dangle it.
  std::unordered_map<uint64_t, std::string> session_tenants_
      GUARDED_BY(sessions_mu_);

  /// Filled once by RestoreFromSnapshot() during construction (no
  /// concurrent access exists yet), read-only afterwards.
  SnapshotRestoreStats snapshot_restore_stats_;

  std::atomic<uint64_t> submit_counter_{0};
  /// Serializes policy lifecycle ops (register/replace/unregister) so
  /// their registry + ledger steps compose atomically against each
  /// other. Submits never take this lock.
  std::mutex admin_mu_;

  /// Why obs_server_ is null despite obs_port being set (OK
  /// otherwise). Written once in the constructor.
  Status obs_error_;
  /// The in-process scrape server; null unless options_.obs_port >=
  /// 0 bound successfully. Declared LAST: its handlers call back into
  /// the telemetry bundle, the accountant, and the journal, so it
  /// must be destroyed (listener joined) before any of them.
  std::unique_ptr<ObsServer> obs_server_;
};

}  // namespace blowfish

#endif  // BLOWFISH_ENGINE_QUERY_ENGINE_H_
