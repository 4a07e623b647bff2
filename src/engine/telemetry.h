// Engine observability: one registry for every component's metrics,
// sampled per-request stage traces, and a replayable ε-audit log.
//
// The paper's subject is *accounting* — policy-aware ε spent per
// release — and before this layer the engine could only report it
// through ad-hoc per-component stats (plan_cache_stats(),
// transform_cache_stats()) with no record of which tenant spent which
// budget when, or where a request's latency went. Three pieces fix
// that:
//
//   MetricsRegistry    named counters / gauges / log2-bucket latency
//                      histograms. Registration takes a mutex once at
//                      setup; every update after that is a relaxed
//                      atomic op — hot paths hold raw metric pointers
//                      and never lock or allocate. Snapshots export as
//                      JSON or Prometheus text exposition.
//
//   RequestTrace       a sampled per-request stage span. The engine
//                      decides at submit time (one counter increment;
//                      EngineOptions::trace_sample_rate = 0 is a
//                      single load and costs nothing) and, when
//                      sampled, stamps each admission stage
//                      (validate → resolve → plan → charge → release).
//                      Finished traces feed per-stage histograms and a
//                      bounded ring of recent structured traces.
//
//   BoundedRing<T>     the one mutex-guarded ring behind every record
//                      stream: ε-audit events, burn-rate alerts and
//                      finished traces. BudgetAccountant::Charge pushes
//                      audit events while still holding the involved
//                      shard locks, so the ring's per-ledger event
//                      order *is* each ledger's spend order: replaying
//                      `spent += ε` over a ledger's events in seq order
//                      reproduces its PrivacyBudget balance bit-for-bit
//                      (the reconciliation engine_telemetry_test pins,
//                      and the property a durable-state ledger replay
//                      needs). Events carry the post-charge balances,
//                      and ExportJsonl() emits crash-portable JSONL
//                      (doubles printed with %.17g so they round-trip
//                      exactly).
//
// Thread safety: metric updates are lock-free; each ring takes its own
// short mutex (never while holding any engine lock other than the
// accountant's shard locks, which order strictly before ring mutexes).

#ifndef BLOWFISH_ENGINE_TELEMETRY_H_
#define BLOWFISH_ENGINE_TELEMETRY_H_

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "common/thread_annotations.h"

namespace blowfish {

// ------------------------------------------------------------ metrics

/// \brief Monotone event count. Updates are relaxed atomics.
class Counter {
 public:
  void Add(uint64_t n = 1) { value_.fetch_add(n, std::memory_order_relaxed); }
  uint64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
};

/// \brief Monotone floating-point accumulator (Σε charged). C++17 has
/// no atomic<double>::fetch_add, so Add is a CAS loop — still
/// lock-free.
class DoubleCounter {
 public:
  void Add(double v) {
    double cur = value_.load(std::memory_order_relaxed);
    while (!value_.compare_exchange_weak(cur, cur + v,
                                         std::memory_order_relaxed)) {
    }
  }
  double value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

/// \brief Point-in-time level (resident bytes, live entries).
class Gauge {
 public:
  void Set(int64_t v) { value_.store(v, std::memory_order_relaxed); }
  void Add(int64_t d) { value_.fetch_add(d, std::memory_order_relaxed); }
  int64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

/// \brief Percentile summary of one histogram (percentiles are bucket
/// upper bounds — ~2x resolution — clamped to the exact observed max).
struct HistogramSnapshot {
  uint64_t count = 0;
  double sum_ms = 0.0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  double max_ms = 0.0;
};

/// \brief Lock-free log2-microsecond latency histogram: values are
/// milliseconds, bucket i holds microsecond values of bit
/// width i (upper bound 2^i µs). TSan-clean: buckets are atomics,
/// recorded without any lock.
class LatencyHistogram {
 public:
  static constexpr size_t kBuckets = 40;

  void Record(double ms);
  HistogramSnapshot Snapshot() const;
  uint64_t count() const { return count_.load(std::memory_order_relaxed); }

  /// Cumulative bucket counts for Prometheus exposition:
  /// out[i] = #values <= 2^i µs; returns the total.
  uint64_t CumulativeBuckets(uint64_t out[kBuckets]) const;

 private:
  std::atomic<uint64_t> buckets_[kBuckets] = {};
  std::atomic<uint64_t> count_{0};
  std::atomic<uint64_t> max_us_{0};
  std::atomic<double> sum_ms_{0.0};
};

/// \brief Bounded-cardinality labeled series family: one metric `M`
/// per distinct label tuple, capped at `max_series` tuples with every
/// overflow tuple collapsing into one preallocated `other` series — a
/// hostile tenant minting fresh session ids cannot explode the
/// exposition's cardinality or allocate unboundedly.
///
/// WithLabels is the hot-path lookup: a lock-free open-addressed
/// probe over atomically published slots — no lock and no allocation
/// on a hit, and once the family is full the miss path is lock-free
/// too (probe to an empty slot, then the `other` series). Only the
/// first contact with a new tuple, while capacity remains, takes the
/// family mutex to publish its series. Published series are immortal
/// for the family's lifetime, so returned pointers are stable.
template <typename M>
class MetricFamily {
 public:
  static constexpr size_t kMaxLabels = 2;
  static constexpr std::string_view kOverflowValue = "other";

  MetricFamily(std::vector<std::string> label_names, size_t max_series)
      : label_names_(std::move(label_names)),
        max_series_(std::max<size_t>(1, max_series)) {
    table_size_ = 4;
    while (table_size_ < max_series_ * 2) table_size_ <<= 1;
    table_ = std::make_unique<std::atomic<Series*>[]>(table_size_);
    for (size_t i = 0; i < label_names_.size() && i < kMaxLabels; ++i) {
      other_.values[i] = std::string(kOverflowValue);
    }
  }

  const std::vector<std::string>& label_names() const { return label_names_; }
  size_t max_series() const { return max_series_; }
  /// Distinct label tuples published (the `other` series not counted).
  size_t size() const { return count_.load(std::memory_order_acquire); }
  /// Lookups that landed in the `other` overflow series.
  uint64_t overflow_hits() const {
    return overflow_hits_.load(std::memory_order_relaxed);
  }

  /// The series for (v0, v1); creates it on first contact, or the
  /// `other` series once `max_series` distinct tuples exist.
  M* WithLabels(std::string_view v0, std::string_view v1 = {}) {
    const uint64_t hash = HashLabels(v0, v1);
    const size_t mask = table_size_ - 1;
    size_t idx = static_cast<size_t>(hash) & mask;
    for (;;) {
      Series* series = table_[idx].load(std::memory_order_acquire);
      if (series == nullptr) break;
      if (series->values[0] == v0 && series->values[1] == v1) {
        return &series->metric;
      }
      idx = (idx + 1) & mask;
    }
    // Absent. Full family: lock-free overflow — the table never fills
    // (sized 2x capacity), so the probe above always terminates.
    if (count_.load(std::memory_order_acquire) >= max_series_) {
      overflow_hits_.fetch_add(1, std::memory_order_relaxed);
      return &other_.metric;
    }
    std::lock_guard<std::mutex> lock(mu_);
    // Re-probe under the lock: a racing first contact may have
    // published the tuple (or taken the last capacity slot) meanwhile.
    idx = static_cast<size_t>(hash) & mask;
    for (;;) {
      Series* series = table_[idx].load(std::memory_order_acquire);
      if (series == nullptr) break;
      if (series->values[0] == v0 && series->values[1] == v1) {
        return &series->metric;
      }
      idx = (idx + 1) & mask;
    }
    if (count_.load(std::memory_order_relaxed) >= max_series_) {
      overflow_hits_.fetch_add(1, std::memory_order_relaxed);
      return &other_.metric;
    }
    owned_.push_back(std::make_unique<Series>());
    Series* series = owned_.back().get();
    series->values[0].assign(v0.data(), v0.size());
    series->values[1].assign(v1.data(), v1.size());
    table_[idx].store(series, std::memory_order_release);
    count_.fetch_add(1, std::memory_order_release);
    return &series->metric;
  }

  struct SeriesRef {
    const std::string* values[kMaxLabels] = {nullptr, nullptr};
    const M* metric = nullptr;
  };

  /// Every published series plus — once any lookup overflowed — the
  /// `other` series, sorted by label values (deterministic exposition).
  std::vector<SeriesRef> Snapshot() const {
    std::vector<SeriesRef> out;
    out.reserve(count_.load(std::memory_order_acquire) + 1);
    for (size_t i = 0; i < table_size_; ++i) {
      const Series* series = table_[i].load(std::memory_order_acquire);
      if (series == nullptr) continue;
      SeriesRef ref;
      ref.values[0] = &series->values[0];
      ref.values[1] = &series->values[1];
      ref.metric = &series->metric;
      out.push_back(ref);
    }
    if (overflow_hits() > 0) {
      SeriesRef ref;
      ref.values[0] = &other_.values[0];
      ref.values[1] = &other_.values[1];
      ref.metric = &other_.metric;
      out.push_back(ref);
    }
    std::sort(out.begin(), out.end(),
              [](const SeriesRef& a, const SeriesRef& b) {
                if (*a.values[0] != *b.values[0]) {
                  return *a.values[0] < *b.values[0];
                }
                return *a.values[1] < *b.values[1];
              });
    return out;
  }

 private:
  struct Series {
    std::string values[kMaxLabels];
    M metric;
  };

  static uint64_t HashLabels(std::string_view v0, std::string_view v1) {
    // FNV-1a over v0 \x1f v1 — no allocation, stable across lookups.
    uint64_t h = 1469598103934665603ull;
    const auto mix = [&h](std::string_view s) {
      for (const char c : s) {
        h ^= static_cast<unsigned char>(c);
        h *= 1099511628211ull;
      }
      h ^= 0x1fu;
      h *= 1099511628211ull;
    };
    mix(v0);
    mix(v1);
    return h;
  }

  std::vector<std::string> label_names_;
  size_t max_series_;
  size_t table_size_;
  std::unique_ptr<std::atomic<Series*>[]> table_;
  std::atomic<size_t> count_{0};
  std::atomic<uint64_t> overflow_hits_{0};
  Series other_;
  std::mutex mu_;
  std::vector<std::unique_ptr<Series>> owned_ GUARDED_BY(mu_);
};

using CounterFamily = MetricFamily<Counter>;
using DoubleCounterFamily = MetricFamily<DoubleCounter>;
using HistogramFamily = MetricFamily<LatencyHistogram>;

/// \brief Name -> metric directory. Get-or-create registration locks;
/// the returned pointers are stable for the registry's lifetime and
/// update lock-free. Names follow Prometheus conventions
/// (`engine_submits_total`). Every registration takes an optional
/// help string, emitted as `# HELP` in the exposition.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  Counter* counter(const std::string& name, std::string_view help = {});
  DoubleCounter* double_counter(const std::string& name,
                                std::string_view help = {});
  Gauge* gauge(const std::string& name, std::string_view help = {});
  LatencyHistogram* histogram(const std::string& name,
                              std::string_view help = {});
  /// A gauge whose value is computed at snapshot time (plan-cache
  /// stats, journal segments — levels a component already tracks under
  /// its own lock). `fn` runs on the snapshotting thread and may take
  /// that component's locks; it must not call back into the registry.
  void gauge_callback(const std::string& name, std::function<double()> fn,
                      std::string_view help = {});

  /// Labeled family registration (see MetricFamily). Re-registration
  /// under the same name returns the existing family; `label_names`
  /// and `max_series` are fixed by the first call.
  CounterFamily* counter_family(const std::string& name,
                                std::vector<std::string> label_names,
                                size_t max_series,
                                std::string_view help = {});
  DoubleCounterFamily* double_counter_family(
      const std::string& name, std::vector<std::string> label_names,
      size_t max_series, std::string_view help = {});
  HistogramFamily* histogram_family(const std::string& name,
                                    std::vector<std::string> label_names,
                                    size_t max_series,
                                    std::string_view help = {});

  /// Reads one scalar metric's current value by name (counter, gauge,
  /// or callback — histograms and families have no single value).
  /// False when absent or not scalar. For composed health reports.
  bool TryReadValue(const std::string& name, double* out) const;

  /// {"counters": {...}, "gauges": {...}, "histograms": {name:
  /// {count, sum_ms, p50_ms, p99_ms, max_ms}}, "families": {name:
  /// [{"labels": {...}, ...}]}} — keys sorted.
  std::string SnapshotJson() const;
  /// Prometheus text exposition: `# HELP` + `# TYPE` for every
  /// family; counters and gauges as-is, histograms as cumulative
  /// `_bucket{le="..."}` series (le in ms) plus `_sum` / `_count`;
  /// labeled families one line per series with label values escaped
  /// per the exposition format (backslash, quote, newline).
  std::string PrometheusText() const;

 private:
  struct Entry {
    std::unique_ptr<Counter> counter;
    std::unique_ptr<DoubleCounter> double_counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<LatencyHistogram> histogram;
    std::unique_ptr<std::function<double()>> callback;
    std::unique_ptr<CounterFamily> counter_family;
    std::unique_ptr<DoubleCounterFamily> double_counter_family;
    std::unique_ptr<HistogramFamily> histogram_family;
    std::string help;
  };

  bool EntryIsEmpty(const Entry& entry) const;

  /// Get-or-create: the `slot` metric registered as `name`, built from
  /// `args` on first registration. Dies if `name` already holds a
  /// metric of another type.
  template <typename M, typename... Args>
  M* GetOrCreate(std::unique_ptr<M> Entry::*slot, const std::string& name,
                 std::string_view help, Args&&... args) REQUIRES(mu_);

  mutable std::mutex mu_;
  std::map<std::string, Entry> entries_ GUARDED_BY(mu_);
};

// ------------------------------------------------------------ tracing

/// \brief The stages a sampled request is timed through: Submit's
/// admission + release pipeline.
enum class TraceStage : size_t {
  kValidate = 0,  ///< shape validation (no allocation, no locks)
  kResolve,       ///< session + policy resolution, domain check
  kPlan,          ///< get-or-plan (cold: the planner runs here)
  kCharge,        ///< atomic two-ledger ε charge
  kRelease,       ///< noise draw + workload answering
  kCount,
};
constexpr size_t kTraceStageCount = static_cast<size_t>(TraceStage::kCount);
const char* TraceStageName(TraceStage stage);

/// \brief One completed sampled trace, as kept in the bounded ring.
struct TraceRecord {
  uint64_t seq = 0;         ///< assigned at push; dense, starts at 1
  uint64_t trace_id = 0;
  int64_t wall_micros = 0;  ///< completion wall time
  bool ok = false;          ///< the traced request succeeded
  /// Stage durations; < 0 = stage not reached on this request.
  double stage_ms[kTraceStageCount];
};

class EngineTelemetry;

/// \brief Sampled per-request stage span. Inactive spans (the
/// trace_sample_rate = 0 hot path) are a null pointer and two loads —
/// no clocks, no allocation. Movable; stack-carried through Submit.
class RequestTrace {
 public:
  RequestTrace() { Reset(); }
  RequestTrace(RequestTrace&& other) noexcept { *this = std::move(other); }
  RequestTrace& operator=(RequestTrace&& other) noexcept {
    owner_ = other.owner_;
    trace_id_ = other.trace_id_;
    for (size_t i = 0; i < kTraceStageCount; ++i) {
      stage_ms_[i] = other.stage_ms_[i];
    }
    other.owner_ = nullptr;
    return *this;
  }
  RequestTrace(const RequestTrace&) = delete;
  RequestTrace& operator=(const RequestTrace&) = delete;

  bool active() const { return owner_ != nullptr; }
  uint64_t trace_id() const { return trace_id_; }

  /// Accumulates `ms` into the stage.
  void Record(TraceStage stage, double ms) {
    if (owner_ == nullptr) return;
    double& slot = stage_ms_[static_cast<size_t>(stage)];
    slot = slot < 0.0 ? ms : slot + ms;
  }

 private:
  friend class EngineTelemetry;
  void Reset() {
    owner_ = nullptr;
    trace_id_ = 0;
    for (double& ms : stage_ms_) ms = -1.0;
  }

  EngineTelemetry* owner_ = nullptr;
  uint64_t trace_id_ = 0;
  double stage_ms_[kTraceStageCount];
};

/// \brief RAII stage stopwatch: reads the clock only when the trace is
/// active, records on destruction.
class TraceStageTimer {
 public:
  TraceStageTimer(RequestTrace* trace, TraceStage stage) : stage_(stage) {
    if (trace != nullptr && trace->active()) {
      trace_ = trace;
      start_ = std::chrono::steady_clock::now();
    }
  }
  ~TraceStageTimer() {
    if (trace_ != nullptr) {
      trace_->Record(stage_,
                     std::chrono::duration<double, std::milli>(
                         std::chrono::steady_clock::now() - start_)
                         .count());
    }
  }
  TraceStageTimer(const TraceStageTimer&) = delete;
  TraceStageTimer& operator=(const TraceStageTimer&) = delete;

 private:
  RequestTrace* trace_ = nullptr;
  TraceStage stage_;
  std::chrono::steady_clock::time_point start_;
};

// ------------------------------------------------------------ ε audit

/// \brief One structured spend/refusal event. Ledger ids are the
/// accountant's durable names: "session/<id>" for tenant grants,
/// "policy/<name>\x1f<version>" for policy caps (the version is baked
/// into the id, so the event pins the exact data snapshot charged).
struct AuditEvent {
  /// Ledgers one engine charge touches (session + policy cap). Generic
  /// accountant charges may name more; the event records the first
  /// kMaxLedgers.
  static constexpr size_t kMaxLedgers = 4;

  struct LedgerLine {
    std::string id;
    /// Post-charge balance (spend events) / untouched balance at the
    /// refusing ledger (refusal events), read under the shard lock.
    double remaining = 0.0;
  };

  uint64_t seq = 0;         ///< assigned at push; dense, starts at 1
  int64_t wall_micros = 0;  ///< system clock at the charge decision
  bool charged = false;     ///< spend (true) or refusal (false)
  /// kOutOfRange (budget exhausted), kNotFound (stale/closed ledger),
  /// or kUnavailableDurability (spend record could not be journaled)
  /// on refusals; kOk on spends.
  StatusCode refusal = StatusCode::kOk;
  double epsilon = 0.0;  ///< ε requested; charged to every ledger iff
                         ///< `charged`
  /// > 1 declares a parallel-composition charge covering that many
  /// disjoint-domain releases at max-ε cost; 1 = sequential.
  uint32_t parallel_count = 1;
  std::string workload;  ///< per-request label (ChargeTag::workload)
  /// Shared per-(policy, plan) description (ChargeTag::context).
  std::shared_ptr<const std::string> context;
  LedgerLine ledgers[kMaxLedgers];
  size_t num_ledgers = 0;
};

/// \brief Outcome of replaying a JSONL ring export: how many events
/// the stream carries, the seq range, and whether the dense-seq
/// invariant held across it. Every non-empty line counts exactly once,
/// in `events` or in `errors`.
struct JsonlReplayReport {
  uint64_t events = 0;          ///< well-formed, in-order event lines
  uint64_t first_seq = 0;       ///< 0 if the stream had no events
  uint64_t last_seq = 0;        ///< 0 if the stream had no events
  uint64_t seq_gaps = 0;        ///< discontinuities (ring drops)
  uint64_t missing_events = 0;  ///< events the gaps swallowed
  /// Malformed lines and seq regressions (duplicate / out-of-order).
  std::vector<std::string> errors;

  bool clean() const { return seq_gaps == 0 && errors.empty(); }
};

// ---------------------------------------------------- flight recorder

/// \brief How a flight-recorded request ended.
enum class FlightOutcome : uint8_t {
  kOk = 0,
  kRefusedBudget,      ///< kOutOfRange: a ledger could not afford ε
  kRefusedDurability,  ///< kUnavailableDurability: spend not journaled
  kFailed,             ///< any other admission/validation failure
};
const char* FlightOutcomeName(FlightOutcome outcome);

/// \brief One compact per-request record, fixed-size and POD so the
/// ring can publish it through atomic words. Tenant and policy are
/// truncated into inline buffers — the recorder never allocates.
struct FlightRecord {
  int64_t t_us = 0;        ///< wall micros at record time
  double epsilon = 0.0;    ///< ε the request asked for
  uint32_t admit_us = 0;   ///< admission (validate→charge) micros
  uint32_t total_us = 0;   ///< end-to-end micros (0 when unknown)
  FlightOutcome outcome = FlightOutcome::kOk;
  char tenant[23] = {0};   ///< NUL-terminated, truncated
  char policy[23] = {0};   ///< NUL-terminated, truncated

  void SetTenant(std::string_view v);
  void SetPolicy(std::string_view v);
};
static_assert(sizeof(FlightRecord) % sizeof(uint64_t) == 0,
              "FlightRecord must pack into whole atomic words");

/// \brief Always-on fixed-size ring of the last `capacity` request
/// records, independent of trace sampling: when something goes wrong,
/// the requests leading up to it are already captured.
///
/// Lock-free on both sides: a writer claims a slot with one
/// fetch_add, then publishes the record through the slot's atomic
/// words under a seqlock (odd seq = write in progress). Readers
/// retry/skip slots whose seq moved — under a wrap race a reader can
/// at worst skip a record, never tear one into UB or a TSan report.
/// capacity 0 disables the recorder; Record is then a single branch.
class FlightRecorder {
 public:
  /// capacity is rounded up to a power of two; 0 disables.
  explicit FlightRecorder(size_t capacity);

  bool enabled() const { return capacity_ != 0; }
  size_t capacity() const { return capacity_; }
  /// Records ever appended; ring keeps the last min(total, capacity).
  uint64_t total() const { return head_.load(std::memory_order_relaxed); }

  /// Burst detector knobs: an incident fires on the first durability
  /// refusal, or when `refusals` budget refusals land within one
  /// `window` of consecutive records.
  void ConfigureBurst(uint32_t window, uint32_t refusals);

  /// Appends one record and runs the incident detector. Returns true
  /// exactly once per recorder lifetime — on the first incident — so
  /// the owner can auto-dump the ring while it still holds the
  /// pre-incident traffic.
  bool Record(const FlightRecord& record);

  bool incident_fired() const {
    return incident_fired_.load(std::memory_order_relaxed);
  }

  /// Retained records, oldest first. Slots mid-write are skipped.
  std::vector<FlightRecord> Snapshot() const;
  /// One JSON object per line, oldest first.
  std::string DumpJsonl() const;
  static void AppendJsonl(const FlightRecord& record, std::string* out);

 private:
  static constexpr size_t kWords = sizeof(FlightRecord) / sizeof(uint64_t);
  struct Slot {
    std::atomic<uint64_t> seq{0};  ///< odd while a write is in flight
    std::atomic<uint64_t> words[kWords] = {};
  };

  size_t capacity_ = 0;  ///< power of two, or 0 = disabled
  size_t mask_ = 0;
  std::unique_ptr<Slot[]> slots_;
  std::atomic<uint64_t> head_{0};

  uint32_t burst_window_ = 256;
  uint32_t burst_refusals_ = 32;
  std::atomic<uint32_t> window_count_{0};
  std::atomic<uint32_t> window_refused_{0};
  std::atomic<bool> incident_fired_{false};
};

// ------------------------------------------------- ε burn-rate alerts

/// \brief One structured burn-rate alert: a ledger whose current spend
/// rate projects exhaustion within the configured horizon (fired), or
/// whose rate has dropped back below it (cleared). Produced by
/// BudgetAccountant under the same shard locks that order audit
/// events, so alerts interleave consistently with the spends that
/// caused them.
struct BurnAlert {
  uint64_t seq = 0;         ///< assigned at push; dense, starts at 1
  int64_t wall_micros = 0;  ///< clock at the triggering spend
  bool fired = true;        ///< fired (true) or cleared (false)
  std::string ledger_id;    ///< accountant's durable ledger name
  double remaining = 0.0;   ///< post-charge balance at the trigger
  double fast_rate = 0.0;   ///< ε/s over the fast window
  double slow_rate = 0.0;   ///< ε/s over the slow window
  double projected_s = 0.0; ///< seconds to exhaustion at the fast rate
};

// ------------------------------------------------------- bounded ring

/// Appends `s` as a quoted JSON string: quotes, backslash and every
/// control character are escaped (policy ledger ids embed '\x1f').
void AppendJsonString(std::string_view s, std::string* out);

/// JSONL encoders, one per ring record type; doubles print as %.17g so
/// they round-trip exactly. Audit and burn lines lead with `{"seq":`
/// (what ReplayJsonl parses); trace lines lead with `{"trace_id":` and
/// carry no seq.
void AppendJsonl(const AuditEvent& event, std::string* out);
void AppendJsonl(const BurnAlert& alert, std::string* out);
void AppendJsonl(const TraceRecord& record, std::string* out);

/// Walks an audit or burn-alert JSONL export and verifies the seq
/// chain. Ring seqs are dense, so any jump means the ring wrapped
/// between export windows (records were dropped — the
/// `engine_audit_dropped` metric counts the same loss live); a
/// duplicate or backwards seq means the stream was corrupted or
/// stitched wrong, and is reported as an error rather than a gap, as
/// is a seq that does not fit in 64 bits.
JsonlReplayReport ReplayJsonl(std::string_view jsonl);

/// System-clock wall time, microseconds since the epoch.
inline int64_t WallMicros() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::system_clock::now().time_since_epoch())
      .count();
}

/// \brief Bounded ring of the last `capacity` records, oldest evicted
/// first, with JSONL export. T carries `seq` and `wall_micros`; Push
/// assigns the seq and clamps the caller-stamped wall time so the
/// ring's timestamps never decrease (the system clock itself may step
/// backwards — NTP slew, VM migration — and consumers replay by
/// (seq, t_us)). The accountant pushes while holding a charge's shard
/// locks, which order strictly before this mutex.
template <typename T>
class BoundedRing {
 public:
  /// capacity = 0 disables capture (Push is one branch).
  explicit BoundedRing(size_t capacity) : capacity_(capacity) {
    // Pre-size so steady-state pushes reuse slots instead of growing
    // the vector mid-charge.
    ring_.reserve(capacity_);
  }

  bool enabled() const { return capacity_ > 0; }
  size_t capacity() const { return capacity_; }

  void Push(T item) {
    if (capacity_ == 0) return;
    std::lock_guard<std::mutex> lock(mu_);
    item.seq = ++total_;
    item.wall_micros = std::max(item.wall_micros, last_wall_micros_);
    last_wall_micros_ = item.wall_micros;
    const size_t slot = static_cast<size_t>((item.seq - 1) % capacity_);
    if (slot < ring_.size()) {
      ring_[slot] = std::move(item);
    } else {
      ring_.push_back(std::move(item));
    }
  }

  /// Retained records, oldest first (seq order).
  std::vector<T> Snapshot() const {
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<T> out;
    out.reserve(ring_.size());
    // Once wrapped, the oldest retained record sits right after the
    // newest; before that, start is 0.
    const size_t start = total_ > capacity_
                             ? static_cast<size_t>(total_ % capacity_)
                             : 0;
    for (size_t i = 0; i < ring_.size(); ++i) {
      out.push_back(ring_[(start + i) % ring_.size()]);
    }
    return out;
  }

  /// Records ever pushed; the ring keeps the last min(total, capacity).
  uint64_t total() const {
    std::lock_guard<std::mutex> lock(mu_);
    return total_;
  }
  /// Records overwritten by wrap-around.
  uint64_t dropped() const {
    std::lock_guard<std::mutex> lock(mu_);
    return total_ > capacity_ ? total_ - capacity_ : 0;
  }

  /// One JSON object per line, oldest first.
  std::string ExportJsonl() const {
    std::string out;
    for (const T& item : Snapshot()) AppendJsonl(item, &out);
    return out;
  }

 private:
  const size_t capacity_;
  mutable std::mutex mu_;
  /// index = (seq - 1) % capacity
  std::vector<T> ring_ GUARDED_BY(mu_);
  uint64_t total_ GUARDED_BY(mu_) = 0;
  int64_t last_wall_micros_ GUARDED_BY(mu_) = 0;
};

// ------------------------------------------------------------- facade

/// \brief Per-engine bundle: the registry, the audit and burn-alert
/// rings, the flight recorder, the trace sampler, and the ring of
/// completed traces. Owned by QueryEngine.
class EngineTelemetry {
 public:
  static constexpr size_t kTraceRingCapacity = 256;
  static constexpr size_t kBurnAlertCapacity = 256;

  EngineTelemetry(double trace_sample_rate, size_t audit_capacity,
                  size_t flight_capacity = 0);

  MetricsRegistry& metrics() { return metrics_; }
  const MetricsRegistry& metrics() const { return metrics_; }
  BoundedRing<AuditEvent>& audit() { return audit_; }
  const BoundedRing<AuditEvent>& audit() const { return audit_; }
  FlightRecorder& flight() { return flight_; }
  const FlightRecorder& flight() const { return flight_; }
  BoundedRing<BurnAlert>& burn_alerts() { return burn_alerts_; }
  const BoundedRing<BurnAlert>& burn_alerts() const { return burn_alerts_; }
  /// Completed sampled traces (its dropped() count is the
  /// `engine_trace_dropped` metric).
  const BoundedRing<TraceRecord>& traces() const { return traces_; }

  /// Per-submit sampling decision. Rate 0: one member load, returns an
  /// inactive span — no clock, no atomics, no allocation. Rate r > 0:
  /// every round(1/r)-th submit gets an active span.
  RequestTrace MaybeStartTrace();

  /// Records the span's stages into the per-stage histograms, pushes
  /// a TraceRecord to the ring, and deactivates the span. No-op for
  /// inactive spans.
  void FinishTrace(RequestTrace* trace, bool ok);

  /// The per-stage histogram (registered as
  /// `engine_stage_<name>_ms`), fed by finished sampled traces.
  LatencyHistogram* stage_histogram(TraceStage stage) {
    return stage_hist_[static_cast<size_t>(stage)];
  }

  /// Completed sampled traces, oldest first.
  std::vector<TraceRecord> SnapshotTraces() const {
    return traces_.Snapshot();
  }
  /// JSONL: one {"trace_id", "t_us", "ok", "stages": {...}} per line.
  std::string TracesJsonl() const { return traces_.ExportJsonl(); }

 private:
  MetricsRegistry metrics_;
  BoundedRing<AuditEvent> audit_;
  FlightRecorder flight_;
  BoundedRing<BurnAlert> burn_alerts_{kBurnAlertCapacity};
  BoundedRing<TraceRecord> traces_{kTraceRingCapacity};

  const uint64_t sample_every_;  ///< 0 = tracing off
  std::atomic<uint64_t> sample_clock_{0};
  std::atomic<uint64_t> next_trace_id_{0};
  LatencyHistogram* stage_hist_[kTraceStageCount];
};

}  // namespace blowfish

#endif  // BLOWFISH_ENGINE_TELEMETRY_H_
