// Named-policy registry: the serving layer's catalog. Each entry binds
// a Blowfish policy to the private histogram it protects, the total
// privacy budget the data owner allows across *all* releases on that
// data, and cheap precomputed policy-graph metadata (connectivity,
// degree, shape) that the engine and operators consult without
// touching the graph again.
//
// Entries are immutable once published: Replace() swaps in a new
// shared_ptr and bumps the version, so readers holding the old
// snapshot are never invalidated mid-query. Everything derived from a
// snapshot — its plans and noise-free release transforms — lives in
// the snapshot's own serving slots and dies with it.
//
// Sharding and handles. Entries are partitioned by name hash into
// independently locked shards (read-mostly shared_mutex each), so
// submits against different policies never contend on one lock.
// Resolve() returns a PolicyHandle — shard, slot, generation packed
// into 64 bits — that a caller keeps for the life of the *name
// binding*: Get(handle) indexes the shard's slot vector directly with
// zero hashing, Replace() swaps the entry under the same handle, and
// Unregister() bumps the generation so stale handles fail with
// kNotFound instead of aliasing a later policy of the same name.

#ifndef BLOWFISH_ENGINE_POLICY_REGISTRY_H_
#define BLOWFISH_ENGINE_POLICY_REGISTRY_H_

#include <atomic>
#include <memory>
#include <mutex>
#include <optional>
#include <shared_mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "common/thread_annotations.h"
#include "core/policy.h"
#include "core/planner.h"
#include "engine/budget_accountant.h"
#include "linalg/vector_ops.h"

namespace blowfish {

/// \brief Structural facts about a policy graph, computed once at
/// registration.
struct PolicyMetadata {
  size_t domain_size = 0;
  size_t num_dims = 0;
  size_t num_edges = 0;
  bool has_bottom = false;
  size_t num_components = 0;  ///< ⊥ participates in connectivity
  size_t max_degree = 0;
  bool is_tree = false;  ///< the Theorem 4.3 regime
};

/// \brief What a submit needs from one planner option of a snapshot:
/// the plan and its noise-free release precompute g_G(x). Both depend
/// only on the snapshot (policy graph + data) and the option, so they
/// are built together on first contact and never change afterwards.
struct ServingState {
  Plan plan;
  /// Null when the plan's mechanism has no precompute split; submits
  /// then run the whole mechanism on the raw data.
  std::shared_ptr<const BlowfishMechanism::ReleasePrecompute> precompute;
};

/// The state of a slot of the snapshot registered as `policy_name`
/// over `data`, from a fresh plan: formats the plan's audit context
/// once (every charge on the plan shares it, see ChargeTag::context)
/// and builds the noise-free release precompute unless a decoded one
/// is supplied. Noise-free, so building it before the charge releases
/// nothing.
ServingState BuildServingState(
    const std::string& policy_name, const Vector& data, Plan plan,
    std::shared_ptr<const BlowfishMechanism::ReleasePrecompute> precompute =
        nullptr);

/// The key `version << 1 | option` naming one serving slot (the
/// unit of cold single flight) in a persisted snapshot. Versions are
/// unique across the registry, so a key never aliases another policy.
inline uint64_t ServingSlotKey(uint64_t version, size_t option) {
  return (version << 1) | option;
}

/// \brief One planner option's lazily built ServingState. Published at
/// most once and never cleared, so a warm read is one acquire load and
/// a Replace/Unregister can never serve a stale plan or transform: the
/// slot dies with its snapshot.
class ServingSlot {
 public:
  ServingSlot() = default;
  ServingSlot(const ServingSlot&) = delete;
  ServingSlot& operator=(const ServingSlot&) = delete;

  /// The published state, or null while the slot is cold.
  const ServingState* get() const {
    return state_.load(std::memory_order_acquire);
  }

  /// Returns the published state, running `build` (a callable
  /// returning Result<ServingState>) when the slot is cold. Single
  /// flight: cold callers queue on the slot's mutex and find the
  /// leader's state published. A failed build publishes nothing, so
  /// the next caller retries. `*built` is true only for a caller that
  /// ran `build`, successful or not.
  template <typename Build>
  Result<const ServingState*> GetOrBuild(const Build& build, bool* built) {
    *built = false;
    if (const ServingState* warm = get()) return warm;
    std::lock_guard<std::mutex> lock(build_mu_);
    if (const ServingState* warm = get()) return warm;
    *built = true;
    Result<ServingState> made = build();
    if (!made.ok()) return made.status();
    owned_ =
        std::make_unique<const ServingState>(std::move(made).ValueOrDie());
    state_.store(owned_.get(), std::memory_order_release);
    return owned_.get();
  }

 private:
  std::atomic<const ServingState*> state_{nullptr};
  std::mutex build_mu_;
  std::unique_ptr<const ServingState> owned_ GUARDED_BY(build_mu_);
};

/// \brief One published policy: graph + protected data + budget cap.
struct RegisteredPolicy {
  std::string name;
  Policy policy;
  Vector data;         ///< the private histogram served under `policy`
  double epsilon_cap;  ///< total ε permitted across all releases
  PolicyMetadata metadata;
  /// Unique across the registry's lifetime (monotonic counter, never
  /// reused even through Unregister+Register under the same name), so
  /// (name, version) keys — budget ledgers, serving-slot keys — can
  /// never alias a different entry.
  uint64_t version = 0;
  /// This version's budget-cap ledger, resolved once at registration
  /// so a warm submit charges the cap without touching the
  /// accountant's id map.
  LedgerHandle ledger;
  /// Engine-managed serving state per planner option set ([0]
  /// data-independent, [1] data-dependent). A Replace starts the new
  /// version with cold slots while in-flight readers keep the old
  /// snapshot's state.
  mutable ServingSlot slots[2];
};

/// \brief Opaque reference to a registered name. Cheap to copy;
/// remains valid across Replace() (it names the binding, not the
/// version) and goes stale on Unregister().
class PolicyHandle {
 public:
  PolicyHandle() = default;
  bool valid() const { return bits_ != 0; }
  uint64_t bits() const { return bits_; }

  friend bool operator==(PolicyHandle a, PolicyHandle b) {
    return a.bits_ == b.bits_;
  }

 private:
  friend class PolicyRegistry;
  /// Same packing as LedgerHandle: bit 63 marks a constructed handle,
  /// bits 40..62 the slot, 32..39 the shard, 0..31 the full
  /// generation counter (no wrap-aliasing short of 2^32 unregister
  /// cycles of one slot).
  PolicyHandle(uint32_t shard, uint32_t slot, uint32_t generation)
      : bits_((1ull << 63) | (static_cast<uint64_t>(slot) << 40) |
              (static_cast<uint64_t>(shard) << 32) | generation) {}
  uint32_t shard() const { return (bits_ >> 32) & 0xFFu; }
  uint32_t slot() const { return (bits_ >> 40) & 0x7FFFFFu; }
  uint32_t generation() const { return static_cast<uint32_t>(bits_); }

  uint64_t bits_ = 0;
};

/// \brief Thread-safe, sharded name -> RegisteredPolicy map with
/// copy-free snapshot reads.
class PolicyRegistry {
 public:
  /// Power of two; shard = name-hash & (kShardCount - 1).
  static constexpr size_t kShardCount = 8;

  /// Hands out a version number that will never be used by anyone
  /// else. Callers that key external resources (budget ledgers) by
  /// (name, version) reserve first, set the resources up, then pass
  /// the reservation to Register/Replace — so by the time readers can
  /// see the version, its resources already exist.
  uint64_t ReserveVersion() { return next_version_.fetch_add(1); }

  /// Publishes a new entry under `version` (reserved internally when
  /// omitted), carrying `ledger` as the version's cap-ledger handle.
  /// Fails with kAlreadyExists if `name` is taken and kInvalidArgument
  /// if `data` does not match the domain or `epsilon_cap` is not
  /// positive.
  Status Register(const std::string& name, Policy policy, Vector data,
                  double epsilon_cap,
                  std::optional<uint64_t> version = std::nullopt,
                  LedgerHandle ledger = LedgerHandle());

  /// Atomically swaps the entry for `name` (new data and/or policy)
  /// under a fresh version. Existing handles to the name stay valid
  /// and see the new entry. Fails with kNotFound if absent.
  Status Replace(const std::string& name, Policy policy, Vector data,
                 double epsilon_cap,
                 std::optional<uint64_t> version = std::nullopt,
                 LedgerHandle ledger = LedgerHandle());

  /// Removes the entry; kNotFound if absent. Handles go stale.
  Status Unregister(const std::string& name);

  /// Snapshot of the entry; kNotFound if absent. The snapshot stays
  /// valid (and immutable) even if the entry is replaced afterwards.
  Result<std::shared_ptr<const RegisteredPolicy>> Get(
      const std::string& name) const;

  /// Handle fast path: one shared lock + one slot index, no hashing.
  Result<std::shared_ptr<const RegisteredPolicy>> Get(
      PolicyHandle handle) const;

  /// The handle for a registered name; kNotFound if absent.
  Result<PolicyHandle> Resolve(const std::string& name) const;

  /// Registered names, unordered.
  std::vector<std::string> Names() const;

  /// The current snapshot of every registered name, unordered.
  std::vector<std::shared_ptr<const RegisteredPolicy>> Snapshots() const;

  size_t size() const;

 private:
  struct Slot {
    std::shared_ptr<const RegisteredPolicy> entry;  ///< null = free
    uint32_t generation = 1;                        ///< bumped on unregister
  };
  struct Shard {
    mutable std::shared_mutex mu;
    std::vector<Slot> slots GUARDED_BY(mu);
    std::vector<uint32_t> free_slots GUARDED_BY(mu);
    std::unordered_map<std::string, uint32_t> by_name GUARDED_BY(mu);
  };

  static size_t ShardOf(const std::string& name) {
    return std::hash<std::string>{}(name) & (kShardCount - 1);
  }

  /// Uses the reservation if given (advancing the counter past it so
  /// it can never be handed out again); reserves otherwise.
  uint64_t ClaimVersion(std::optional<uint64_t> version) {
    if (!version.has_value()) return ReserveVersion();
    uint64_t expected = next_version_.load();
    while (expected <= *version &&
           !next_version_.compare_exchange_weak(expected, *version + 1)) {
    }
    return *version;
  }

  Shard shards_[kShardCount];
  std::atomic<uint64_t> next_version_{0};
};

/// Computes the metadata block for a policy (graph scans only; no
/// transform or planning work).
PolicyMetadata ComputePolicyMetadata(const Policy& policy);

}  // namespace blowfish

#endif  // BLOWFISH_ENGINE_POLICY_REGISTRY_H_
