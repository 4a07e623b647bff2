#include "engine/budget_accountant.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <sstream>
#include <utility>

#include "engine/record_file.h"

namespace blowfish {

namespace {
int64_t BurnClockMicros(const BurnRateConfig& config) {
  return config.now_micros ? config.now_micros() : WallMicros();
}
}  // namespace

// --------------------------------------------------------- burn rate

void BudgetAccountant::BurnWindow::Advance(int64_t now_us, double window_s) {
  const double width_us = window_s * 1e6 / static_cast<double>(kBuckets);
  const int64_t bucket =
      width_us <= 0.0 ? 0
                      : static_cast<int64_t>(
                            static_cast<double>(now_us) / width_us);
  if (newest < 0) {
    for (double& b : spend) b = 0.0;
    newest = bucket;
    return;
  }
  // A clock stepping backwards just keeps accumulating into the
  // current bucket — rates smear slightly, accounting is unaffected.
  if (bucket <= newest) return;
  const int64_t steps = bucket - newest;
  if (steps >= static_cast<int64_t>(kBuckets)) {
    for (double& b : spend) b = 0.0;
  } else {
    for (int64_t s = 1; s <= steps; ++s) {
      spend[static_cast<size_t>(newest + s) % kBuckets] = 0.0;
    }
  }
  newest = bucket;
}

double BudgetAccountant::BurnWindow::Sum() const {
  double total = 0.0;
  for (const double b : spend) total += b;
  return total;
}

void BudgetAccountant::UpdateBurn(Slot* slot, double epsilon,
                                  double balance) {
  if (!burn_config_.enabled) return;
  const int64_t now_us = BurnClockMicros(burn_config_);
  slot->burn.fast.Advance(now_us, burn_config_.fast_window_s);
  slot->burn.slow.Advance(now_us, burn_config_.slow_window_s);
  slot->burn.fast.Add(epsilon);
  slot->burn.slow.Add(epsilon);
  const double fast_rate =
      slot->burn.fast.Sum() / burn_config_.fast_window_s;
  const double slow_rate =
      slot->burn.slow.Sum() / burn_config_.slow_window_s;
  const double inf = std::numeric_limits<double>::infinity();
  const double projected_fast = fast_rate > 0.0 ? balance / fast_rate : inf;
  const double projected_slow = slow_rate > 0.0 ? balance / slow_rate : inf;
  // Both windows must project exhaustion inside the horizon: the fast
  // window reacts within seconds of a burst, the slow window keeps a
  // single spike from flapping the alert.
  const bool alerting = projected_fast < burn_config_.alert_horizon_s &&
                        projected_slow < burn_config_.alert_horizon_s;
  if (alerting == slot->burn.alerting) return;
  slot->burn.alerting = alerting;
  burn_active_.fetch_add(alerting ? 1 : -1, std::memory_order_relaxed);
  if (alerting) burn_fired_.fetch_add(1, std::memory_order_relaxed);
  if (burn_alerts_ == nullptr) return;
  BurnAlert alert;
  alert.fired = alerting;
  alert.wall_micros = now_us;
  alert.ledger_id = slot->id;
  alert.remaining = balance;
  alert.fast_rate = fast_rate;
  alert.slow_rate = slow_rate;
  alert.projected_s = projected_fast;
  burn_alerts_->Push(std::move(alert));
}

void BudgetAccountant::RetireBurn(Slot* slot) {
  if (slot->burn.alerting) {
    burn_active_.fetch_sub(1, std::memory_order_relaxed);
    if (burn_alerts_ != nullptr) {
      BurnAlert alert;
      alert.fired = false;
      alert.wall_micros = BurnClockMicros(burn_config_);
      alert.ledger_id = slot->id;
      alert.remaining = slot->balance->remaining();
      burn_alerts_->Push(std::move(alert));
    }
  }
  slot->burn = BurnState{};
}

void BudgetAccountant::FreeSlot(Shard* shard, uint32_t slot_index) {
  Slot& slot = shard->slots[slot_index];
  RetireBurn(&slot);
  slot.balance.reset();
  slot.id.clear();
  ++slot.generation;  // outstanding handles go stale
  shard->free_slots.push_back(slot_index);
}

BudgetAccountant::Slot* BudgetAccountant::SlotFor(LedgerHandle handle) {
  return const_cast<Slot*>(
      static_cast<const BudgetAccountant*>(this)->SlotFor(handle));
}

const BudgetAccountant::Slot* BudgetAccountant::SlotFor(
    LedgerHandle handle) const {
  if (!handle.valid() || handle.shard() >= kShardCount) return nullptr;
  const Shard& shard = shards_[handle.shard()];
  if (handle.slot() >= shard.slots.size()) return nullptr;
  const Slot& slot = shard.slots[handle.slot()];
  if (!slot.balance.has_value() ||
      slot.generation != handle.generation()) {
    return nullptr;
  }
  return &slot;
}

Result<LedgerHandle> BudgetAccountant::OpenLedger(const std::string& id,
                                                  double total_epsilon) {
  if (!(total_epsilon > 0.0)) {  // NaN too
    return Status::InvalidArgument("ledger '" + id +
                                   "' needs a positive budget");
  }
  if (id.size() > record_file::kMaxStringBytes) {
    return Status::InvalidArgument(
        "ledger id of " + std::to_string(id.size()) +
        " bytes exceeds the journal's limit of " +
        std::to_string(record_file::kMaxStringBytes));
  }
  const size_t shard_index = ShardOf(id);
  Shard& shard = shards_[shard_index];
  std::lock_guard<std::mutex> lock(shard.mu);
  if (shard.by_id.count(id) > 0) {
    return Status(StatusCode::kAlreadyExists,
                  "ledger '" + id + "' is already open");
  }
  uint32_t slot_index;
  if (!shard.free_slots.empty()) {
    slot_index = shard.free_slots.back();
    shard.free_slots.pop_back();
  } else {
    slot_index = static_cast<uint32_t>(shard.slots.size());
    shard.slots.emplace_back();
  }
  Slot& slot = shard.slots[slot_index];
  slot.balance.emplace(total_epsilon);
  slot.id = id;
  // Under this shard lock no charge on `id` can push in between, so
  // every event at or below the floor belongs to an earlier ledger.
  slot.audit_floor = audit_log_ != nullptr ? audit_log_->total() : 0;
  // Re-opening an id the crash journal has a balance for: restore the
  // pre-crash spent total onto the fresh ledger before any charge can
  // see it. Consumed exactly once — the journal hands the balance out
  // and forgets it (later checkpoints snapshot the live ledger).
  if (journal_ != nullptr) {
    RecoveredLedger recovered;
    if (journal_->TakeRecovered(id, &recovered)) {
      Status restored = slot.balance->RestoreSpent(recovered.spent);
      if (!restored.ok()) {
        // The balance could not be applied — hand it back so a retried
        // OpenLedger fails the same way instead of silently succeeding
        // with a refilled budget, and checkpoints keep carrying it.
        journal_->ReturnRecovered(id, recovered);
        FreeSlot(&shard, slot_index);
        return restored;
      }
    }
  }
  shard.by_id.emplace(id, slot_index);
  return LedgerHandle(static_cast<uint32_t>(shard_index), slot_index,
                      slot.generation);
}

Status BudgetAccountant::CloseLedger(LedgerHandle handle) {
  if (!handle.valid() || handle.shard() >= kShardCount) {
    return Status::NotFound("ledger handle is invalid");
  }
  Shard& shard = shards_[handle.shard()];
  std::lock_guard<std::mutex> lock(shard.mu);
  Slot* slot = SlotFor(handle);
  if (slot == nullptr) {
    return Status::NotFound("ledger handle is stale");
  }
  shard.by_id.erase(slot->id);
  FreeSlot(&shard, handle.slot());
  return Status::OK();
}

size_t BudgetAccountant::CloseLedgersWithPrefix(const std::string& prefix) {
  // Prefix matches land in arbitrary shards (ids hash individually),
  // so every shard is scanned.
  size_t removed = 0;
  for (Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    for (auto it = shard.by_id.begin(); it != shard.by_id.end();) {
      if (it->first.compare(0, prefix.size(), prefix) == 0) {
        FreeSlot(&shard, it->second);
        it = shard.by_id.erase(it);
        ++removed;
      } else {
        ++it;
      }
    }
  }
  return removed;
}

Result<LedgerHandle> BudgetAccountant::Resolve(const std::string& id) const {
  const size_t shard_index = ShardOf(id);
  const Shard& shard = shards_[shard_index];
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.by_id.find(id);
  if (it == shard.by_id.end()) {
    return Status::NotFound("ledger '" + id + "' is not open");
  }
  return LedgerHandle(static_cast<uint32_t>(shard_index), it->second,
                      shard.slots[it->second].generation);
}

Status BudgetAccountant::Charge(const LedgerHandle* handles, size_t count,
                                double epsilon, const ChargeTag& tag,
                                double* remaining) {
  if (count == 0) {
    return Status::InvalidArgument("charge needs at least one ledger");
  }
  if (epsilon <= 0.0) {
    return Status::InvalidArgument("charge must be positive: " +
                                   std::string(tag.workload));
  }
  if (tag.parallel_count == 0) {
    return Status::InvalidArgument("parallel charge needs >= 1 release");
  }
  // Lock every involved shard in ascending index order (deadlock-free
  // against concurrent multi-shard charges).
  bool involved[kShardCount] = {false};
  for (size_t i = 0; i < count; ++i) {
    if (!handles[i].valid() || handles[i].shard() >= kShardCount) {
      return Status::NotFound("ledger handle is invalid");
    }
    involved[handles[i].shard()] = true;
  }
  std::unique_lock<std::mutex> locks[kShardCount];
  for (size_t s = 0; s < kShardCount; ++s) {
    if (involved[s]) locks[s] = std::unique_lock<std::mutex>(shards_[s].mu);
  }
  // Validate everything before committing anything. A repeated handle
  // composes sequentially within the charge, so a ledger named n
  // times must afford n*epsilon. Refusals are audited (still under
  // the shard locks, like spends) — a refused query releases nothing,
  // but the refusal itself is part of the spend record.
  for (size_t i = 0; i < count; ++i) {
    const Slot* slot = SlotFor(handles[i]);
    if (slot == nullptr) {
      // Refusals are journaled best-effort: losing one loses a line of
      // history but spends nothing, so it must not block the refusal.
      (void)AppendJournalCharge(handles, count, epsilon, tag,
                                /*charged=*/false, StatusCode::kNotFound);
      RecordAudit(handles, count, epsilon, tag, /*charged=*/false,
                  StatusCode::kNotFound, nullptr);
      return Status::NotFound("ledger handle is stale or closed");
    }
    size_t times = 1;
    for (size_t j = 0; j < i; ++j) {
      if (handles[j] == handles[i]) ++times;
    }
    if (!slot->balance->CanSpend(static_cast<double>(times) * epsilon)) {
      (void)AppendJournalCharge(handles, count, epsilon, tag,
                                /*charged=*/false, StatusCode::kOutOfRange);
      RecordAudit(handles, count, epsilon, tag, /*charged=*/false,
                  StatusCode::kOutOfRange, nullptr);
      return Status::OutOfRange(
          "ledger '" + slot->id + "': budget exceeded by '" +
          std::string(tag.workload) +
          (tag.context != nullptr ? " on " + *tag.context : std::string()) +
          "': spent " + std::to_string(slot->balance->spent()) + " + " +
          std::to_string(static_cast<double>(times) * epsilon) + " > " +
          std::to_string(slot->balance->total()));
    }
  }
  // Write-ahead barrier: the spend record must be durable before the
  // first ledger commits (and noise is drawn only after Charge returns
  // OK — dp_lint's `journal-before-admit` and `charge-before-noise`
  // rules pin the two halves of that ordering). A journal that cannot
  // make the record durable refuses the whole charge here, with every
  // ledger still untouched: the engine fails closed.
  if (journal_ != nullptr) {
    Status journaled = AppendJournalCharge(handles, count, epsilon, tag,
                                           /*charged=*/true, StatusCode::kOk);
    if (!journaled.ok()) {
      RecordAudit(handles, count, epsilon, tag, /*charged=*/false,
                  StatusCode::kUnavailableDurability, nullptr);
      return journaled;
    }
  }
  double balances[AuditEvent::kMaxLedgers];
  for (size_t i = 0; i < count; ++i) {
    Slot* slot = SlotFor(handles[i]);
    // Validated above under the same (still-held) shard locks, so the
    // slot cannot have gone stale between the two loops.
    BF_DCHECK(slot != nullptr);
    const bool committed = slot->balance->Spend(epsilon);
    BF_CHECK(committed);
    const double balance = slot->balance->remaining();
    if (remaining != nullptr) remaining[i] = balance;
    if (i < AuditEvent::kMaxLedgers) balances[i] = balance;
    // Burn-rate tracking rides the commit loop: same shard locks, so
    // alert order is consistent with audit/spend order.
    UpdateBurn(slot, epsilon, balance);
  }
  // Still under every involved shard lock: the append's position in
  // the log matches this charge's position in each ledger's spend
  // order, which is what makes the JSONL replayable bit-for-bit.
  RecordAudit(handles, count, epsilon, tag, /*charged=*/true, StatusCode::kOk,
              balances);
  return Status::OK();
}

Status BudgetAccountant::AppendJournalCharge(const LedgerHandle* handles,
                                             size_t count, double epsilon,
                                             const ChargeTag& tag,
                                             bool charged,
                                             StatusCode refusal) {
  if (journal_ == nullptr) return Status::OK();
  // Every handle gets its own journal line — unlike the audit ring's
  // fixed-width event, the write-ahead record must cover the whole
  // charge, so wide charges spill to the heap instead of truncating
  // (an un-journaled spend would be refilled by recovery). Charges
  // wider than the wire format's line count are refused by
  // AppendCharge itself, fail closed.
  LedgerJournal::ChargeLine inline_lines[AuditEvent::kMaxLedgers];
  std::vector<LedgerJournal::ChargeLine> heap_lines;
  LedgerJournal::ChargeLine* lines = inline_lines;
  if (count > AuditEvent::kMaxLedgers) {
    heap_lines.resize(count);
    lines = heap_lines.data();
  }
  size_t num_lines = 0;
  for (size_t i = 0; i < count; ++i) {
    const Slot* slot = SlotFor(handles[i]);
    if (slot == nullptr) continue;  // stale handle on a refusal
    LedgerJournal::ChargeLine& line = lines[num_lines++];
    line.id = &slot->id;
    if (!charged) {
      line.remaining = slot->balance->remaining();
      continue;
    }
    // Prospective post-charge balance, computed by replaying the chain
    // of spends the commit loop is about to perform on this ledger (a
    // handle repeated n times composes sequentially). Same doubles in
    // the same order as LedgerBalance::Spend's `spent += ε`, so the
    // journaled balance is bit-identical to what the ledger will hold —
    // and to what recovery replays.
    double prospective = slot->balance->spent();
    for (size_t j = 0; j <= i; ++j) {
      if (handles[j] == handles[i]) prospective += epsilon;
    }
    line.remaining = slot->balance->total() - prospective;
  }
  return journal_->AppendCharge(charged, refusal, epsilon, tag.parallel_count,
                                tag.workload, tag.context.get(), lines,
                                num_lines);
}

Status BudgetAccountant::WriteCheckpoint() {
  if (journal_ == nullptr) return Status::OK();
  // Every shard locked, ascending (the same deadlock-free order
  // Charge uses), so the snapshot is one consistent cut: no charge can
  // be mid-commit across it, and none can append to the journal while
  // the checkpoint record is placed.
  std::unique_lock<std::mutex> locks[kShardCount];
  for (size_t s = 0; s < kShardCount; ++s) {
    locks[s] = std::unique_lock<std::mutex>(shards_[s].mu);
  }
  std::vector<JournalRecord::CheckpointLine> snapshot;
  for (const Shard& shard : shards_) {
    for (const auto& [id, slot_index] : shard.by_id) {
      const Slot& slot = shard.slots[slot_index];
      snapshot.push_back(JournalRecord::CheckpointLine{
          id, slot.balance->total(), slot.balance->spent()});
    }
  }
  return journal_->Checkpoint(snapshot);
}

void BudgetAccountant::RecordAudit(const LedgerHandle* handles, size_t count,
                                   double epsilon, const ChargeTag& tag,
                                   bool charged, StatusCode refusal,
                                   const double* balances) {
  if (audit_log_ == nullptr || !audit_log_->enabled()) return;
  AuditEvent event;
  event.wall_micros = WallMicros();
  event.charged = charged;
  event.refusal = refusal;
  event.epsilon = epsilon;
  event.parallel_count = tag.parallel_count;
  event.workload.assign(tag.workload.data(), tag.workload.size());
  event.context = tag.context;
  for (size_t i = 0; i < count && i < AuditEvent::kMaxLedgers; ++i) {
    const Slot* slot = SlotFor(handles[i]);
    if (slot == nullptr) continue;  // stale handle on a refusal
    AuditEvent::LedgerLine& line = event.ledgers[event.num_ledgers++];
    line.id = slot->id;
    line.remaining =
        balances != nullptr ? balances[i] : slot->balance->remaining();
  }
  audit_log_->Push(std::move(event));
}

Status BudgetAccountant::Charge(const std::vector<std::string>& ids,
                                double epsilon, const std::string& label) {
  if (ids.empty()) {
    return Status::InvalidArgument("charge needs at least one ledger");
  }
  std::vector<LedgerHandle> handles;
  handles.reserve(ids.size());
  for (const std::string& id : ids) {
    Result<LedgerHandle> handle = Resolve(id);
    if (!handle.ok()) return handle.status();
    handles.push_back(*handle);
  }
  ChargeTag tag;
  tag.workload = label;
  // A ledger closed between Resolve and Charge surfaces as a stale
  // handle — the same kNotFound the one-lock implementation reported.
  return Charge(handles.data(), handles.size(), epsilon, tag);
}

Result<double> BudgetAccountant::Remaining(const std::string& id) const {
  const Shard& shard = shards_[ShardOf(id)];
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.by_id.find(id);
  if (it == shard.by_id.end()) {
    return Status::NotFound("ledger '" + id + "' is not open");
  }
  return shard.slots[it->second].balance->remaining();
}

Result<double> BudgetAccountant::Remaining(LedgerHandle handle) const {
  if (!handle.valid() || handle.shard() >= kShardCount) {
    return Status::NotFound("ledger handle is invalid");
  }
  const Shard& shard = shards_[handle.shard()];
  std::lock_guard<std::mutex> lock(shard.mu);
  const Slot* slot = SlotFor(handle);
  if (slot == nullptr) {
    return Status::NotFound("ledger handle is stale");
  }
  return slot->balance->remaining();
}

Result<double> BudgetAccountant::Spent(const std::string& id) const {
  const Shard& shard = shards_[ShardOf(id)];
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.by_id.find(id);
  if (it == shard.by_id.end()) {
    return Status::NotFound("ledger '" + id + "' is not open");
  }
  return shard.slots[it->second].balance->spent();
}

Result<std::string> BudgetAccountant::Audit(const std::string& id) const {
  const Shard& shard = shards_[ShardOf(id)];
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.by_id.find(id);
  if (it == shard.by_id.end()) {
    return Status::NotFound("ledger '" + id + "' is not open");
  }
  const Slot& slot = shard.slots[it->second];
  // Charges on `id` push their events under this shard lock, so the
  // ring's events for it are complete and in spend order here. A
  // handle named n times in one charge is n spends, one line each.
  std::ostringstream spends;
  uint64_t listed = 0;
  for (const AuditEvent& event : audit_log_ != nullptr
                                     ? audit_log_->Snapshot()
                                     : std::vector<AuditEvent>()) {
    if (!event.charged || event.seq <= slot.audit_floor) continue;
    for (size_t i = 0; i < event.num_ledgers; ++i) {
      if (event.ledgers[i].id != id) continue;
      ++listed;
      spends << "\n  " << event.epsilon << "  " << event.workload;
      if (event.context != nullptr) spends << " on " << *event.context;
      if (event.parallel_count > 1) {
        spends << " (parallel x" << event.parallel_count << ")";
      }
    }
  }
  const LedgerBalance& balance = *slot.balance;
  std::ostringstream out;
  out << "budget " << balance.total() << ", spent " << balance.spent() << ":";
  if (listed < balance.spends()) {
    out << "\n  (" << balance.spends() - listed
        << " spend(s) not in the audit ring"
        << (journal_ != nullptr ? "; the journal keeps them)" : ")");
  }
  out << spends.str();
  return out.str();
}

}  // namespace blowfish
