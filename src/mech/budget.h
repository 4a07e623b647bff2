// Explicit privacy-budget accounting. The paper's strategies lean on
// two composition rules:
//
//   sequential: releases on the same data add their ε's;
//   parallel:   releases on disjoint sub-domains share one ε
//               (one neighbor step touches one part).
//
// LedgerBalance holds one ledger's balance and decides admission; the
// engine's BudgetAccountant keeps one per ledger. PrivacyBudget makes
// the accounting auditable: mechanisms that split budget (DAWA's two
// stages, the Theorem 5.6 slab systems, Lemma 4.5's stretch division)
// can record their spends, and tests can assert the ledger matches the
// claimed guarantee.

#ifndef BLOWFISH_MECH_BUDGET_H_
#define BLOWFISH_MECH_BUDGET_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"

namespace blowfish {

/// \brief One sequential-composition ledger's cap, spent ε and spend
/// count — constant size, no per-spend history.
class LedgerBalance {
 public:
  explicit LedgerBalance(double total_epsilon);

  /// True if a sequential spend of `epsilon` would be accepted. The
  /// single authority on the slack arithmetic; Spend() commits exactly
  /// when this holds. Callers coordinating several ledgers (the
  /// engine's BudgetAccountant) probe with this before committing.
  bool CanSpend(double epsilon) const;

  /// Commits a sequential spend iff CanSpend(epsilon); returns whether
  /// it did (a refusal has no side effects).
  bool Spend(double epsilon);

  /// Journal-replay restore: sets the spent total to exactly
  /// `spent_epsilon` (bit-for-bit the value the write-ahead journal
  /// replayed to), counted as one spend. Unlike Spend this may leave
  /// the ledger exhausted past its cap — a journal that outlived a cap
  /// reduction must still pin every recorded spend, so recovery never
  /// refills a budget. Only meaningful on a fresh ledger (no prior
  /// spends); fails with kInvalidArgument otherwise or when
  /// `spent_epsilon` is negative.
  Status RestoreSpent(double spent_epsilon);

  double total() const { return total_; }
  double spent() const { return spent_; }
  double remaining() const { return total_ - spent_; }
  /// Committed spends, a restore included.
  uint64_t spends() const { return spends_; }

 private:
  double total_;
  double spent_ = 0.0;
  uint64_t spends_ = 0;
};

/// \brief A LedgerBalance plus one labelled entry per spend.
class PrivacyBudget {
 public:
  explicit PrivacyBudget(double total_epsilon) : balance_(total_epsilon) {}

  bool CanSpend(double epsilon) const { return balance_.CanSpend(epsilon); }

  /// Records a sequential spend; fails without side effects if it
  /// would exceed the total.
  Status Spend(double epsilon, const std::string& label);

  /// Parallel composition: `count` releases over disjoint sub-domains
  /// cost max over parts = `epsilon` once; recorded as a single entry.
  Status SpendParallel(double epsilon, size_t count,
                       const std::string& label);

  double total() const { return balance_.total(); }
  double spent() const { return balance_.spent(); }
  double remaining() const { return balance_.remaining(); }

  struct Entry {
    double epsilon;
    std::string label;
  };
  /// One entry per spend, so ledger().size() == the balance's spends().
  const std::vector<Entry>& ledger() const { return ledger_; }

  /// Human-readable audit trail.
  std::string ToString() const;

 private:
  LedgerBalance balance_;
  std::vector<Entry> ledger_;
};

}  // namespace blowfish

#endif  // BLOWFISH_MECH_BUDGET_H_
