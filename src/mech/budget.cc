#include "mech/budget.h"

#include <algorithm>
#include <limits>
#include <sstream>

#include "common/check.h"

namespace blowfish {

LedgerBalance::LedgerBalance(double total_epsilon) : total_(total_epsilon) {
  BF_CHECK_GT(total_epsilon, 0.0);
}

bool LedgerBalance::CanSpend(double epsilon) const {
  if (epsilon <= 0.0) return false;
  // Tolerance for floating-point budget arithmetic: splits like ε/3
  // accumulate one ulp-scale rounding per committed spend, so the
  // slack is a few ulps of the running sum per committed spend. It
  // must NOT scale multiplicatively with the cap alone (a 1e9 cap with
  // a relative 1e-9 slack would admit ~1 full unit of ε past the
  // bound); ulp-proportional slack stays negligible at every scale.
  const double scale = std::max(total_, spent_ + epsilon);
  const double slack = 4.0 * static_cast<double>(spends_ + 1) *
                       std::numeric_limits<double>::epsilon() * scale;
  return spent_ + epsilon <= total_ + slack;
}

bool LedgerBalance::Spend(double epsilon) {
  if (!CanSpend(epsilon)) return false;
  spent_ += epsilon;
  ++spends_;
  return true;
}

Status LedgerBalance::RestoreSpent(double spent_epsilon) {
  if (spent_epsilon < 0.0) {
    return Status::InvalidArgument("recovered spend must be >= 0");
  }
  if (spends_ != 0) {
    return Status::InvalidArgument(
        "RestoreSpent needs a fresh ledger; this one already recorded " +
        std::to_string(spends_) + " spend(s)");
  }
  if (spent_epsilon == 0.0) return Status::OK();
  // Assignment, not accumulation: the journal replay already performed
  // the ordered `spent += ε` chain, so copying its result preserves
  // bit-exactness with the pre-crash ledger.
  spent_ = spent_epsilon;
  spends_ = 1;
  return Status::OK();
}

Status PrivacyBudget::Spend(double epsilon, const std::string& label) {
  if (epsilon <= 0.0) {
    return Status::InvalidArgument("spend must be positive: " + label);
  }
  if (!balance_.Spend(epsilon)) {
    return Status::InvalidArgument(
        "budget exceeded by '" + label + "': spent " +
        std::to_string(spent()) + " + " + std::to_string(epsilon) + " > " +
        std::to_string(total()));
  }
  ledger_.push_back(Entry{epsilon, label});
  return Status::OK();
}

Status PrivacyBudget::SpendParallel(double epsilon, size_t count,
                                    const std::string& label) {
  if (count == 0) {
    return Status::InvalidArgument("parallel spend needs >= 1 release");
  }
  return Spend(epsilon,
               label + " (parallel x" + std::to_string(count) + ")");
}

std::string PrivacyBudget::ToString() const {
  std::ostringstream out;
  out << "budget " << total() << ", spent " << spent() << ":";
  for (const Entry& e : ledger_) out << "\n  " << e.epsilon << "  " << e.label;
  return out.str();
}

}  // namespace blowfish
