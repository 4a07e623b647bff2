// dp_lint fixture: MUST fire charge-before-noise.
// An exponential-mechanism pick drawn before the ledger charge: the
// sampler form `rng->Categorical(` must count as a draw.
// dp-lint: treat-as src/engine/bad_release.cc
#include <vector>

#include "rng/rng.h"

namespace blowfish {

class Accountant {
 public:
  bool Charge(double epsilon);
};

size_t ReleaseBeforeCharge(Accountant* accountant, double epsilon,
                           const std::vector<double>& weights, Rng* rng) {
  const size_t pick = rng->Categorical(weights);
  if (!accountant->Charge(epsilon)) return 0;
  return pick;
}

}  // namespace blowfish
