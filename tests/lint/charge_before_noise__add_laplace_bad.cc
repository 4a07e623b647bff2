// dp_lint fixture: MUST fire charge-before-noise.
// Noise added in place drawn before the ledger charge: the
// sampler form `rng->AddLaplace(` must count as a draw.
// dp-lint: treat-as src/engine/bad_release.cc
#include <vector>

#include "rng/rng.h"

namespace blowfish {

class Accountant {
 public:
  bool Charge(double epsilon);
};

bool ReleaseBeforeCharge(Accountant* accountant, double epsilon,
                         std::vector<double>* counts, Rng* rng) {
  rng->AddLaplace(counts->data(), counts->size(), 1.0 / epsilon);
  return accountant->Charge(epsilon);
}

}  // namespace blowfish
