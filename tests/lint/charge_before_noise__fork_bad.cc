// dp_lint fixture: MUST fire charge-before-noise.
// A child stream drawn before the ledger charge: the
// sampler form `rng->Fork(` must count as a draw.
// dp-lint: treat-as src/engine/bad_release.cc

#include "rng/rng.h"

namespace blowfish {

class Accountant {
 public:
  bool Charge(double epsilon);
};

double ReleaseBeforeCharge(Accountant* accountant, double epsilon,
                           Rng* rng) {
  Rng child = rng->Fork();
  if (!accountant->Charge(epsilon)) return 0.0;
  return child.Laplace(1.0 / epsilon);
}

}  // namespace blowfish
