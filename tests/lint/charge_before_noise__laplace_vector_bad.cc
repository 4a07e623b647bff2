// dp_lint fixture: MUST fire charge-before-noise.
// A noise vector drawn before the ledger charge: the
// sampler form `rng->LaplaceVector(` must count as a draw.
// dp-lint: treat-as src/engine/bad_release.cc
#include <vector>

#include "rng/rng.h"

namespace blowfish {

class Accountant {
 public:
  bool Charge(double epsilon);
};

std::vector<double> ReleaseBeforeCharge(Accountant* accountant,
                                        double epsilon, Rng* rng) {
  std::vector<double> noisy = rng->LaplaceVector(16, 1.0 / epsilon);
  if (!accountant->Charge(epsilon)) return {};
  return noisy;
}

}  // namespace blowfish
