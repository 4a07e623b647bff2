// dp_lint fixture: MUST fire charge-before-noise.
// A raw generator word drawn before the ledger charge: the
// sampler form `(*rng)(` must count as a draw.
// dp-lint: treat-as src/engine/bad_release.cc

#include "rng/rng.h"

namespace blowfish {

class Accountant {
 public:
  bool Charge(double epsilon);
};

uint64_t ReleaseBeforeCharge(Accountant* accountant, double epsilon,
                             Rng* rng) {
  const uint64_t word = (*rng)();
  if (!accountant->Charge(epsilon)) return 0;
  return word;
}

}  // namespace blowfish
