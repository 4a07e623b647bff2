// dp_lint fixture: MUST fire charge-before-noise.
// A shuffle through the raw engine drawn before the ledger charge: the
// sampler form `rng.engine(` must count as a draw.
// dp-lint: treat-as src/engine/bad_release.cc
#include <algorithm>
#include <vector>

#include "rng/rng.h"

namespace blowfish {

class Accountant {
 public:
  bool Charge(double epsilon);
};

bool ReleaseBeforeCharge(Accountant* accountant, double epsilon,
                         std::vector<double>* cells, Rng& rng) {
  std::shuffle(cells->begin(), cells->end(), rng.engine());
  return accountant->Charge(epsilon);
}

}  // namespace blowfish
