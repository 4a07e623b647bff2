#include "mech/laplace.h"

#include "common/check.h"

namespace blowfish {

Vector AddLaplaceNoise(const Vector& v, double scale, Rng* rng) {
  BF_CHECK(rng != nullptr);
  Vector out = v;
  rng->AddLaplace(out.data(), out.size(), scale);
  return out;
}

Vector LaplaceMechanism::Run(const Vector& x, double epsilon,
                             Rng* rng) const {
  BF_CHECK_GT(epsilon, 0.0);
  return AddLaplaceNoise(x, 1.0 / epsilon, rng);
}

double LaplaceTotalSquaredError(size_t num_queries, double sensitivity,
                                double epsilon) {
  const double scale = sensitivity / epsilon;
  return 2.0 * static_cast<double>(num_queries) * scale * scale;
}

}  // namespace blowfish
