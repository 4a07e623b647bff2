#include "mech/hierarchical.h"

#include <cmath>

#include "common/check.h"
#include "linalg/cg.h"

namespace blowfish {

namespace {

// Level sizes of a b-ary tree over k leaves, from leaves (index 0) to
// the root level (size 1). Level l+1 has ceil(size_l / b) nodes; node
// j at level l+1 covers nodes [j*b, min((j+1)*b, size_l)) at level l.
std::vector<size_t> LevelSizes(size_t k, size_t b) {
  std::vector<size_t> sizes{k};
  while (sizes.back() > 1) {
    sizes.push_back((sizes.back() + b - 1) / b);
  }
  return sizes;
}

// y = T z: evaluates all node sums bottom-up. Output is the
// concatenation of levels, leaves first.
Vector ApplyTree(const Vector& z, const std::vector<size_t>& sizes,
                 size_t b) {
  size_t total = 0;
  for (size_t s : sizes) total += s;
  Vector y(total);
  // Leaves.
  for (size_t i = 0; i < sizes[0]; ++i) y[i] = z[i];
  size_t prev_off = 0;
  size_t off = sizes[0];
  for (size_t l = 1; l < sizes.size(); ++l) {
    for (size_t j = 0; j < sizes[l]; ++j) {
      double acc = 0.0;
      const size_t lo = j * b;
      const size_t hi = std::min((j + 1) * b, sizes[l - 1]);
      for (size_t c = lo; c < hi; ++c) acc += y[prev_off + c];
      y[off + j] = acc;
    }
    prev_off = off;
    off += sizes[l];
  }
  return y;
}

// z = Tᵀ y: pushes node values down; leaf i accumulates the values of
// all its ancestors (and itself).
Vector ApplyTreeTranspose(const Vector& y, const std::vector<size_t>& sizes,
                          size_t b) {
  // Work on a copy of the per-level values, accumulating top-down.
  std::vector<size_t> offsets(sizes.size());
  size_t off = 0;
  for (size_t l = 0; l < sizes.size(); ++l) {
    offsets[l] = off;
    off += sizes[l];
  }
  Vector acc(y);
  for (size_t l = sizes.size(); l-- > 1;) {
    for (size_t j = 0; j < sizes[l]; ++j) {
      const double v = acc[offsets[l] + j];
      const size_t lo = j * b;
      const size_t hi = std::min((j + 1) * b, sizes[l - 1]);
      for (size_t c = lo; c < hi; ++c) acc[offsets[l - 1] + c] += v;
    }
  }
  return Vector(acc.begin(), acc.begin() + sizes[0]);
}

}  // namespace

HierarchicalMechanism::HierarchicalMechanism(size_t branching)
    : branching_(branching) {
  BF_CHECK_GE(branching_, 2u);
}

size_t HierarchicalMechanism::NumLevels(size_t k) const {
  return LevelSizes(k, branching_).size();
}

Vector HierarchicalMechanism::Run(const Vector& x, double epsilon,
                                  Rng* rng) const {
  BF_CHECK_GT(epsilon, 0.0);
  BF_CHECK(rng != nullptr);
  const size_t k = x.size();
  BF_CHECK_GT(k, 0u);
  const std::vector<size_t> sizes = LevelSizes(k, branching_);
  const size_t levels = sizes.size();

  // One record contributes to exactly one node per level, so the
  // node-count vector has L1 sensitivity `levels`.
  const double scale = static_cast<double>(levels) / epsilon;
  Vector y = ApplyTree(x, sizes, branching_);
  rng->AddLaplace(y.data(), y.size(), scale);

  // OLS consistency: solve TᵀT z = Tᵀ y with CG.
  const Vector rhs = ApplyTreeTranspose(y, sizes, branching_);
  const auto normal_op = [&](const Vector& z) {
    return ApplyTreeTranspose(ApplyTree(z, sizes, branching_), sizes,
                              branching_);
  };
  CgOptions options;
  options.rel_tolerance = 1e-9;
  Result<CgResult> solved = ConjugateGradient(normal_op, rhs, options);
  solved.status().Check();  // TᵀT is SPD by construction
  return solved.ValueOrDie().x;
}

}  // namespace blowfish
