// Shared parameters of the serving benchmark, the summary statistics it
// reports, and the isolated per-layer runs of the traced mode.

#ifndef PERFBENCH_LAYERS_H_
#define PERFBENCH_LAYERS_H_

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "core/policy.h"
#include "linalg/vector_ops.h"
#include "rng/rng.h"

namespace perfbench {

inline constexpr size_t kClientThreads = 3;
inline constexpr uint64_t kEngineSeed = 0x5EEDB10Full;
inline constexpr double kEpsilon = 0.01;
// Far above any run's spend (a few 10^4 ε at most) yet small enough
// that cap - remaining reads the spent ε back to ~6e-11 absolute, which
// the 1e-9 relative ledger check needs. At 1e12 the double spacing
// (1.2e-4) alone would fail it.
inline constexpr double kCap = 1e6;
/// Ranges per range request.
inline constexpr size_t kRanges = 200;

/// Count, quartiles and p99 of a sample (linear interpolation).
struct Summary {
  size_t count = 0;
  double p25 = 0.0, p50 = 0.0, p75 = 0.0, p99 = 0.0;
};

inline double Quantile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return sorted[lo] + (sorted[hi] - sorted[lo]) * frac;
}

inline Summary Summarize(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  Summary s;
  s.count = values.size();
  s.p25 = Quantile(values, 0.25);
  s.p50 = Quantile(values, 0.50);
  s.p75 = Quantile(values, 0.75);
  s.p99 = Quantile(values, 0.99);
  return s;
}

/// One row of the per-layer table.
struct LayerMetric {
  std::string name;
  std::string unit;
  Summary summary;
  double value = 0.0;  ///< reported value (the median unless stated)
};

/// A metric read once (a count or a ratio over `count` events).
inline LayerMetric Reading(std::string name, std::string unit, double value,
                           size_t count) {
  return {std::move(name), std::move(unit), {count, value, value, value, value},
          value};
}

/// A sampled metric, reported as its median.
inline LayerMetric Sampled(std::string name, std::string unit,
                           std::vector<double> samples) {
  LayerMetric m{std::move(name), std::move(unit), Summarize(std::move(samples))};
  m.value = m.summary.p50;
  return m;
}

/// A seeded data ramp: x[i] = (offset + i * step) mod period.
inline blowfish::Vector SeededRamp(size_t n, blowfish::Rng* rng) {
  const size_t step = static_cast<size_t>(rng->UniformInt(1, 7));
  const size_t offset = static_cast<size_t>(rng->UniformInt(0, 15));
  const size_t period = static_cast<size_t>(rng->UniformInt(8, 16));
  blowfish::Vector x(n);
  for (size_t i = 0; i < n; ++i) {
    x[i] = static_cast<double>((offset + i * step) % period);
  }
  return x;
}

/// The policies the workloads register, by the name both the workloads
/// and the per-layer metrics use.
inline constexpr const char* kWorkloadPolicies[] = {
    "line",   "theta", "grid",  "slab",    "dp",
    "line64", "dp64",  "grid8", "tgrid64", "line4096"};

/// The workload policy called `name` (one of kWorkloadPolicies).
inline blowfish::Policy WorkloadPolicy(const std::string& name) {
  using blowfish::DomainShape;
  if (name == "line") return blowfish::LinePolicy(1024);
  if (name == "theta") return blowfish::Theta1DPolicy(1024, 4);
  if (name == "grid") return blowfish::GridPolicy(DomainShape({16, 16}), 1);
  if (name == "slab") return blowfish::GridPolicy(DomainShape({16, 16}), 4);
  if (name == "dp") return blowfish::UnboundedDpPolicy(1024);
  if (name == "line64") return blowfish::LinePolicy(64);
  if (name == "dp64") return blowfish::UnboundedDpPolicy(64);
  if (name == "grid8") return blowfish::GridPolicy(DomainShape({8, 8}), 1);
  if (name == "tgrid64") return blowfish::GridPolicy(DomainShape({64, 64}), 4);
  return blowfish::LinePolicy(4096);  // "line4096"
}

/// Each layer's public functions, called directly on the workloads'
/// inputs from a single thread (the x3 variants from kClientThreads):
/// noise draws, isotonic fit, plan and precompute of every workload
/// policy, releases, answering, range reconstruction, the accountant's
/// charge, warm submits and the journal's fsync'd append. Journal files
/// go under `work_dir`; failures land in `errors`.
std::vector<LayerMetric> IsolatedLayers(uint64_t seed,
                                        const std::string& work_dir,
                                        std::vector<std::string>* errors);

}  // namespace perfbench

#endif  // PERFBENCH_LAYERS_H_
