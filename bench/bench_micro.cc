// Microbenchmarks (google-benchmark): throughput of the computational
// kernels underlying the mechanisms — the Laplace fill kernel every
// release draws its noise through, wavelet transforms, isotonic
// regression, the DAWA partition DP, the policy transform, the sparse
// workload transform, and the θ-grid range mechanism's two layers
// (noisy slab releases, per-query reconstruction).

#include <benchmark/benchmark.h>

#include "core/mechanisms_kd.h"
#include "core/pg_matrix.h"
#include "core/transform.h"
#include "mech/consistency.h"
#include "mech/dawa.h"
#include "mech/privelet.h"
#include "rng/rng.h"
#include "workload/builders.h"

namespace blowfish {
namespace {

Vector RandomVector(size_t n, uint64_t seed) {
  Rng rng(seed);
  Vector v(n);
  for (double& x : v) x = rng.Uniform(0, 100);
  return v;
}

// The noise draw every release family shares: constant-scale fills at
// a release-sized and a large n, and Privelet's per-coefficient scales.
// Items are draws, so items_per_second inverts to ns per draw.
void BM_LaplaceFill(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  Vector v(n, 0.0);
  Rng rng(5);
  for (auto _ : state) {
    rng.AddLaplace(v.data(), n, 100.0);
    benchmark::DoNotOptimize(v.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_LaplaceFill)->Arg(1024)->Arg(65536);

void BM_AddLaplacePerElementScale(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const Vector weights = RandomVector(n, 6);
  Vector v(n, 0.0);
  Rng rng(7);
  for (auto _ : state) {
    rng.AddLaplace(v.data(), n,
                   [&](size_t i) { return 1.0 / (0.5 + weights[i]); });
    benchmark::DoNotOptimize(v.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_AddLaplacePerElementScale)->Arg(4096);

void BM_HaarForwardInverse(benchmark::State& state) {
  Vector v = RandomVector(static_cast<size_t>(state.range(0)), 1);
  for (auto _ : state) {
    HaarForward(&v);
    HaarInverse(&v);
    benchmark::DoNotOptimize(v.data());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_HaarForwardInverse)->Arg(1024)->Arg(4096)->Arg(16384);

void BM_PriveletRun(benchmark::State& state) {
  const size_t k = static_cast<size_t>(state.range(0));
  const PriveletMechanism mech{DomainShape({k})};
  const Vector x = RandomVector(k, 2);
  Rng rng(3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(mech.Run(x, 1.0, &rng));
  }
  state.SetItemsProcessed(state.iterations() * k);
}
BENCHMARK(BM_PriveletRun)->Arg(4096);

void BM_IsotonicRegression(benchmark::State& state) {
  const Vector y = RandomVector(static_cast<size_t>(state.range(0)), 4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(IsotonicRegression(y));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_IsotonicRegression)->Arg(4096)->Arg(65536);

void BM_DawaPartition(benchmark::State& state) {
  const size_t k = static_cast<size_t>(state.range(0));
  const DawaMechanism mech;
  const Vector y = RandomVector(k, 5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(mech.ChoosePartition(y, 0.5, 1.0));
  }
}
BENCHMARK(BM_DawaPartition)->Arg(1024)->Arg(4096);

void BM_TreeTransform(benchmark::State& state) {
  const size_t k = static_cast<size_t>(state.range(0));
  const PolicyTransform t =
      PolicyTransform::Create(LinePolicy(k)).ValueOrDie();
  const Vector x = RandomVector(k, 6);
  for (auto _ : state) {
    benchmark::DoNotOptimize(t.TransformDatabase(x));
  }
  state.SetItemsProcessed(state.iterations() * k);
}
BENCHMARK(BM_TreeTransform)->Arg(4096)->Arg(65536);

void BM_GridTransformCg(benchmark::State& state) {
  const size_t side = static_cast<size_t>(state.range(0));
  const PolicyTransform t =
      PolicyTransform::Create(GridPolicy(DomainShape({side, side}), 1))
          .ValueOrDie();
  const Vector x = RandomVector(side * side, 7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(t.TransformDatabase(x));
  }
}
BENCHMARK(BM_GridTransformCg)->Arg(32)->Arg(64);

void BM_WorkloadTransform(benchmark::State& state) {
  const size_t k = static_cast<size_t>(state.range(0));
  const PolicyTransform t =
      PolicyTransform::Create(Theta1DPolicy(k, 4)).ValueOrDie();
  Rng rng(8);
  const SparseMatrix w =
      RandomRanges(DomainShape({k}), 1000, &rng).ToWorkload().matrix();
  for (auto _ : state) {
    benchmark::DoNotOptimize(t.TransformWorkload(w));
  }
}
BENCHMARK(BM_WorkloadTransform)->Arg(512)->Arg(1024);

void BM_PgMatrixBuild(benchmark::State& state) {
  const size_t k = static_cast<size_t>(state.range(0));
  const Policy policy = Theta1DPolicy(k, 8);
  const PolicyReduction red = ReducePolicyGraph(policy.graph);
  for (auto _ : state) {
    benchmark::DoNotOptimize(BuildPgMatrix(red.graph));
  }
}
BENCHMARK(BM_PgMatrixBuild)->Arg(4096);

// Times one θ=4 grid submit answering `queries` random ranges on a
// k×k domain: with one query the slab/line releases dominate, with
// 200 the per-range reconstruction does.
void GridThetaSubmit(benchmark::State& state, size_t queries) {
  const size_t k = static_cast<size_t>(state.range(0));
  const auto mech = GridThetaRangeMechanism::Create(k, 4).ValueOrDie();
  const DomainShape domain({k, k});
  const Vector x = RandomVector(k * k, 9);
  const Vector xg = mech->PrecomputeTransformed(x);
  const double n = Sum(x);
  Rng rng(10);
  const RangeWorkload w = RandomRanges(domain, queries, &rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        mech->AnswerRangesOnTransformed(w, xg, n, 1.0, &rng));
  }
  state.SetItemsProcessed(state.iterations() * queries);
}

void BM_GridThetaReleases(benchmark::State& state) {
  GridThetaSubmit(state, 1);
}
BENCHMARK(BM_GridThetaReleases)->Arg(64)->Arg(256)->Unit(benchmark::kMicrosecond);

void BM_GridThetaRanges(benchmark::State& state) {
  GridThetaSubmit(state, 200);
}
BENCHMARK(BM_GridThetaRanges)->Arg(64)->Arg(256)->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace blowfish

BENCHMARK_MAIN();
