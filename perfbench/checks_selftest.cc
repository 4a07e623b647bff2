// Self-test of the benchmark's output checks: each check must pass on
// the engine's real output and reject a doctored copy of it.
//
//   perfbench_selftest        exit 0 when every case behaves
//
// Doctored inputs: answers whose noise is scaled to half (against the
// mechanism run directly, and against unbounded DP's exact 2/ε² MSE), a
// ledger one charge off, and a stream cut short by one chunk.

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "checks.h"
#include "core/planner.h"
#include "engine/query_engine.h"
#include "workload/builders.h"

using namespace blowfish;

namespace {

constexpr double kEpsilon = 0.01;
constexpr double kCap = 1e6;
constexpr size_t kTrials = 1024;

int failures = 0;

void Expect(const std::string& name, bool should_pass,
            const std::string& outcome) {
  const bool passed = outcome.empty();
  const bool good = passed == should_pass;
  std::printf("  %-44s %s%s%s\n", name.c_str(), good ? "ok" : "WRONG",
              passed ? "" : "  (", passed ? "" : (outcome + ")").c_str());
  if (!good) ++failures;
}

Vector Ramp(size_t n) {
  Vector x(n);
  for (size_t i = 0; i < n; ++i) x[i] = static_cast<double>((3 + 5 * i) % 13);
  return x;
}

}  // namespace

int main() {
  EngineOptions options;
  options.seed = 7;
  QueryEngine engine(options);
  const size_t k = 64;
  const Vector data = Ramp(k);
  engine.RegisterPolicy("line", LinePolicy(k), data, kCap).Check();
  engine.RegisterPolicy("dp", UnboundedDpPolicy(k), data, kCap).Check();
  engine.OpenSession("self:0", kCap).Check();

  // Noise scale: engine answers against the mechanism run directly.
  QueryRequest request;
  request.session = "self:0";
  request.policy = "line";
  request.workload = IdentityWorkload(k);
  request.epsilon = kEpsilon;
  const Vector truth = request.workload.Answer(data);
  std::vector<Vector> answers, halved;
  double admitted = 0.0;
  for (size_t i = 0; i < kTrials; ++i) {
    Vector a = engine.Submit(request).ValueOrDie().answers;
    admitted += kEpsilon;
    Vector h = a;
    for (size_t q = 0; q < h.size(); ++q) h[q] = truth[q] + (a[q] - truth[q]) / 2;
    answers.push_back(std::move(a));
    halved.push_back(std::move(h));
  }
  PlanRequest plan_request;
  plan_request.policy = LinePolicy(k);
  Plan plan = PlanMechanism(plan_request).ValueOrDie();
  Rng rng(11);
  std::vector<Vector> direct;
  for (size_t i = 0; i < kTrials; ++i) {
    direct.push_back(
        request.workload.Answer(plan.mechanism->Run(data, kEpsilon, &rng)));
  }
  const double mse_direct = perfbench::MeanSquaredError(direct, truth);
  std::printf("output-check self-test\n");
  Expect("noise audit, engine answers", true,
         perfbench::CheckNoiseScale(
             "line", perfbench::MeanSquaredError(answers, truth), mse_direct));
  Expect("noise audit, half the noise scale", false,
         perfbench::CheckNoiseScale(
             "line", perfbench::MeanSquaredError(halved, truth), mse_direct));

  // Unbounded DP adds Laplace(1/ε) per cell: its MSE is 2/ε² whatever
  // the data, so a noise scale changed inside the mechanism shows here.
  QueryRequest dp_request = request;
  dp_request.policy = "dp";
  std::vector<Vector> dp_answers, dp_halved;
  for (size_t i = 0; i < kTrials; ++i) {
    Vector a = engine.Submit(dp_request).ValueOrDie().answers;
    admitted += kEpsilon;
    Vector h = a;
    for (size_t q = 0; q < h.size(); ++q) h[q] = truth[q] + (a[q] - truth[q]) / 2;
    dp_answers.push_back(std::move(a));
    dp_halved.push_back(std::move(h));
  }
  const double dp_mse = 2.0 / (kEpsilon * kEpsilon);
  Expect("noise audit, dp answers vs 2/eps^2", true,
         perfbench::CheckNoiseScale(
             "dp", perfbench::MeanSquaredError(dp_answers, truth), dp_mse));
  Expect("noise audit, dp half the noise scale", false,
         perfbench::CheckNoiseScale(
             "dp", perfbench::MeanSquaredError(dp_halved, truth), dp_mse));

  // Ledger: spent ε read back against Σ admitted ε, and one charge off.
  const double spent = kCap - engine.SessionRemaining("self:0").ValueOrDie();
  Expect("ledger, admitted == spent", true,
         perfbench::CheckLedger("session self:0", admitted, spent));
  Expect("ledger, one charge missing", false,
         perfbench::CheckLedger("session self:0", admitted - kEpsilon, spent));
  Expect("ledger, one charge extra", false,
         perfbench::CheckLedger("session self:0", admitted + kEpsilon, spent));

  // Streams: a full drain, and the same drain missing its last chunk.
  Rng range_rng(3);
  QueryRequest ranged = request;
  ranged.workload = Workload();
  ranged.ranges = RandomRanges(DomainShape({k}), 100, &range_rng);
  StreamOptions stream_options;
  stream_options.chunk_queries = 32;
  auto stream = engine.SubmitStream(ranged, stream_options).ValueOrDie();
  const perfbench::StreamDrain drain =
      perfbench::DrainStream(stream.get(), perfbench::NowMs());
  Expect("stream, drained", true, perfbench::CheckStream("stream", 100, drain));
  perfbench::StreamDrain cut = drain;
  cut.answers.resize(drain.answers.size() - drain.answers.size() % 32);
  --cut.chunks;
  Expect("stream, last chunk lost", false,
         perfbench::CheckStream("stream", 100, cut));
  Expect("answer count, short reply", false,
         perfbench::CheckAnswerCount("submit", k, answers[0].size() - 1));

  std::printf("%s\n", failures == 0 ? "self-test passed" : "self-test FAILED");
  return failures == 0 ? 0 : 1;
}
