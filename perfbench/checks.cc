#include "checks.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>

namespace perfbench {

namespace {

std::string Format(const char* fmt, const std::string& what, double a,
                   double b) {
  char buf[256];
  std::snprintf(buf, sizeof(buf), fmt, what.c_str(), a, b);
  return buf;
}

}  // namespace

std::string CheckAnswerCount(const std::string& what, size_t expected,
                             size_t got) {
  if (expected == got) return "";
  return Format("%s: %.0f answers, expected %.0f", what,
                static_cast<double>(got), static_cast<double>(expected));
}

std::string CheckLedger(const std::string& ledger, double admitted,
                        double spent) {
  const double scale = std::max(std::fabs(admitted), 1e-300);
  if (std::fabs(spent - admitted) <= kLedgerRelTolerance * scale) return "";
  return Format("ledger %s: spent %.17g, admitted %.17g", ledger, spent,
                admitted);
}

double MeanSquaredError(const std::vector<blowfish::Vector>& answers,
                        const blowfish::Vector& truth) {
  double sum = 0.0;
  size_t count = 0;
  for (const blowfish::Vector& trial : answers) {
    for (size_t i = 0; i < trial.size() && i < truth.size(); ++i) {
      const double d = trial[i] - truth[i];
      sum += d * d;
    }
    count += truth.size();
  }
  return count == 0 ? 0.0 : sum / static_cast<double>(count);
}

std::string CheckNoiseScale(const std::string& target, double mse,
                            double reference_mse) {
  if (!(reference_mse > 0.0)) {
    return Format("noise audit %s: reference mse %.6g (mse %.6g)", target,
                  reference_mse, mse);
  }
  const double ratio = mse / reference_mse;
  if (ratio >= kNoiseBandLo && ratio <= kNoiseBandHi) return "";
  return Format("noise audit %s: mse ratio %.4f against reference mse %.6g",
                target, ratio, reference_mse);
}

StreamDrain DrainStream(blowfish::ResultStream* stream, double start_ms) {
  StreamDrain drain;
  blowfish::StreamChunk chunk;
  for (;;) {
    blowfish::Result<blowfish::StreamNext> next = stream->Next(&chunk);
    if (!next.ok()) {
      drain.error = next.status().ToString();
      return drain;
    }
    if (next.ValueOrDie() == blowfish::StreamNext::kDone) return drain;
    if (drain.chunks == 0) drain.first_chunk_ms = NowMs() - start_ms;
    if (chunk.offset != drain.answers.size()) {
      drain.error = "chunk offset " + std::to_string(chunk.offset) +
                    " after " + std::to_string(drain.answers.size()) +
                    " answers";
      return drain;
    }
    drain.answers.insert(drain.answers.end(), chunk.values.begin(),
                         chunk.values.end());
    ++drain.chunks;
  }
}

std::string CheckStream(const std::string& what, const size_t expected,
                        const StreamDrain& drain) {
  if (!drain.error.empty()) return what + ": " + drain.error;
  return CheckAnswerCount(what, expected, drain.answers.size());
}

double NowMs() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace perfbench
