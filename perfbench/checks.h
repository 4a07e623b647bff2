// Output checks of the serving benchmark. Each check returns an empty
// string when it passes and a one-line reason when it fails; a failed
// check fails the run (correct = false), it is never turned into a
// metric. The checks are pure functions of what the benchmark observed,
// so checks_selftest.cc can feed them doctored inputs.

#ifndef PERFBENCH_CHECKS_H_
#define PERFBENCH_CHECKS_H_

#include <cstddef>
#include <string>
#include <vector>

#include "engine/stream.h"
#include "linalg/vector_ops.h"

namespace perfbench {

/// Relative tolerance of the ε reconciliation: a ledger's spent ε
/// must equal the Σ of ε the benchmark saw admitted on it.
inline constexpr double kLedgerRelTolerance = 1e-9;

/// Band on the ratio of two estimates of one expected per-query MSE
/// (engine answers vs the mechanism run directly, or direct vs a pinned
/// value). Sampling keeps today's ratios within ~0.9-1.1; a noise scale
/// off by more than ~16% either way lands outside.
inline constexpr double kNoiseBandLo = 0.7;
inline constexpr double kNoiseBandHi = 1.0 / 0.7;

/// A call returned `got` answers where its workload has `expected`.
std::string CheckAnswerCount(const std::string& what, size_t expected,
                             size_t got);

/// `spent` (read back from the engine's ledger) against `admitted`
/// (Σ ε of every request the engine acknowledged on that ledger).
std::string CheckLedger(const std::string& ledger, double admitted,
                        double spent);

/// Per-query mean squared error of `answers` against `truth`, averaged
/// over every trial (each trial one answer vector).
double MeanSquaredError(const std::vector<blowfish::Vector>& answers,
                        const blowfish::Vector& truth);

/// mse / reference_mse must fall in [kNoiseBandLo, kNoiseBandHi].
std::string CheckNoiseScale(const std::string& target, double mse,
                            double reference_mse);

/// \brief What draining one result stream delivered.
struct StreamDrain {
  blowfish::Vector answers;  ///< every chunk, concatenated in order
  size_t chunks = 0;
  double first_chunk_ms = 0.0;  ///< stream call start to first chunk
  std::string error;            ///< empty unless a Next() failed
};

/// Pulls every chunk of `stream` (Next until kDone), checking that
/// chunk offsets are contiguous. `start_ms` is the caller's stamp of
/// the SubmitStream call on the same steady clock as NowMs().
StreamDrain DrainStream(blowfish::ResultStream* stream, double start_ms);

/// A stream delivered every answer its workload has, in order.
std::string CheckStream(const std::string& what, size_t expected,
                        const StreamDrain& drain);

/// Milliseconds on the steady clock.
double NowMs();

}  // namespace perfbench

#endif  // PERFBENCH_CHECKS_H_
