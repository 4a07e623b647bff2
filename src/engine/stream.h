// Result streaming: chunked delivery of workload answers.
//
// A Submit materializes the full `W x̂` answer vector before the
// caller sees anything — a million-range workload holds the caller
// and one contiguous allocation until the last element is computed.
// But every execution path in this engine is already incremental after
// its noise is drawn: the θ>=2 grid fast path reconstructs answers
// query by query from the noisy slab releases, the summed-area path
// answers ranges one inclusion-exclusion probe at a time, and a dense
// `W x̂` is a row-by-row sparse dot. Streaming exposes that: ε is
// charged atomically at admission exactly as for Submit, all noise is
// drawn immediately after the charge, and the answers then flow to
// the consumer in configurable chunks as pure post-processing of the
// already-released noisy vectors.
//
// Privacy semantics. Admission is the release: the charge covers the
// noisy slab/line/histogram releases drawn at cursor construction,
// and every chunk is post-processing of those releases. Cancelling a
// stream mid-way therefore keeps the ledger charge — the privacy was
// spent when the releases were drawn, not when the answers were read.
//
// Production is inline: QueryEngine::SubmitStream admits the request
// and returns the handle, and each Next() runs the resumable cursor on
// the consumer's own thread. Chunks are never buffered, so resident
// answer memory is one chunk. The cursor holds its own references to
// the policy snapshot and the drawn releases, so a stream may outlive
// the engine that admitted it.
//
// Terminal contract: every stream reaches exactly one terminal state —
// kDone (all chunks delivered) or kCancelled (consumer Cancel()) — and
// reports it on every later Next().

#ifndef BLOWFISH_ENGINE_STREAM_H_
#define BLOWFISH_ENGINE_STREAM_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>

#include "common/status.h"
#include "common/thread_annotations.h"
#include "linalg/vector_ops.h"
#include "mech/mechanism.h"

namespace blowfish {

class QueryEngine;

/// \brief Per-stream shaping knobs, passed alongside the QueryRequest.
struct StreamOptions {
  /// Answers per chunk (the final chunk may be shorter). Must be >= 1.
  size_t chunk_queries = 256;
};

/// \brief One contiguous block of answers: values[i] is the answer to
/// workload query `offset + i`.
struct StreamChunk {
  size_t offset = 0;
  Vector values;
};

/// \brief Admission metadata — QueryResult minus the answers, known as
/// soon as the charge lands and the noise is drawn.
struct StreamHeader {
  std::string plan_kind;
  bool plan_cache_hit = false;
  bool range_fast_path = false;
  PrivacyGuarantee guarantee;
  /// Post-charge balances, observed atomically inside the admission
  /// charge (same contract as QueryResult).
  std::optional<double> session_remaining;
  std::optional<double> policy_remaining;
  /// Total answers the stream will deliver across all chunks.
  size_t total_answers = 0;
};

/// \brief Outcome of a Next() call that did not fail.
enum class StreamNext {
  kChunk,  ///< *out holds the next chunk
  kDone,   ///< all chunks delivered; the stream is complete
};

/// \brief Resumable producer state: emits the answer vector strictly
/// in order, one chunk per call. Implementations hold everything the
/// production needs (plan, noisy releases, workload copy) so the
/// originating request may die first. Not thread-safe; the stream
/// serializes access.
class ChunkCursor {
 public:
  virtual ~ChunkCursor() = default;
  /// The next chunk in order, or nullopt once exhausted.
  virtual std::optional<StreamChunk> NextChunk() = 0;
  /// Total answers across the whole stream.
  virtual size_t total_answers() const = 0;
};

/// \brief Consumer handle over an admitted request's answers.
/// Thread-safe: any number of threads may call Next/Cancel
/// concurrently (chunks are handed out exactly once, in order).
class ResultStream {
 public:
  ResultStream(const ResultStream&) = delete;
  ResultStream& operator=(const ResultStream&) = delete;

  /// Computes the next chunk on the calling thread, or reports the
  /// terminal state (kDone, or the sticky kCancelled error).
  Result<StreamNext> Next(StreamChunk* out);

  /// Abandons the stream: every later Next() returns kCancelled (and
  /// frees the cursor; a chunk a concurrent Next was computing is
  /// dropped). The admission's ε charge is kept — privacy was spent
  /// when the noise was drawn at admission, and the released chunks
  /// were already observable. Idempotent; a Cancel after completion
  /// is a no-op.
  void Cancel();

  /// Admission metadata, fixed when the handle was made; never blocks
  /// and never fails (admission failures are returned by SubmitStream
  /// instead of a handle).
  Result<StreamHeader> header() const { return header_; }

  /// True once the terminal state is reached.
  bool finished() const;

  /// High-water mark of chunk payload bytes resident in the stream:
  /// the largest chunk produced (chunks are never buffered). The
  /// stream-vs-materialize bench reports this against the full answer
  /// vector's footprint.
  size_t peak_resident_bytes() const;

 private:
  friend class QueryEngine;

  /// Admission already happened; Next() drives `cursor`.
  ResultStream(std::unique_ptr<ChunkCursor> cursor, StreamHeader header);

  /// Terminal report: the sticky error, or kDone.
  Result<StreamNext> TerminalLocked() const REQUIRES(mu_);

  const StreamHeader header_;

  mutable std::mutex mu_;
  bool closed_ GUARDED_BY(mu_) = false;
  Status terminal_ GUARDED_BY(mu_) = Status::OK();
  size_t peak_resident_bytes_ GUARDED_BY(mu_) = 0;

  /// Serializes cursor runs across concurrent consumers, so Cancel()
  /// (which takes only mu_) never waits for a chunk's computation.
  std::mutex produce_mu_;
  std::unique_ptr<ChunkCursor> cursor_ GUARDED_BY(produce_mu_);
};

}  // namespace blowfish

#endif  // BLOWFISH_ENGINE_STREAM_H_
