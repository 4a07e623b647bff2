#include "engine/stream.h"

#include <algorithm>
#include <utility>

namespace blowfish {

ResultStream::ResultStream(std::unique_ptr<ChunkCursor> cursor,
                           StreamHeader header)
    : header_(std::move(header)), cursor_(std::move(cursor)) {}

Result<StreamNext> ResultStream::TerminalLocked() const {
  if (terminal_.ok()) return StreamNext::kDone;
  return Result<StreamNext>(terminal_);
}

Result<StreamNext> ResultStream::Next(StreamChunk* out) {
  // Serializes concurrent consumers; the cursor is touched only under
  // this mutex.
  std::lock_guard<std::mutex> produce(produce_mu_);
  {
    std::lock_guard<std::mutex> lock(mu_);
    // A Cancel (or a concurrent consumer finishing the cursor) may
    // have reached the terminal state while we waited for our turn.
    if (closed_) {
      cursor_.reset();
      return TerminalLocked();
    }
  }
  std::optional<StreamChunk> chunk = cursor_->NextChunk();
  std::lock_guard<std::mutex> lock(mu_);
  if (closed_) {
    // Cancel raced the computation: the chunk is dropped, the cursor
    // freed — the ledger charge stands (noise was drawn at admission).
    cursor_.reset();
    return TerminalLocked();
  }
  if (!chunk.has_value()) {
    closed_ = true;
    cursor_.reset();
    return StreamNext::kDone;
  }
  peak_resident_bytes_ = std::max(peak_resident_bytes_,
                                  chunk->values.size() * sizeof(double));
  *out = std::move(*chunk);
  return StreamNext::kChunk;
}

void ResultStream::Cancel() {
  std::lock_guard<std::mutex> lock(mu_);
  if (closed_) return;  // kDone (or an earlier Cancel) stands
  closed_ = true;
  terminal_ = Status::Cancelled("stream cancelled by the consumer");
}

bool ResultStream::finished() const {
  std::lock_guard<std::mutex> lock(mu_);
  return closed_;
}

size_t ResultStream::peak_resident_bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return peak_resident_bytes_;
}

}  // namespace blowfish
