// The on-disk record-file format shared by the ε-spend journal
// (ledger_journal.h) and the warm-restart snapshot store
// (snapshot_store.h). A file named `<prefix><id:016x><suffix>` (fixed
// width, so name order is id order) holds a 24-byte header
//
//   8-byte magic | u32 format version | u64 id | u32 CRC32C(first 20)
//
// then frames `[u32 payload_len][u32 masked CRC32C(payload)][payload]`.
// Integers are little-endian and doubles IEEE-754 bit patterns, so
// decode is bit-exact. Each owner keeps its payload schema and its
// rule for what a bad header or frame means (torn tail or corruption).

#ifndef BLOWFISH_ENGINE_RECORD_FILE_H_
#define BLOWFISH_ENGINE_RECORD_FILE_H_

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>

#include "common/status.h"

namespace blowfish {
namespace record_file {

constexpr uint32_t kFormatVersion = 1;
constexpr size_t kHeaderBytes = 24;
constexpr size_t kFrameOverhead = 8;  // u32 len + u32 masked crc
/// Wire limit of a length-prefixed string (u16 length). PutLenPrefixed
/// truncates past it, so an identifier that must round-trip exactly —
/// a ledger id — is refused before it can reach the wire.
constexpr size_t kMaxStringBytes = 0xFFFF;

// ------------------------------------------------------------- codec

template <typename T>
void PutLE(std::string* out, T v) {
  for (size_t i = 0; i < sizeof(T); ++i) {
    out->push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
  }
}
template <typename T>
T GetLE(const char* p) {
  T v = 0;
  for (size_t i = sizeof(T); i-- > 0;) {
    v = static_cast<T>((v << 8) | static_cast<uint8_t>(p[i]));
  }
  return v;
}
inline void PutU16(std::string* out, uint16_t v) { PutLE(out, v); }
inline void PutU32(std::string* out, uint32_t v) { PutLE(out, v); }
inline void PutU64(std::string* out, uint64_t v) { PutLE(out, v); }
void PutF64(std::string* out, double v);
/// u16 length + bytes, truncated to kMaxStringBytes (workload tags and
/// names lose label detail only).
void PutLenPrefixed(std::string* out, std::string_view s);

/// Bounds-checked payload parser: every read that would run past the
/// payload flips `ok` and yields zeros, so decode failure is a single
/// flag check, never UB.
struct ByteReader {
  explicit ByteReader(std::string_view payload)
      : p(payload.data()), end(payload.data() + payload.size()) {}

  const char* p;
  const char* end;
  bool ok = true;

  /// Take(count * elem_bytes) without the overflowing multiply: guards
  /// a `resize(count)` on an untrusted count.
  bool TakeArray(uint64_t count, size_t elem_bytes) {
    if (!ok || count > static_cast<size_t>(end - p) / elem_bytes) ok = false;
    return ok;
  }
  bool Take(size_t n) { return TakeArray(n, 1); }
  template <typename T>
  T Get() {
    if (!Take(sizeof(T))) return 0;
    const T v = GetLE<T>(p);
    p += sizeof(T);
    return v;
  }
  uint8_t U8() { return Get<uint8_t>(); }
  uint16_t U16() { return Get<uint16_t>(); }
  uint32_t U32() { return Get<uint32_t>(); }
  uint64_t U64() { return Get<uint64_t>(); }
  double F64() {
    const uint64_t bits = U64();
    double v = 0.0;
    std::memcpy(&v, &bits, sizeof(v));
    return v;
  }
  bool Str(std::string* out) {
    const uint16_t n = U16();
    if (!Take(n)) return false;
    out->assign(p, n);
    p += n;
    return true;
  }
  bool done() const { return ok && p == end; }
};

// ----------------------------------------------------- header & frame

/// The 24-byte header of a file with this 8-byte magic and id.
std::string Header(std::string_view magic, uint64_t id);

enum class HeaderStatus { kOk, kShort, kBadMagic, kBadCrc, kBadVersion };
struct ParsedHeader {
  HeaderStatus status = HeaderStatus::kShort;
  uint32_t version = 0;  ///< as stored (unsupported on kBadVersion)
  uint64_t id = 0;       ///< meaningful only when kOk
};
/// Checks, in order: length, magic, CRC, version.
ParsedHeader ParseHeader(std::string_view file, std::string_view magic);

/// Appends `payload` wrapped in the [len][masked crc] frame.
void AppendFrame(std::string_view payload, std::string* out);

enum class FrameStatus { kOk, kPastEof, kOversized, kCrcMismatch };
struct Frame {
  FrameStatus status = FrameStatus::kPastEof;
  uint32_t len = 0;          ///< claimed payload length (0 if unread)
  std::string_view payload;  ///< the claimed payload on kOk/kCrcMismatch
};
/// Reads the frame starting at `offset` (< file.size()). A claimed
/// length above `max_len` is kOversized even when it also runs past
/// EOF.
Frame ReadFrame(std::string_view file, size_t offset, uint32_t max_len);

// ---------------------------------------------------- names & the fs

/// `<prefix><id:016x><suffix>`.
std::string FileName(std::string_view prefix, uint64_t id,
                     std::string_view suffix);
/// True iff `name` is FileName(prefix, id, suffix) for some id (lower
/// hex, exact width); stores it in `*id` when non-null.
bool ParseFileName(std::string_view name, std::string_view prefix,
                   std::string_view suffix, uint64_t* id);

/// "op(path): strerror(errno)".
std::string ErrnoMessage(const std::string& op, const std::string& path);

/// Durably persists directory metadata (create, rename, remove). A
/// filesystem that cannot fsync directories (EINVAL) has nothing more
/// durable to offer, so that case is best-effort success.
Status SyncDir(const std::string& dir);

}  // namespace record_file
}  // namespace blowfish

#endif  // BLOWFISH_ENGINE_RECORD_FILE_H_
