#include "engine/record_file.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>

#include "common/check.h"
#include "common/crc32c.h"

namespace blowfish {
namespace record_file {

void PutF64(std::string* out, double v) {
  uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(v), "IEEE double expected");
  std::memcpy(&bits, &v, sizeof(bits));
  PutU64(out, bits);
}

void PutLenPrefixed(std::string* out, std::string_view s) {
  const size_t n = std::min(s.size(), kMaxStringBytes);
  PutU16(out, static_cast<uint16_t>(n));
  out->append(s.data(), n);
}

std::string Header(std::string_view magic, uint64_t id) {
  BF_DCHECK_EQ(magic.size(), 8u);
  std::string h(magic);
  PutU32(&h, kFormatVersion);
  PutU64(&h, id);
  PutU32(&h, Crc32c(h.data(), h.size()));
  BF_DCHECK_EQ(h.size(), kHeaderBytes);
  return h;
}

ParsedHeader ParseHeader(std::string_view file, std::string_view magic) {
  ParsedHeader h;
  if (file.size() < kHeaderBytes) return h;
  if (file.substr(0, magic.size()) != magic) {
    h.status = HeaderStatus::kBadMagic;
    return h;
  }
  h.version = GetLE<uint32_t>(file.data() + 8);
  if (Crc32c(file.data(), 20) != GetLE<uint32_t>(file.data() + 20)) {
    h.status = HeaderStatus::kBadCrc;
  } else if (h.version != kFormatVersion) {
    h.status = HeaderStatus::kBadVersion;
  } else {
    h.status = HeaderStatus::kOk;
    h.id = GetLE<uint64_t>(file.data() + 12);
  }
  return h;
}

void AppendFrame(std::string_view payload, std::string* out) {
  PutU32(out, static_cast<uint32_t>(payload.size()));
  PutU32(out, Crc32cMask(Crc32c(payload.data(), payload.size())));
  out->append(payload);
}

Frame ReadFrame(std::string_view file, size_t offset, uint32_t max_len) {
  Frame f;
  const size_t avail = file.size() - offset;
  if (avail < kFrameOverhead) return f;
  f.len = GetLE<uint32_t>(file.data() + offset);
  if (f.len > max_len) {
    f.status = FrameStatus::kOversized;
    return f;
  }
  if (avail - kFrameOverhead < f.len) return f;
  f.payload = file.substr(offset + kFrameOverhead, f.len);
  const uint32_t masked_crc = GetLE<uint32_t>(file.data() + offset + 4);
  f.status = Crc32c(f.payload.data(), f.len) == Crc32cUnmask(masked_crc)
                 ? FrameStatus::kOk
                 : FrameStatus::kCrcMismatch;
  return f;
}

std::string FileName(std::string_view prefix, uint64_t id,
                     std::string_view suffix) {
  char hex[17];
  std::snprintf(hex, sizeof(hex), "%016llx",
                static_cast<unsigned long long>(id));
  return std::string(prefix) + hex + std::string(suffix);
}

bool ParseFileName(std::string_view name, std::string_view prefix,
                   std::string_view suffix, uint64_t* id) {
  if (name.size() != prefix.size() + 16 + suffix.size()) return false;
  if (name.substr(0, prefix.size()) != prefix) return false;
  if (name.substr(prefix.size() + 16) != suffix) return false;
  const std::string hex(name.substr(prefix.size(), 16));
  if (hex.find_first_not_of("0123456789abcdef") != std::string::npos) {
    return false;
  }
  if (id != nullptr) *id = std::strtoull(hex.c_str(), nullptr, 16);
  return true;
}

std::string ErrnoMessage(const std::string& op, const std::string& path) {
  return op + "(" + path + "): " + std::strerror(errno);
}

Status SyncDir(const std::string& dir) {
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) return Status::IOError(ErrnoMessage("open", dir));
  Status st = Status::OK();
  if (::fsync(fd) != 0 && errno != EINVAL) {
    st = Status::IOError(ErrnoMessage("fsync", dir));
  }
  ::close(fd);
  return st;
}

}  // namespace record_file
}  // namespace blowfish
