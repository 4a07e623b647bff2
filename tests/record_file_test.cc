// Record-file format tests (engine/record_file.h): the shared codec,
// header, frame and file-name helpers, then seeded mutation loops over
// the two decoders built on them — LedgerJournal::Scan and the
// snapshot store's Verify / OpenLatest.
//
// Every mutation that damages a payload re-frames it under a valid
// CRC, so the loops reach the record and section decoders instead of
// stopping at the checksum; length and count fields are overwritten
// with boundary values as well as random bytes. Invariants: no crash
// (the asan-ubsan CI job runs this binary under the sanitizers), every
// journal input classifies as clean, torn or corrupt, and every
// snapshot input either loads or is skipped with a reason.

#include <gtest/gtest.h>

#include <dirent.h>
#include <unistd.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <limits>
#include <map>
#include <random>
#include <string>
#include <vector>

#include "common/crc32c.h"
#include "core/policy.h"
#include "engine/ledger_journal.h"
#include "engine/record_file.h"
#include "engine/query_engine.h"
#include "engine/snapshot_store.h"
#include "workload/builders.h"

namespace blowfish {
namespace {

using record_file::ByteReader;
using record_file::FrameStatus;
using record_file::HeaderStatus;

std::string MakeTempDir() {
  char tmpl[] = "/tmp/bfrecord.XXXXXX";
  const char* dir = ::mkdtemp(tmpl);
  EXPECT_NE(dir, nullptr);
  return dir == nullptr ? std::string() : std::string(dir);
}

void RemoveTree(const std::string& dir) {
  if (DIR* d = ::opendir(dir.c_str())) {
    while (const dirent* entry = ::readdir(d)) {
      const std::string name = entry->d_name;
      if (name == "." || name == "..") continue;
      ::unlink((dir + "/" + name).c_str());
    }
    ::closedir(d);
  }
  ::rmdir(dir.c_str());
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

void WriteFile(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out.good()) << path;
}

// ------------------------------------------------------------ helpers

TEST(RecordFileTest, CodecRoundTripsAndTruncatesOverlongStrings) {
  std::string out;
  record_file::PutU16(&out, 0xBEEF);
  record_file::PutU32(&out, 0xDEADBEEFu);
  record_file::PutU64(&out, 0x0123456789ABCDEFull);
  record_file::PutF64(&out, -0.0);
  record_file::PutLenPrefixed(&out, "abc");
  record_file::PutLenPrefixed(&out, std::string(70000, 'x'));
  EXPECT_EQ(out.substr(0, 4), std::string("\xEF\xBE\xEF\xBE", 4));

  ByteReader r(out);
  EXPECT_EQ(r.U16(), 0xBEEF);
  EXPECT_EQ(r.U32(), 0xDEADBEEFu);
  EXPECT_EQ(r.U64(), 0x0123456789ABCDEFull);
  EXPECT_TRUE(std::signbit(r.F64()));
  std::string s;
  ASSERT_TRUE(r.Str(&s));
  EXPECT_EQ(s, "abc");
  ASSERT_TRUE(r.Str(&s));
  EXPECT_EQ(s.size(), record_file::kMaxStringBytes);
  EXPECT_TRUE(r.done());
  EXPECT_EQ(r.U8(), 0);  // past the end: zero, and the reader fails
  EXPECT_FALSE(r.ok);
}

TEST(RecordFileTest, TakeArrayRejectsCountsWhoseByteSizeOverflows) {
  const std::string payload(16, '\0');
  ByteReader fits(payload);
  EXPECT_TRUE(fits.TakeArray(2, 8));
  EXPECT_FALSE(fits.TakeArray(3, 8));
  EXPECT_FALSE(fits.TakeArray(0, 8));  // failure is sticky
  ByteReader wraps64(payload);           // 2^61 * 8 == 2^64 == 0
  EXPECT_FALSE(wraps64.TakeArray(uint64_t{1} << 61, 8));
  ByteReader wraps_to_fit(payload);      // (2^60 + 1) * 16 == 16
  EXPECT_FALSE(wraps_to_fit.TakeArray((uint64_t{1} << 60) + 1, 16));
}

TEST(RecordFileTest, ParseHeaderNamesEachDefect) {
  const std::string header = record_file::Header("TESTMAG1", 42);
  ASSERT_EQ(header.size(), record_file::kHeaderBytes);
  const record_file::ParsedHeader ok =
      record_file::ParseHeader(header, "TESTMAG1");
  EXPECT_EQ(ok.status, HeaderStatus::kOk);
  EXPECT_EQ(ok.id, 42u);

  EXPECT_EQ(record_file::ParseHeader(header.substr(0, 23), "TESTMAG1").status,
            HeaderStatus::kShort);
  EXPECT_EQ(record_file::ParseHeader(header, "OTHERMAG").status,
            HeaderStatus::kBadMagic);
  std::string torn = header;
  torn[12] ^= 1;
  EXPECT_EQ(record_file::ParseHeader(torn, "TESTMAG1").status,
            HeaderStatus::kBadCrc);
  std::string future = header.substr(0, 8);
  record_file::PutU32(&future, 2);
  record_file::PutU64(&future, 42);
  record_file::PutU32(&future, Crc32c(future.data(), future.size()));
  const record_file::ParsedHeader v2 =
      record_file::ParseHeader(future, "TESTMAG1");
  EXPECT_EQ(v2.status, HeaderStatus::kBadVersion);
  EXPECT_EQ(v2.version, 2u);
}

TEST(RecordFileTest, ReadFrameClassifiesEveryOutcome) {
  std::string file = "pre";
  record_file::AppendFrame("hello", &file);
  const record_file::Frame ok = record_file::ReadFrame(file, 3, 64);
  EXPECT_EQ(ok.status, FrameStatus::kOk);
  EXPECT_EQ(ok.len, 5u);
  EXPECT_EQ(ok.payload, "hello");

  EXPECT_EQ(record_file::ReadFrame(file.substr(0, 9), 3, 64).status,
            FrameStatus::kPastEof);  // frame header cut
  EXPECT_EQ(record_file::ReadFrame(file.substr(0, file.size() - 1), 3, 64)
                .status,
            FrameStatus::kPastEof);  // payload cut
  const record_file::Frame big = record_file::ReadFrame(file, 3, 4);
  EXPECT_EQ(big.status, FrameStatus::kOversized);
  EXPECT_EQ(big.len, 5u);
  std::string flipped = file;
  flipped.back() ^= 1;
  const record_file::Frame bad = record_file::ReadFrame(flipped, 3, 64);
  EXPECT_EQ(bad.status, FrameStatus::kCrcMismatch);
  EXPECT_EQ(bad.payload.size(), 5u);
}

TEST(RecordFileTest, FileNamesAreFixedWidthLowerHex) {
  EXPECT_EQ(record_file::FileName("p-", 0xab, ".x"), "p-00000000000000ab.x");
  uint64_t id = 0;
  EXPECT_TRUE(
      record_file::ParseFileName("p-00000000000000ab.x", "p-", ".x", &id));
  EXPECT_EQ(id, 0xabu);
  const uint64_t max = std::numeric_limits<uint64_t>::max();
  EXPECT_TRUE(record_file::ParseFileName(record_file::FileName("p-", max, ".x"),
                                         "p-", ".x", &id));
  EXPECT_EQ(id, max);
  for (const char* bad :
       {"p-00000000000000AB.x", "p-0000000000000ab.x", "p-00000000000000ab.y",
        "q-00000000000000ab.x", "p-00000000000000ab.x.tmp",
        "p-0000000000000+ab.x"}) {
    EXPECT_FALSE(record_file::ParseFileName(bad, "p-", ".x", nullptr)) << bad;
  }
}

TEST(RecordFileTest, SyncDirSucceedsOnDirectoryAndReportsMissingOne) {
  const std::string dir = MakeTempDir();
  EXPECT_TRUE(record_file::SyncDir(dir).ok());
  const Status missing = record_file::SyncDir(dir + "/absent");
  EXPECT_EQ(missing.code(), StatusCode::kIOError);
  EXPECT_NE(missing.message().find("open(" + dir + "/absent)"),
            std::string::npos)
      << missing.message();
  RemoveTree(dir);
}

// ------------------------------------------------------- mutation kit

// Boundary values for length and count fields, plus one random value.
uint64_t Interesting(std::mt19937_64& rng) {
  static const uint64_t kValues[] = {
      0,          1,          2,          0x7F,       0xFF,
      0x100,      0xFFFF,     0x10000,    0x7FFFFFFF, 0xFFFFFFFF,
      0xE0000001, uint64_t{1} << 32,      (uint64_t{1} << 60) + 1,
      uint64_t{1} << 61,      std::numeric_limits<uint64_t>::max()};
  const size_t n = sizeof(kValues) / sizeof(kValues[0]);
  const size_t pick = rng() % (n + 1);
  return pick < n ? kValues[pick] : rng();
}

void Overwrite(std::string* bytes, size_t offset, uint64_t value,
               size_t width) {
  for (size_t i = 0; i < width && offset + i < bytes->size(); ++i) {
    (*bytes)[offset + i] = static_cast<char>((value >> (8 * i)) & 0xFF);
  }
}

// Damages one payload in place; the caller re-frames it with a valid
// CRC. `fields` are offsets of known length/count fields.
void MutatePayload(std::string* payload, const std::vector<size_t>& fields,
                   std::mt19937_64& rng) {
  if (payload->empty()) {
    payload->push_back(static_cast<char>(rng()));
    return;
  }
  static const size_t kWidths[] = {1, 2, 4, 8};
  switch (rng() % 4) {
    case 0: {  // flip a few random bytes
      const int flips = 1 + static_cast<int>(rng() % 4);
      for (int i = 0; i < flips; ++i) {
        (*payload)[rng() % payload->size()] ^=
            static_cast<char>(1 + rng() % 255);
      }
      break;
    }
    case 1: {  // boundary value into a known length/count field
      const size_t at = fields[rng() % fields.size()];
      Overwrite(payload, at, Interesting(rng), kWidths[rng() % 4]);
      break;
    }
    case 2:  // boundary value anywhere
      Overwrite(payload, rng() % payload->size(), Interesting(rng),
                kWidths[rng() % 4]);
      break;
    default:  // shrink or grow
      if (rng() % 2 == 0) {
        payload->resize(rng() % payload->size());
      } else {
        for (size_t n = 1 + rng() % 16; n > 0; --n) {
          payload->push_back(static_cast<char>(rng()));
        }
      }
  }
}

// A file as header + payloads; Assemble frames the payloads (valid
// CRCs) and then applies at most one raw mutation the frame CRC cannot
// hide: a frame length overwrite, a truncation, or a header edit.
struct RecordImage {
  std::string header;
  std::vector<std::string> payloads;

  std::string Assemble(std::mt19937_64& rng, bool raw_mutation) const {
    std::string bytes = header;
    std::vector<size_t> frame_offsets;
    for (const std::string& payload : payloads) {
      frame_offsets.push_back(bytes.size());
      record_file::AppendFrame(payload, &bytes);
    }
    if (!raw_mutation) return bytes;
    switch (rng() % 3) {
      case 0:
        if (!frame_offsets.empty()) {
          Overwrite(&bytes, frame_offsets[rng() % frame_offsets.size()],
                    Interesting(rng), 4);
        }
        break;
      case 1:
        bytes.resize(rng() % bytes.size());
        break;
      default: {  // any header byte, then (usually) a fresh header CRC
        bytes[rng() % 20] ^= static_cast<char>(1 + rng() % 255);
        if (rng() % 4 != 0) {
          std::string crc;
          record_file::PutU32(&crc, Crc32c(bytes.data(), 20));
          bytes.replace(20, 4, crc);
        }
      }
    }
    return bytes;
  }
};

// ------------------------------------------------------ journal fuzz

// In-memory, read-only JournalIo: Scan lists and reads; nothing writes.
class MemoryJournalIo : public JournalIo {
 public:
  std::map<std::string, std::string> files;

  Result<std::unique_ptr<JournalFile>> OpenAppend(
      const std::string& path) override {
    return Status::IOError("read-only: " + path);
  }
  Result<std::string> ReadAll(const std::string& path) override {
    auto it = files.find(path.substr(path.rfind('/') + 1));
    if (it == files.end()) return Status::IOError("missing: " + path);
    return it->second;
  }
  Result<std::vector<std::string>> ListDir(const std::string&) override {
    std::vector<std::string> names;
    for (const auto& [name, bytes] : files) names.push_back(name);
    return names;
  }
  Status CreateDir(const std::string&) override { return Status::OK(); }
  Status Remove(const std::string& path) override {
    return Status::IOError("read-only: " + path);
  }
  Status TruncateFile(const std::string& path, uint64_t) override {
    return Status::IOError("read-only: " + path);
  }
  Status SyncDir(const std::string&) override { return Status::OK(); }
};

std::string EncodeRecord(const JournalRecord& rec) {
  std::string payload;
  JournalEncodeRecord(rec, &payload);
  return payload;
}

JournalRecord ChargeRecord(JournalRecord::Type type, uint64_t seq) {
  JournalRecord rec;
  rec.type = type;
  rec.seq = seq;
  rec.wall_micros = 1700000000000000 + static_cast<int64_t>(seq);
  rec.refusal = type == JournalRecord::Type::kRefusal ? 3 : 0;
  rec.epsilon = 0.125 * static_cast<double>(seq);
  rec.workload = "fuzz";
  rec.context = "ctx";
  rec.ledgers = {{"session/a", 0.5}, {"policy\x1f" "1", 1.5}};
  return rec;
}

TEST(DecoderFuzzTest, JournalScanClassifiesEveryMutation) {
  // Two segments: seqs 1-2, then a checkpoint-led 3-4.
  JournalRecord checkpoint;
  checkpoint.type = JournalRecord::Type::kCheckpoint;
  checkpoint.seq = 3;
  checkpoint.checkpoint = {{"session/a", 1.0, 0.375}, {"orphan", -1.0, 0.25}};
  const std::vector<RecordImage> segments = {
      {JournalSegmentHeader(1),
       {EncodeRecord(ChargeRecord(JournalRecord::Type::kSpend, 1)),
        EncodeRecord(ChargeRecord(JournalRecord::Type::kRefusal, 2))}},
      {JournalSegmentHeader(3),
       {EncodeRecord(checkpoint),
        EncodeRecord(ChargeRecord(JournalRecord::Type::kSpend, 4))}}};
  // Offsets of the record codec's length/count fields: type, seq,
  // checkpoint count / refusal code, parallel count, workload length.
  const std::vector<size_t> fields = {0, 1, 9, 17, 18, 30};

  std::mt19937_64 rng(20150401);
  size_t clean = 0, torn = 0, corrupt = 0, undecodable = 0;
  for (int iter = 0; iter < 3000; ++iter) {
    std::vector<RecordImage> damaged = segments;
    RecordImage& victim = damaged[rng() % damaged.size()];
    const bool raw = rng() % 3 == 0;
    if (!raw || rng() % 2 == 0) {
      MutatePayload(&victim.payloads[rng() % victim.payloads.size()], fields,
                    rng);
    }
    MemoryJournalIo io;
    for (const RecordImage& segment : damaged) {
      const uint64_t start =
          record_file::ParseHeader(segment.header, "BFLJRNL1").id;
      io.files[JournalSegmentName(start)] =
          segment.Assemble(rng, raw && &segment == &victim);
    }

    JournalScanReport report;
    ASSERT_TRUE(LedgerJournal::Scan("mem", &io, &report).ok()) << iter;
    ASSERT_EQ(report.segments.size(), io.files.size()) << iter;
    for (const JournalScanReport::Segment& seg : report.segments) {
      ASSERT_LE(seg.good_bytes, seg.file_bytes) << iter;
    }
    if (!report.errors.empty()) {
      ++corrupt;
      for (const std::string& e : report.errors) {
        if (e.find("undecodable record") != std::string::npos) ++undecodable;
      }
      continue;
    }
    // Clean and torn journals replay a dense chain.
    if (report.records > 0) {
      ASSERT_EQ(report.last_seq - report.first_seq + 1, report.records)
          << iter;
    }
    if (report.torn_tail) {
      ++torn;
      ASSERT_EQ(report.torn_segment, report.segments.back().name) << iter;
      ASSERT_LE(report.torn_good_bytes, report.segments.back().file_bytes)
          << iter;
    } else {
      ++clean;
      for (const JournalScanReport::Segment& seg : report.segments) {
        ASSERT_EQ(seg.good_bytes, seg.file_bytes) << iter;
      }
    }
  }
  // Every class was reached, and payloads got past the CRC check.
  EXPECT_GT(clean, 0u);
  EXPECT_GT(torn, 0u);
  EXPECT_GT(corrupt, 0u);
  EXPECT_GT(undecodable, 0u);
}

// ----------------------------------------------------- snapshot fuzz

// Splits a snapshot file into its header and section payloads.
RecordImage SplitSnapshot(const std::string& file) {
  RecordImage image;
  image.header = file.substr(0, record_file::kHeaderBytes);
  for (size_t off = record_file::kHeaderBytes; off < file.size();) {
    const record_file::Frame frame =
        record_file::ReadFrame(file, off, 1u << 30);
    EXPECT_EQ(frame.status, FrameStatus::kOk);
    if (frame.status != FrameStatus::kOk) break;
    image.payloads.emplace_back(frame.payload);
    off += record_file::kFrameOverhead + frame.len;
  }
  return image;
}

SnapshotImage SmallImage() {
  SnapshotImage image;
  SnapshotPolicy line;
  line.registered_name = "line";
  line.policy_name = "L_4";
  line.version = 1;
  line.epsilon_cap = 2.0;
  line.dims = {4};
  line.num_vertices = 4;
  line.edges = {{0, 1}, {1, 2}, {2, 3}, {3, Graph::kBottom}};
  line.data = {1.0, 2.0, 3.0, 4.0};
  line.plan_hints = {{0, "tree", 0}, {1, "spanner", 3}};
  SnapshotPolicy grid = line;
  grid.registered_name = "grid";
  grid.dims = {2, 2};
  SnapshotTransform transform;
  transform.registered_name = "line";
  transform.version = 1;
  transform.family = "tree/1";
  transform.payload.vectors = {{0.5, -1.25}, {}};
  transform.payload.scalars = {2.0, 3.0};
  image.policies = {line, grid};
  image.transforms = {transform};
  return image;
}

TEST(DecoderFuzzTest, SnapshotLoadsOrIsSkippedWithReason) {
  const std::string dir = MakeTempDir();
  ASSERT_TRUE(snapshot::Write(dir, SmallImage()).ok());  // generation 1
  const std::string pristine = ReadFile(dir + "/" + snapshot::FileName(1));

  const RecordImage base = SplitSnapshot(pristine);
  ASSERT_EQ(base.payloads.size(), 4u);  // two policies, transform, footer
  // Section type and first name length; the policy section's second
  // name length, dims count, first dim, vertex and edge counts; the
  // transform section's family length, vector count and first vector
  // length; the footer's section count.
  const std::vector<size_t> fields = {0, 1, 7, 28, 32, 40, 48, 16, 24, 25, 5};

  const std::string newest = dir + "/" + snapshot::FileName(2);
  std::mt19937_64 rng(20150402);
  size_t loaded = 0, skipped = 0, undecodable = 0;
  for (int iter = 0; iter < 1000; ++iter) {
    RecordImage damaged = base;
    const bool raw = rng() % 3 == 0;
    if (!raw || rng() % 2 == 0) {
      MutatePayload(&damaged.payloads[rng() % damaged.payloads.size()],
                    fields, rng);
    }
    const std::string bytes = damaged.Assemble(rng, raw);
    WriteFile(newest, bytes);

    snapshot::VerifyReport verify;
    ASSERT_TRUE(snapshot::Verify(newest, &verify).ok()) << iter;
    ASSERT_LE(verify.valid_prefix_bytes, bytes.size()) << iter;
    SnapshotImage image;
    snapshot::OpenReport open;
    ASSERT_TRUE(snapshot::OpenLatest(dir, &image, &open).ok()) << iter;
    ASSERT_TRUE(open.loaded) << iter;  // generation 1 is always there
    if (verify.errors.empty()) {
      ++loaded;
      ASSERT_EQ(open.path, newest) << iter;
      ASSERT_TRUE(open.skipped.empty()) << iter;
      ASSERT_EQ(image.policies.size(), verify.policies) << iter;
      ASSERT_EQ(image.transforms.size(), verify.transforms) << iter;
    } else {
      ++skipped;
      ASSERT_EQ(open.generation, 1u) << iter;
      ASSERT_EQ(open.skipped.size(), 1u) << iter;
      ASSERT_EQ(open.skipped[0],
                snapshot::FileName(2) + ": " + verify.errors.front())
          << iter;
      if (verify.errors.front().find("undecodable section") !=
          std::string::npos) {
        ++undecodable;
      }
    }
  }
  EXPECT_GT(loaded, 0u);
  EXPECT_GT(skipped, 0u);
  EXPECT_GT(undecodable, 0u);
  RemoveTree(dir);
}

TEST(DecoderFuzzTest, EngineRestoresOrSkipsMutatedSnapshotSections) {
  // The store only checks that a section decodes; QueryEngine restore
  // must also survive sections that decode into nonsense (zero dims, a
  // NaN cap, edges past the domain, a transform of the wrong shape) —
  // skipping them, never aborting — and then keep serving.
  struct Subject {
    const char* name;
    Policy policy;
    size_t domain;
  };
  const auto subjects = [] {
    std::vector<Subject> v;
    v.push_back({"line", LinePolicy(16), 16});
    v.push_back({"theta", Theta1DPolicy(24, 3), 24});
    v.push_back({"grid", GridPolicy(DomainShape({6, 6}), 1), 36});
    v.push_back({"slab", GridPolicy(DomainShape({8, 8}), 4), 64});
    return v;
  };
  const auto submit_all = [&](QueryEngine* engine) {
    for (const Subject& subject : subjects()) {
      QueryRequest request;
      request.session = "s";
      request.policy = subject.name;
      request.workload = IdentityWorkload(subject.domain);
      request.epsilon = 0.5;
      (void)engine->Submit(request);
    }
  };
  EngineOptions options;
  options.seed = 2015;
  options.snapshot_path = MakeTempDir();
  {
    QueryEngine engine(options);
    ASSERT_TRUE(engine.OpenSession("s", 1e9).ok());
    for (Subject& subject : subjects()) {
      ASSERT_TRUE(engine
                      .RegisterPolicy(subject.name, std::move(subject.policy),
                                      Vector(subject.domain, 1.0), 1e9)
                      .ok());
    }
    submit_all(&engine);
    ASSERT_TRUE(engine.WriteSnapshot().ok());
  }
  const std::string path =
      options.snapshot_path + "/" + snapshot::FileName(1);
  const RecordImage base = SplitSnapshot(ReadFile(path));
  ASSERT_GE(base.payloads.size(), 5u);  // four policies, transforms, footer
  const std::vector<size_t> fields = {0, 1, 7, 28, 32, 40, 48, 16, 24, 25};

  std::mt19937_64 rng(20150403);
  size_t loaded = 0, transforms = 0;
  for (int iter = 0; iter < 400; ++iter) {
    RecordImage damaged = base;
    // Any section but the footer, so most files still load.
    MutatePayload(&damaged.payloads[rng() % (damaged.payloads.size() - 1)],
                  fields, rng);
    WriteFile(path, damaged.Assemble(rng, false));

    QueryEngine engine(options);
    const QueryEngine::SnapshotRestoreStats& stats =
        engine.snapshot_restore_stats();
    ASSERT_LE(stats.policies_restored, 4u) << iter;
    loaded += stats.loaded ? 1 : 0;
    transforms += stats.transforms_restored;
    ASSERT_TRUE(engine.OpenSession("s", 1e9).ok()) << iter;
    submit_all(&engine);
  }
  EXPECT_GT(loaded, 0u);
  EXPECT_GT(transforms, 0u);
  RemoveTree(options.snapshot_path);
}

}  // namespace
}  // namespace blowfish
