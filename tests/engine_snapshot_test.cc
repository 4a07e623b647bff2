// Warm-restart snapshot store tests (engine/snapshot_store.h wired
// through QueryEngine). The contract under test:
//
//   * a restarted engine with a valid snapshot answers previously-warm
//     requests bit-identically to a cold engine with the same seed —
//     zero plan-cache misses, zero transform recomputation;
//   * the store is strictly fail-open: a missing store is a cold
//     start, a corrupt newest generation falls back to the previous
//     one, and when nothing valid remains the engine still serves —
//     corruption can make restart slower, never turn into a refusal;
//   * WriteSnapshot is atomic and keeps the newest two generations;
//   * the file bytes are pinned, and a crafted section whose counts
//     overflow a bounds check is skipped as corrupt, never a crash.
//
// The corruption matrix covers the five cases the issue names:
// missing store, torn header, truncated section, CRC mismatch
// mid-file, and a stale-but-valid older generation.

#include <gtest/gtest.h>

#include <dirent.h>
#include <unistd.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "common/crc32c.h"
#include "core/policy.h"
#include "engine/query_engine.h"
#include "engine/snapshot_store.h"
#include "workload/builders.h"

namespace blowfish {
namespace {

Vector Ramp(size_t n) {
  Vector x(n, 0.0);
  for (size_t i = 0; i < n; ++i) x[i] = static_cast<double>(i % 13);
  return x;
}

std::string MakeTempDir() {
  char tmpl[] = "/tmp/bfsnap.XXXXXX";
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

std::vector<uint8_t> ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return std::vector<uint8_t>(std::istreambuf_iterator<char>(in),
                              std::istreambuf_iterator<char>());
}

void WriteFileBytes(const std::string& path, const std::vector<uint8_t>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  EXPECT_TRUE(out.good()) << path;
}

// Cycle graph: connected, not a tree, not a distance-threshold family,
// so the planner lands on the spanning-tree fallback — the strategy
// whose cold cost is the CertifySpanner pass the snapshot hint skips.
Policy RingPolicy(size_t k) {
  Graph g(k);
  for (size_t i = 0; i + 1 < k; ++i) g.AddEdge(i, i + 1);
  g.AddEdge(0, k - 1);
  return Policy{"C_" + std::to_string(k), DomainShape({k}), std::move(g)};
}

// One of every strategy family the planner knows, so the snapshot
// round-trips every precompute wire schema (tree/1, grid/1, slab/1)
// and every plan-hint shape (stretch-carrying and stretch-free).
struct Subject {
  const char* name;
  Policy policy;
  size_t domain;
};

std::vector<Subject> Subjects() {
  std::vector<Subject> subjects;
  subjects.push_back({"line", LinePolicy(16), 16});
  subjects.push_back({"theta", Theta1DPolicy(24, 3), 24});
  subjects.push_back({"grid", GridPolicy(DomainShape({6, 6}), 1), 36});
  subjects.push_back({"slab", GridPolicy(DomainShape({8, 8}), 4), 64});
  subjects.push_back({"ring", RingPolicy(12), 12});
  return subjects;
}

void RegisterAll(QueryEngine* engine) {
  for (Subject& subject : Subjects()) {
    ASSERT_TRUE(engine
                    ->RegisterPolicy(subject.name, std::move(subject.policy),
                                     Ramp(subject.domain), 1e6)
                    .ok());
  }
  ASSERT_TRUE(engine->OpenSession("s", 1e6).ok());
}

std::vector<QueryRequest> RequestSequence() {
  std::vector<QueryRequest> requests;
  for (const Subject& subject : Subjects()) {
    QueryRequest request;
    request.session = "s";
    request.policy = subject.name;
    request.workload = IdentityWorkload(subject.domain);
    request.epsilon = 0.01;
    requests.push_back(std::move(request));
  }
  return requests;
}

EngineOptions SnapOptions(const std::string& dir) {
  EngineOptions options;
  options.seed = 2015;
  options.snapshot_path = dir;
  return options;
}

// Builds a store with two warm generations and returns the directory.
// Generation 2 is the newest; both restore the same five policies.
std::string BuildTwoGenerationStore() {
  const std::string dir = MakeTempDir();
  QueryEngine engine(SnapOptions(dir));
  RegisterAll(&engine);
  for (const QueryRequest& request : RequestSequence()) {
    EXPECT_TRUE(engine.Submit(request).ok());
  }
  EXPECT_TRUE(engine.WriteSnapshot().ok());
  EXPECT_TRUE(engine.WriteSnapshot().ok());
  return dir;
}

TEST(SnapshotStoreTest, MissingStoreIsColdStartNotError) {
  const std::string dir = MakeTempDir();
  const std::string absent = dir + "/never-written";

  QueryEngine engine(SnapOptions(absent));
  EXPECT_FALSE(engine.snapshot_restore_stats().loaded);
  EXPECT_TRUE(engine.snapshot_restore_stats().skipped_files.empty());

  // Fail-open: the engine serves normally from cold.
  RegisterAll(&engine);
  Result<QueryResult> result = engine.Submit(RequestSequence()[0]);
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  RemoveTree(absent);
  RemoveTree(dir);
}

TEST(SnapshotStoreTest, WarmRestartIsBitIdenticalWithZeroColdWork) {
  const std::string dir = MakeTempDir();
  size_t transforms_written = 0;

  {
    QueryEngine warm(SnapOptions(dir));
    RegisterAll(&warm);
    for (const QueryRequest& request : RequestSequence()) {
      ASSERT_TRUE(warm.Submit(request).ok());
    }
    transforms_written = warm.transform_cache_entries();
    ASSERT_TRUE(warm.WriteSnapshot().ok());
  }

  // Restarted engine, restored from the snapshot.
  QueryEngine restored(SnapOptions(dir));
  const QueryEngine::SnapshotRestoreStats& stats =
      restored.snapshot_restore_stats();
  EXPECT_TRUE(stats.loaded);
  EXPECT_EQ(stats.generation, 1u);
  EXPECT_EQ(stats.policies_restored, 5u);
  EXPECT_EQ(stats.plans_restored, 5u);
  EXPECT_EQ(stats.transforms_restored, transforms_written);
  EXPECT_EQ(stats.items_skipped, 0u);
  EXPECT_TRUE(stats.skipped_files.empty());
  ASSERT_TRUE(restored.OpenSession("s", 1e6).ok());

  // Cold reference: same seed, same registration order (so versions
  // and rng streams line up), no snapshot involved.
  EngineOptions cold_options;
  cold_options.seed = 2015;
  QueryEngine cold(cold_options);
  RegisterAll(&cold);

  // Every previously-warm request is warm *before* any submit: no
  // replanning, no transform recomputation left to do.
  const size_t restored_transforms = restored.transform_cache_entries();
  for (const QueryRequest& request : RequestSequence()) {
    EXPECT_TRUE(restored.IsWarm(request)) << request.policy;
  }

  for (const QueryRequest& request : RequestSequence()) {
    Result<QueryResult> warm_result = restored.Submit(request);
    Result<QueryResult> cold_result = cold.Submit(request);
    ASSERT_TRUE(warm_result.ok()) << warm_result.status().ToString();
    ASSERT_TRUE(cold_result.ok()) << cold_result.status().ToString();
    const QueryResult& w = warm_result.ValueOrDie();
    const QueryResult& c = cold_result.ValueOrDie();
    EXPECT_EQ(w.plan_kind, c.plan_kind) << request.policy;
    EXPECT_TRUE(w.plan_cache_hit) << request.policy;
    ASSERT_EQ(w.answers.size(), c.answers.size()) << request.policy;
    for (size_t i = 0; i < w.answers.size(); ++i) {
      // Bit-identical, not approximately equal: transforms round trip
      // as IEEE bit patterns and noise streams depend only on (seed,
      // submit ordinal), which match across the two engines.
      EXPECT_EQ(w.answers[i], c.answers[i])
          << request.policy << " answer " << i;
    }
  }

  // Zero plan-cache misses and zero transform inserts across the
  // whole warm replay.
  EXPECT_EQ(restored.plan_cache_stats().misses, 0u);
  EXPECT_EQ(restored.plan_cache_stats().hits, RequestSequence().size());
  EXPECT_EQ(restored.transform_cache_entries(), restored_transforms);

  RemoveTree(dir);
}

TEST(SnapshotStoreTest, VerifyReportsCleanFile) {
  const std::string dir = BuildTwoGenerationStore();
  Result<std::vector<std::string>> files = snapshot::ListFiles(dir);
  ASSERT_TRUE(files.ok());
  ASSERT_EQ(files.ValueOrDie().size(), 2u);  // keep_generations = 2

  snapshot::VerifyReport report;
  ASSERT_TRUE(
      snapshot::Verify(dir + "/" + files.ValueOrDie().back(), &report).ok());
  EXPECT_TRUE(report.footer_ok);
  EXPECT_TRUE(report.errors.empty());
  EXPECT_EQ(report.generation, 2u);
  EXPECT_EQ(report.policies, 5u);
  EXPECT_GT(report.transforms, 0u);
  EXPECT_EQ(report.valid_prefix_bytes,
            ReadFileBytes(dir + "/" + files.ValueOrDie().back()).size());

  RemoveTree(dir);
}

TEST(SnapshotStoreTest, WritePrunesToKeepGenerations) {
  const std::string dir = MakeTempDir();
  QueryEngine engine(SnapOptions(dir));
  RegisterAll(&engine);
  for (int i = 0; i < 4; ++i) ASSERT_TRUE(engine.WriteSnapshot().ok());

  Result<std::vector<std::string>> files = snapshot::ListFiles(dir);
  ASSERT_TRUE(files.ok());
  ASSERT_EQ(files.ValueOrDie().size(), 2u);
  EXPECT_EQ(files.ValueOrDie().back(), snapshot::FileName(4));
  EXPECT_EQ(files.ValueOrDie().front(), snapshot::FileName(3));

  RemoveTree(dir);
}

// ---- fail-open corruption matrix -----------------------------------

// Corrupts the newest generation with `mutate` and asserts the engine
// falls back to generation 1 and still serves warm.
void ExpectFallbackToPreviousGeneration(
    void (*mutate)(const std::string& newest_path)) {
  const std::string dir = BuildTwoGenerationStore();
  mutate(dir + "/" + snapshot::FileName(2));

  QueryEngine engine(SnapOptions(dir));
  const QueryEngine::SnapshotRestoreStats& stats =
      engine.snapshot_restore_stats();
  EXPECT_TRUE(stats.loaded);
  EXPECT_EQ(stats.generation, 1u);  // the stale-but-valid generation
  ASSERT_EQ(stats.skipped_files.size(), 1u);
  EXPECT_NE(stats.skipped_files[0].find(snapshot::FileName(2)),
            std::string::npos)
      << stats.skipped_files[0];
  EXPECT_EQ(stats.policies_restored, 5u);

  ASSERT_TRUE(engine.OpenSession("s", 1e6).ok());
  for (const QueryRequest& request : RequestSequence()) {
    EXPECT_TRUE(engine.IsWarm(request)) << request.policy;
    EXPECT_TRUE(engine.Submit(request).ok()) << request.policy;
  }
  EXPECT_EQ(engine.plan_cache_stats().misses, 0u);

  RemoveTree(dir);
}

TEST(SnapshotStoreTest, TornHeaderFallsBackToPreviousGeneration) {
  ExpectFallbackToPreviousGeneration([](const std::string& path) {
    std::vector<uint8_t> bytes = ReadFileBytes(path);
    ASSERT_GT(bytes.size(), 24u);
    bytes[10] ^= 0xff;  // inside the header's CRC-covered region
    WriteFileBytes(path, bytes);
  });
}

TEST(SnapshotStoreTest, TruncatedSectionFallsBackToPreviousGeneration) {
  ExpectFallbackToPreviousGeneration([](const std::string& path) {
    std::vector<uint8_t> bytes = ReadFileBytes(path);
    ASSERT_GT(bytes.size(), 64u);
    bytes.resize(bytes.size() / 2);  // tears mid-frame, loses the footer
    WriteFileBytes(path, bytes);
  });
}

TEST(SnapshotStoreTest, MidFileCrcMismatchFallsBackToPreviousGeneration) {
  ExpectFallbackToPreviousGeneration([](const std::string& path) {
    std::vector<uint8_t> bytes = ReadFileBytes(path);
    ASSERT_GT(bytes.size(), 64u);
    bytes[bytes.size() / 2] ^= 0x01;  // silent bit flip inside a frame
    WriteFileBytes(path, bytes);
  });
}

TEST(SnapshotStoreTest, AllGenerationsCorruptIsColdStartNotRefusal) {
  const std::string dir = BuildTwoGenerationStore();
  for (uint64_t gen = 1; gen <= 2; ++gen) {
    const std::string path = dir + "/" + snapshot::FileName(gen);
    std::vector<uint8_t> bytes = ReadFileBytes(path);
    ASSERT_GT(bytes.size(), 24u);
    bytes[3] ^= 0xff;  // break the magic
    WriteFileBytes(path, bytes);
  }

  QueryEngine engine(SnapOptions(dir));
  EXPECT_FALSE(engine.snapshot_restore_stats().loaded);
  EXPECT_EQ(engine.snapshot_restore_stats().skipped_files.size(), 2u);

  // Still a working engine: cold, never refusing.
  RegisterAll(&engine);
  Result<QueryResult> result = engine.Submit(RequestSequence()[0]);
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  RemoveTree(dir);
}

TEST(SnapshotStoreTest, VerifyDistinguishesTornTailFromMidFileDamage) {
  const std::string dir = BuildTwoGenerationStore();
  const std::string newest = dir + "/" + snapshot::FileName(2);
  const std::vector<uint8_t> pristine = ReadFileBytes(newest);

  // Torn tail: valid prefix, footer gone.
  std::vector<uint8_t> torn = pristine;
  torn.resize(torn.size() - 5);
  WriteFileBytes(newest, torn);
  snapshot::VerifyReport torn_report;
  ASSERT_TRUE(snapshot::Verify(newest, &torn_report).ok());
  EXPECT_FALSE(torn_report.footer_ok);
  EXPECT_FALSE(torn_report.errors.empty());
  EXPECT_GT(torn_report.valid_prefix_bytes, 24u);

  // Mid-file damage: the valid prefix ends at the flipped frame.
  std::vector<uint8_t> flipped = pristine;
  flipped[40] ^= 0x01;
  WriteFileBytes(newest, flipped);
  snapshot::VerifyReport flip_report;
  ASSERT_TRUE(snapshot::Verify(newest, &flip_report).ok());
  EXPECT_FALSE(flip_report.errors.empty());
  EXPECT_LT(flip_report.valid_prefix_bytes, pristine.size());

  RemoveTree(dir);
}

// ---- byte-level format ----------------------------------------------

std::string Hex(const std::vector<uint8_t>& bytes) {
  static const char kDigits[] = "0123456789abcdef";
  std::string hex;
  for (const uint8_t b : bytes) {
    hex.push_back(kDigits[b >> 4]);
    hex.push_back(kDigits[b & 0xF]);
  }
  return hex;
}

// Two policies (one with a ⊥ edge) and one transform, every field set.
SnapshotImage FixedImage() {
  SnapshotImage image;
  SnapshotPolicy line;
  line.registered_name = "line";
  line.policy_name = "L_4";
  line.version = 1;
  line.epsilon_cap = 2.0;
  line.dims = {4};
  line.num_vertices = 4;
  line.edges = {{0, 1}, {1, 2}, {2, 3}};
  line.data = {1.0, 2.0, 3.0, 4.0};
  line.plan_hints = {{0, "tree", 0}};
  SnapshotPolicy grid;
  grid.registered_name = "grid";
  grid.policy_name = "G_2x2";
  grid.version = 3;
  grid.epsilon_cap = 1.5;
  grid.dims = {2, 2};
  grid.num_vertices = 4;
  grid.edges = {{0, 1}, {0, 2}, {1, 3}, {2, 3}, {3, Graph::kBottom}};
  grid.data = {0.5, 0.0, 0.0, 1.0};
  grid.plan_hints = {{1, "spanner", 3}};
  image.policies = {line, grid};
  SnapshotTransform transform;
  transform.registered_name = "line";
  transform.version = 1;
  transform.family = "tree/1";
  transform.payload.vectors = {{0.5, -1.25}};
  transform.payload.scalars = {2.0};
  image.transforms = {transform};
  return image;
}

TEST(SnapshotStoreTest, FileBytesArePinned) {
  // A change to the header, the frame, or a section codec makes every
  // snapshot already on disk unreadable, so it must show up here first.
  const std::string dir = MakeTempDir();
  uint64_t generation = 0;
  ASSERT_TRUE(snapshot::Write(dir, FixedImage(), &generation).ok());
  ASSERT_EQ(generation, 1u);
  EXPECT_EQ(snapshot::FileName(1), "snapshot-0000000000000001.bfs");
  EXPECT_EQ(Hex(ReadFileBytes(dir + "/" + snapshot::FileName(1))),
            "4246534e415053310100000001000000000000001622362ca00000002f3290e6"
            "0104006c696e6503004c5f340100000000000000000000000000004001000000"
            "0400000000000000040000000000000003000000000000000000000000000000"
            "0100000000000000010000000000000002000000000000000200000000000000"
            "03000000000000000400000000000000000000000000f03f0000000000000040"
            "0000000000000840000000000000104001000400747265650000000000000000"
            "cd0000007bf34a83010400677269640500475f32783203000000000000000000"
            "00000000f83f0200000002000000000000000200000000000000040000000000"
            "0000050000000000000000000000000000000100000000000000000000000000"
            "0000020000000000000001000000000000000300000000000000020000000000"
            "000003000000000000000300000000000000ffffffffffffffff040000000000"
            "0000000000000000e03f00000000000000000000000000000000000000000000"
            "f03f010107007370616e6e657203000000000000003a00000080a5d031020400"
            "6c696e650100000000000000000600747265652f310102000000000000000000"
            "00000000e03f000000000000f4bf0100000000000000400d000000dfd9fc7a03"
            "030000000100000000000000");
  RemoveTree(dir);
}

// The test's own copy of the wire format, so crafted files do not
// depend on the encoder under test.
void PutLE(std::string* out, uint64_t v, int bytes) {
  for (int i = 0; i < bytes; ++i) {
    out->push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
  }
}

void PutStr(std::string* out, const std::string& s) {
  PutLE(out, s.size(), 2);
  out->append(s);
}

void PutFrame(const std::string& payload, std::string* out) {
  PutLE(out, payload.size(), 4);
  PutLE(out, Crc32cMask(Crc32c(payload.data(), payload.size())), 4);
  out->append(payload);
}

// A generation file: valid header, `sections` framed with valid CRCs,
// and a valid footer counting them.
void WriteCrafted(const std::string& path, uint64_t generation,
                  const std::vector<std::string>& sections) {
  std::string file = "BFSNAPS1";
  PutLE(&file, 1, 4);
  PutLE(&file, generation, 8);
  PutLE(&file, Crc32c(file.data(), file.size()), 4);
  for (const std::string& section : sections) PutFrame(section, &file);
  std::string footer(1, '\x03');
  PutLE(&footer, sections.size(), 4);
  PutLE(&footer, generation, 8);
  PutFrame(footer, &file);
  WriteFileBytes(path, std::vector<uint8_t>(file.begin(), file.end()));
}

TEST(SnapshotStoreTest, OverflowingSectionCountsAreCorruptNotCrash) {
  // Each section claims an element count whose byte size overflows the
  // bounds check's multiply (64-bit for the vector and edge counts,
  // 32-bit for the dims count), so a wrapped check would pass and
  // resize() would run on the untrusted count.
  std::string vector_len(1, '\x02');  // transform: vector of 2^61 doubles
  PutStr(&vector_len, "line");
  PutLE(&vector_len, 1, 8);           // version
  PutLE(&vector_len, 0, 1);           // data_dependent
  PutStr(&vector_len, "tree/1");
  PutLE(&vector_len, 1, 1);           // one vector
  PutLE(&vector_len, uint64_t{1} << 61, 8);
  PutLE(&vector_len, 0, 8);

  std::string policy_head(1, '\x01');  // policy: names, version, cap
  PutStr(&policy_head, "line");
  PutStr(&policy_head, "L_4");
  PutLE(&policy_head, 1, 8);
  PutLE(&policy_head, 0, 8);
  std::string dims_count = policy_head;  // 0xE0000001 * 8 wraps to 8
  PutLE(&dims_count, 0xE0000001u, 4);
  PutLE(&dims_count, 4, 8);
  std::string edge_count = policy_head;  // (2^60 + 1) * 16 wraps to 16
  PutLE(&edge_count, 1, 4);
  PutLE(&edge_count, 4, 8);               // dims = {4}
  PutLE(&edge_count, 4, 8);               // num_vertices
  PutLE(&edge_count, (uint64_t{1} << 60) + 1, 8);
  edge_count.append(16, '\0');            // one edge's bytes

  for (const std::string& section : {vector_len, dims_count, edge_count}) {
    const std::string dir = MakeTempDir();
    WriteCrafted(dir + "/" + snapshot::FileName(1), 1, {});
    const std::string bad = dir + "/" + snapshot::FileName(2);
    WriteCrafted(bad, 2, {section});

    snapshot::VerifyReport verify;
    ASSERT_TRUE(snapshot::Verify(bad, &verify).ok());
    ASSERT_EQ(verify.errors.size(), 1u);
    EXPECT_NE(verify.errors[0].find("undecodable section"), std::string::npos)
        << verify.errors[0];

    SnapshotImage image;
    snapshot::OpenReport open;
    ASSERT_TRUE(snapshot::OpenLatest(dir, &image, &open).ok());
    EXPECT_TRUE(open.loaded);
    EXPECT_EQ(open.generation, 1u);
    ASSERT_EQ(open.skipped.size(), 1u);
    EXPECT_NE(open.skipped[0].find(snapshot::FileName(2)), std::string::npos);
    RemoveTree(dir);
  }
}

// A policy section in wire order: one edge 0-1, all-zero data, no
// plan hints; `cap`, `dims` and `cells` are the fields under test.
std::string PolicySection(const std::string& name, double cap,
                          const std::vector<uint64_t>& dims, uint64_t cells) {
  std::string section(1, '\x01');
  PutStr(&section, name);
  PutStr(&section, "P");
  PutLE(&section, 1, 8);  // version
  uint64_t cap_bits = 0;
  std::memcpy(&cap_bits, &cap, sizeof(cap));
  PutLE(&section, cap_bits, 8);
  PutLE(&section, dims.size(), 4);
  for (const uint64_t d : dims) PutLE(&section, d, 8);
  PutLE(&section, cells, 8);  // num_vertices
  PutLE(&section, 1, 8);      // one edge
  PutLE(&section, 0, 8);
  PutLE(&section, 1, 8);
  PutLE(&section, cells, 8);  // data
  for (uint64_t i = 0; i < cells; ++i) PutLE(&section, 0, 8);
  PutLE(&section, 0, 1);  // no plan hints
  return section;
}

TEST(SnapshotStoreTest, RestoreSkipsMalformedPoliciesInsteadOfAborting) {
  // Sections that decode under valid CRCs but describe policies the
  // engine cannot build: a zero-width dimension (DomainShape aborts on
  // it), dims whose cell count wraps around to the vertex count, and a
  // NaN ε cap (the ledger aborts on it). Restore skips each one — the
  // store is fail-open — and the well-formed sibling still restores.
  const std::string dir = MakeTempDir();
  WriteCrafted(dir + "/" + snapshot::FileName(1), 1,
               {PolicySection("zero_dim", 1.0, {0}, 2),
                PolicySection("wrapped", 1.0, {(uint64_t{1} << 63) + 1, 2}, 2),
                PolicySection("nan_cap", std::nan(""), {2}, 2),
                PolicySection("sound", 1.0, {2}, 2)});

  QueryEngine engine(SnapOptions(dir));
  const QueryEngine::SnapshotRestoreStats& stats =
      engine.snapshot_restore_stats();
  EXPECT_TRUE(stats.loaded);
  EXPECT_EQ(stats.policies_restored, 1u);
  EXPECT_EQ(stats.items_skipped, 3u);
  EXPECT_EQ(engine.OpenSession("nan", std::nan("")).code(),
            StatusCode::kInvalidArgument);
  ASSERT_TRUE(engine.OpenSession("s", 1.0).ok());
  QueryRequest request;
  request.session = "s";
  request.policy = "sound";
  request.workload = IdentityWorkload(2);
  request.epsilon = 0.5;
  Result<QueryResult> result = engine.Submit(request);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  RemoveTree(dir);
}

}  // namespace
}  // namespace blowfish
