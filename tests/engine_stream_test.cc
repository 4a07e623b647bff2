// Result-streaming battery. The contract under test: a stream's
// chunks, concatenated, are bit-identical to the materialized Submit
// answer for the same engine state and seed (the chunks are pure
// post-processing of the same noisy releases); exactly one ε charge
// happens per stream, at admission; Cancel() keeps the charge and is
// sticky; a stream outlives its engine; and concurrent consumers take
// each chunk exactly once. Runs under TSan in CI with the other
// engine_* suites.

#include <gtest/gtest.h>

#include <memory>
#include <thread>
#include <vector>

#include "engine/query_engine.h"
#include "workload/builders.h"

namespace blowfish {
namespace {

Vector Ramp(size_t n) {
  Vector x(n);
  for (size_t i = 0; i < n; ++i) x[i] = static_cast<double>(i % 7);
  return x;
}

/// Drains a stream; asserts chunks arrive in order with contiguous
/// offsets. Returns the concatenation; `terminal` receives the final
/// status (OK = kDone).
Vector Collect(ResultStream* stream, Status* terminal,
               size_t* num_chunks = nullptr) {
  Vector all;
  size_t chunks = 0;
  for (;;) {
    StreamChunk chunk;
    Result<StreamNext> next = stream->Next(&chunk);
    if (!next.ok()) {
      *terminal = next.status();
      break;
    }
    if (*next == StreamNext::kDone) {
      *terminal = Status::OK();
      break;
    }
    EXPECT_EQ(chunk.offset, all.size()) << "chunks must be contiguous";
    EXPECT_FALSE(chunk.values.empty());
    all.insert(all.end(), chunk.values.begin(), chunk.values.end());
    ++chunks;
  }
  if (num_chunks != nullptr) *num_chunks = chunks;
  return all;
}

void ExpectBitIdentical(const Vector& a, const Vector& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i], b[i]) << "divergence at index " << i;
  }
}

RangeWorkload SomeRanges(size_t k, size_t count) {
  Rng rng(17);
  return RandomRanges(DomainShape({k, k}), count, &rng);
}

// ---------------------------------------------------------------------
// Determinism: chunk concatenation == Submit, per execution path.

TEST(StreamDeterminism, GridFastPathChunksMatchSubmit) {
  const size_t k = 16;
  const auto make_engine = [&] {
    auto engine = std::make_unique<QueryEngine>(EngineOptions{/*seed=*/41, false});
    engine
        ->RegisterPolicy("slab", GridPolicy(DomainShape({k, k}), 4),
                         Ramp(k * k), 100.0)
        .Check();
    engine->OpenSession("s", 100.0).Check();
    return engine;
  };
  QueryRequest request;
  request.session = "s";
  request.policy = "slab";
  request.ranges = SomeRanges(k, 37);  // 37 % 8 != 0: uneven tail chunk
  request.epsilon = 0.5;

  auto materialized = make_engine();
  const QueryResult full = materialized->Submit(request).ValueOrDie();
  ASSERT_TRUE(full.range_fast_path);

  auto streamed = make_engine();
  StreamOptions options;
  options.chunk_queries = 8;
  const std::shared_ptr<ResultStream> stream =
      streamed->SubmitStream(request, options).ValueOrDie();
  const StreamHeader header = stream->header().ValueOrDie();
  EXPECT_TRUE(header.range_fast_path);
  EXPECT_EQ(header.total_answers, 37u);
  EXPECT_EQ(header.plan_kind, full.plan_kind);

  Status terminal = Status::Internal("unset");
  size_t chunks = 0;
  const Vector concat = Collect(stream.get(), &terminal, &chunks);
  EXPECT_TRUE(terminal.ok());
  EXPECT_EQ(chunks, (37 + 7) / 8);
  ExpectBitIdentical(concat, full.answers);

  // Exactly one ε charge, at admission — both engines drained the same.
  EXPECT_EQ(*streamed->SessionRemaining("s"),
            *materialized->SessionRemaining("s"));
  EXPECT_NEAR(*streamed->SessionRemaining("s"), 99.5, 1e-12);
}

TEST(StreamDeterminism, DenseRowBlocksMatchSubmit) {
  const size_t domain = 48;
  const auto make_engine = [&] {
    auto engine = std::make_unique<QueryEngine>(EngineOptions{/*seed=*/42, false});
    engine->RegisterPolicy("line", LinePolicy(domain), Ramp(domain), 100.0)
        .Check();
    engine->OpenSession("s", 100.0).Check();
    return engine;
  };
  QueryRequest request;
  request.session = "s";
  request.policy = "line";
  request.workload = CumulativeWorkload(domain);
  request.epsilon = 0.25;

  auto materialized = make_engine();
  const QueryResult full = materialized->Submit(request).ValueOrDie();

  auto streamed = make_engine();
  StreamOptions options;
  options.chunk_queries = 7;  // uneven tail again
  const std::shared_ptr<ResultStream> stream =
      streamed->SubmitStream(request, options).ValueOrDie();
  EXPECT_FALSE(stream->header().ValueOrDie().range_fast_path);

  Status terminal = Status::Internal("unset");
  const Vector concat = Collect(stream.get(), &terminal);
  EXPECT_TRUE(terminal.ok());
  ExpectBitIdentical(concat, full.answers);
}

TEST(StreamDeterminism, SummedAreaRangePathMatchesSubmit) {
  // Ranges against a non-grid policy answer from x̂ via the summed-area
  // table; the stream shares that table across chunks.
  const size_t domain = 64;
  const auto make_engine = [&] {
    auto engine = std::make_unique<QueryEngine>(EngineOptions{/*seed=*/43, false});
    engine->RegisterPolicy("line", LinePolicy(domain), Ramp(domain), 100.0)
        .Check();
    engine->OpenSession("s", 100.0).Check();
    return engine;
  };
  std::vector<RangeQuery> queries;
  for (size_t i = 0; i + 4 < domain; i += 3) queries.push_back({{i}, {i + 4}});
  QueryRequest request;
  request.session = "s";
  request.policy = "line";
  request.ranges = RangeWorkload("windows", DomainShape({domain}), queries);
  request.epsilon = 0.25;

  auto materialized = make_engine();
  const QueryResult full = materialized->Submit(request).ValueOrDie();
  ASSERT_FALSE(full.range_fast_path);

  auto streamed = make_engine();
  StreamOptions options;
  options.chunk_queries = 5;
  const std::shared_ptr<ResultStream> stream =
      streamed->SubmitStream(request, options).ValueOrDie();
  Status terminal = Status::Internal("unset");
  const Vector concat = Collect(stream.get(), &terminal);
  EXPECT_TRUE(terminal.ok());
  ExpectBitIdentical(concat, full.answers);
}

// ---------------------------------------------------------------------
// Lifecycle: cancellation, charges, terminal exactly-once.

TEST(StreamLifecycle, CancelKeepsChargeAndIsSticky) {
  QueryEngine engine(EngineOptions{/*seed=*/45, false});
  engine.RegisterPolicy("line", LinePolicy(32), Ramp(32), 10.0).Check();
  engine.OpenSession("s", 10.0).Check();
  QueryRequest request;
  request.session = "s";
  request.policy = "line";
  request.workload = IdentityWorkload(32);
  request.epsilon = 1.0;

  StreamOptions options;
  options.chunk_queries = 4;
  const std::shared_ptr<ResultStream> stream =
      engine.SubmitStream(request, options).ValueOrDie();
  // ε left the ledger at admission, before any chunk was read.
  EXPECT_NEAR(*engine.SessionRemaining("s"), 9.0, 1e-12);

  StreamChunk chunk;
  ASSERT_EQ(*stream->Next(&chunk), StreamNext::kChunk);
  stream->Cancel();
  EXPECT_TRUE(stream->finished());
  // Sticky terminal: every later Next reports the same cancellation.
  for (int i = 0; i < 3; ++i) {
    const Result<StreamNext> next = stream->Next(&chunk);
    ASSERT_FALSE(next.ok());
    EXPECT_EQ(next.status().code(), StatusCode::kCancelled);
  }
  // The charge stands — privacy was spent when the noise was drawn.
  EXPECT_NEAR(*engine.SessionRemaining("s"), 9.0, 1e-12);
  // Cancel after the fact stays a no-op, and the engine still serves.
  stream->Cancel();
  EXPECT_TRUE(engine.Submit(request).ok());
}

TEST(StreamLifecycle, AdmissionFailureArrivesAsTerminalStatus) {
  QueryEngine engine(EngineOptions{/*seed=*/46, false});
  engine.RegisterPolicy("line", LinePolicy(16), Ramp(16), 0.5).Check();
  engine.OpenSession("s", 10.0).Check();
  QueryRequest request;
  request.session = "s";
  request.policy = "line";
  request.workload = IdentityWorkload(16);
  request.epsilon = 1.0;  // exceeds the policy cap
  // The sync API surfaces admission failures directly, like Submit.
  const auto refused = engine.SubmitStream(request);
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), StatusCode::kOutOfRange);
  // Nothing was charged.
  EXPECT_NEAR(*engine.SessionRemaining("s"), 10.0, 1e-12);
  EXPECT_NEAR(*engine.PolicyRemaining("line"), 0.5, 1e-12);
}

TEST(StreamLifecycle, StreamOutlivesItsEngine) {
  // The cursor holds the policy snapshot and the drawn releases, not
  // the engine: a stream keeps delivering after its engine is gone,
  // and the chunks still match a same-seed Submit bit for bit.
  const size_t k = 16;
  QueryRequest request;
  request.session = "s";
  request.policy = "slab";
  request.ranges = SomeRanges(k, 29);
  request.epsilon = 0.5;
  const auto make_engine = [&] {
    auto engine =
        std::make_unique<QueryEngine>(EngineOptions{/*seed=*/50, false});
    engine
        ->RegisterPolicy("slab", GridPolicy(DomainShape({k, k}), 4),
                         Ramp(k * k), 100.0)
        .Check();
    engine->OpenSession("s", 100.0).Check();
    return engine;
  };
  const QueryResult full = make_engine()->Submit(request).ValueOrDie();

  StreamOptions options;
  options.chunk_queries = 4;
  std::shared_ptr<ResultStream> stream;
  Vector concat;
  {
    std::unique_ptr<QueryEngine> engine = make_engine();
    stream = engine->SubmitStream(request, options).ValueOrDie();
    StreamChunk first;
    ASSERT_EQ(*stream->Next(&first), StreamNext::kChunk);
    EXPECT_EQ(first.offset, 0u);
    concat = first.values;
  }  // the engine dies with the stream half read

  Status terminal = Status::Internal("unset");
  size_t chunks = 0;
  for (;;) {
    StreamChunk chunk;
    const Result<StreamNext> next = stream->Next(&chunk);
    if (!next.ok() || *next == StreamNext::kDone) {
      terminal = next.ok() ? Status::OK() : next.status();
      break;
    }
    EXPECT_EQ(chunk.offset, concat.size());
    concat.insert(concat.end(), chunk.values.begin(), chunk.values.end());
    ++chunks;
  }
  EXPECT_TRUE(terminal.ok()) << terminal.ToString();
  EXPECT_EQ(chunks, (29u + 3) / 4 - 1);
  ExpectBitIdentical(concat, full.answers);
  // Chunks are never buffered: one chunk is the most ever resident.
  EXPECT_EQ(stream->peak_resident_bytes(),
            options.chunk_queries * sizeof(double));
  // kDone is sticky, and a Cancel after completion does not change it.
  stream->Cancel();
  StreamChunk chunk;
  EXPECT_EQ(*stream->Next(&chunk), StreamNext::kDone);
}

TEST(StreamLifecycle, ConcurrentConsumersTakeEachChunkOnce) {
  // Several threads drain one stream: every chunk goes to exactly one
  // of them, and the chunks, put back in offset order, are the
  // materialized answer vector.
  constexpr size_t kDomain = 96;
  constexpr size_t kConsumers = 4;
  QueryRequest request;
  request.session = "s";
  request.policy = "line";
  request.workload = IdentityWorkload(kDomain);
  request.epsilon = 0.1;
  const auto make_engine = [&] {
    auto engine =
        std::make_unique<QueryEngine>(EngineOptions{/*seed=*/51, false});
    engine->RegisterPolicy("line", LinePolicy(kDomain), Ramp(kDomain), 1e6)
        .Check();
    engine->OpenSession("s", 1e6).Check();
    return engine;
  };
  const QueryResult full = make_engine()->Submit(request).ValueOrDie();

  auto engine = make_engine();
  StreamOptions options;
  options.chunk_queries = 3;
  const std::shared_ptr<ResultStream> stream =
      engine->SubmitStream(request, options).ValueOrDie();
  std::vector<std::vector<StreamChunk>> taken(kConsumers);
  std::vector<std::thread> consumers;
  for (size_t t = 0; t < kConsumers; ++t) {
    consumers.emplace_back([&, t] {
      for (;;) {
        StreamChunk chunk;
        const Result<StreamNext> next = stream->Next(&chunk);
        if (!next.ok() || *next == StreamNext::kDone) return;
        taken[t].push_back(std::move(chunk));
      }
    });
  }
  for (std::thread& consumer : consumers) consumer.join();

  Vector concat(kDomain, 0.0);
  std::vector<int> seen(kDomain, 0);
  for (const std::vector<StreamChunk>& chunks : taken) {
    for (const StreamChunk& chunk : chunks) {
      for (size_t i = 0; i < chunk.values.size(); ++i) {
        ASSERT_LT(chunk.offset + i, kDomain);
        concat[chunk.offset + i] = chunk.values[i];
        ++seen[chunk.offset + i];
      }
    }
  }
  for (size_t i = 0; i < kDomain; ++i) {
    EXPECT_EQ(seen[i], 1) << "answer " << i;
  }
  ExpectBitIdentical(concat, full.answers);
  EXPECT_TRUE(stream->finished());
}

}  // namespace
}  // namespace blowfish
