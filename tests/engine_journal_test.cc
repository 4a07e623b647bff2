// Crash-safe ε-ledger journal tests: wire-format recovery edges
// (torn tails, corruption, seq gaps, checkpoint+tail equivalence),
// fault-injected append/fsync failures against the production retry
// and fail-closed paths, and end-to-end engine recovery — every
// charge the engine admits must be covered by a durable record, and
// a journal that cannot make a record durable must refuse the charge
// without drawing noise.

#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "engine/budget_accountant.h"
#include "engine/ledger_journal.h"
#include "engine/query_engine.h"
#include "workload/builders.h"

namespace blowfish {
namespace {

// ------------------------------------------------------------ fixtures

class JournalTest : public ::testing::Test {
 protected:
  void SetUp() override {
    char tmpl[] = "/tmp/bfjournal.XXXXXX";
    ASSERT_NE(::mkdtemp(tmpl), nullptr);
    dir_ = tmpl;
  }

  void TearDown() override {
    // Best-effort cleanup; stray files are in /tmp anyway.
    JournalScanReport report;
    if (LedgerJournal::Scan(dir_, PosixJournalIo(), &report).ok()) {
      for (const auto& segment : report.segments) {
        (void)PosixJournalIo()->Remove(dir_ + "/" + segment.name);
      }
    }
    ::rmdir(dir_.c_str());
  }

  JournalOptions Options() {
    JournalOptions options;
    options.dir = dir_;
    options.retry_backoff_micros = 0;  // keep fault tests fast
    return options;
  }

  std::string dir_;
};

JournalRecord Spend(uint64_t seq, const std::string& id, double epsilon,
                    double remaining) {
  JournalRecord rec;
  rec.type = JournalRecord::Type::kSpend;
  rec.seq = seq;
  rec.epsilon = epsilon;
  rec.workload = "w";
  rec.ledgers.push_back(JournalRecord::Line{id, remaining});
  return rec;
}

// Writes a raw segment file from already-framed body bytes.
void WriteSegment(const std::string& dir, uint64_t start_seq,
                  const std::string& body) {
  const std::string path = dir + "/" + JournalSegmentName(start_seq);
  std::string bytes = JournalSegmentHeader(start_seq) + body;
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), f), bytes.size());
  std::fclose(f);
}

std::string Frame(const JournalRecord& rec) {
  std::string payload;
  JournalEncodeRecord(rec, &payload);
  std::string framed;
  JournalFrameRecord(payload, &framed);
  return framed;
}

Status AppendSpend(LedgerJournal* journal, const std::string& id,
                   double epsilon, double remaining) {
  LedgerJournal::ChargeLine line;
  line.id = &id;
  line.remaining = remaining;
  return journal->AppendCharge(/*charged=*/true, StatusCode::kOk, epsilon, 1,
                               "w", nullptr, &line, 1);
}

// --------------------------------------------------- clean round trips

TEST_F(JournalTest, FreshDirectoryOpensEmpty) {
  Result<std::unique_ptr<LedgerJournal>> journal = LedgerJournal::Open(Options());
  ASSERT_TRUE(journal.ok()) << journal.status().ToString();
  const LedgerJournal::Stats stats = (*journal)->stats();
  EXPECT_EQ(stats.next_seq, 1u);
  EXPECT_EQ(stats.recovered_records, 0u);
  EXPECT_EQ(stats.segments, 1u);  // header-only active segment
  EXPECT_TRUE((*journal)->health().ok());
}

TEST_F(JournalTest, OpenRacesConcurrentScrapesOfSharedRegistry) {
  // A scrape holds the registry mutex while the journal gauges take
  // the journal's mutex, so Open must never register metrics while
  // holding that mutex (a lock-order inversion; a deadlock when both
  // sides meet). Journals stay alive until the scraper stops: the
  // registry keeps calling their gauges.
  constexpr int kJournals = 8;
  MetricsRegistry metrics;
  std::atomic<bool> stop{false};
  std::atomic<size_t> scrapes{0};
  std::thread scraper([&] {
    while (!stop.load()) {
      (void)metrics.PrometheusText();
      (void)metrics.SnapshotJson();
      scrapes.fetch_add(1);
    }
  });
  std::vector<std::unique_ptr<LedgerJournal>> journals;
  std::vector<std::string> dirs;
  for (int i = 0; i < kJournals; ++i) {
    JournalOptions options = Options();
    options.dir = dir_ + "/j" + std::to_string(i);
    options.metrics = &metrics;
    Result<std::unique_ptr<LedgerJournal>> journal =
        LedgerJournal::Open(options);
    dirs.push_back(options.dir);
    if (!journal.ok()) {
      ADD_FAILURE() << journal.status().ToString();
      break;
    }
    journals.push_back(std::move(journal).ValueOrDie());
  }
  while (scrapes.load() < 2) std::this_thread::yield();
  stop.store(true);
  scraper.join();

  double segments = 0.0;
  ASSERT_TRUE(metrics.TryReadValue("engine_journal_segments", &segments));
  EXPECT_EQ(segments, 1.0);  // the last-opened journal's header segment
  journals.clear();
  for (const std::string& dir : dirs) {
    JournalScanReport report;
    if (LedgerJournal::Scan(dir, PosixJournalIo(), &report).ok()) {
      for (const auto& segment : report.segments) {
        (void)PosixJournalIo()->Remove(dir + "/" + segment.name);
      }
    }
    ::rmdir(dir.c_str());
  }
}

TEST_F(JournalTest, ReplayIsBitExactAndConsumeOnce) {
  const std::string alice = "session/alice";
  const std::string cap = "policy/p";
  double spent_alice = 0.0;
  double spent_cap = 0.0;
  {
    auto journal = LedgerJournal::Open(Options()).ValueOrDie();
    for (int i = 0; i < 17; ++i) {
      const double eps = 0.01 * (i + 1);
      spent_alice += eps;
      spent_cap += eps;
      ASSERT_TRUE(AppendSpend(journal.get(), alice, eps, 3.0 - spent_alice).ok());
      ASSERT_TRUE(AppendSpend(journal.get(), cap, eps, 4.0 - spent_cap).ok());
    }
  }
  auto journal = LedgerJournal::Open(Options()).ValueOrDie();
  EXPECT_EQ(journal->stats().recovered_records, 34u);
  RecoveredLedger led;
  ASSERT_TRUE(journal->TakeRecovered(alice, &led));
  // Replay performs the same `spent += ε` chain in the same order, so
  // the recovered total is the identical double, not merely close.
  EXPECT_EQ(led.spent, spent_alice);
  EXPECT_EQ(led.records, 17u);
  EXPECT_FALSE(journal->TakeRecovered(alice, &led));  // consumed
  ASSERT_TRUE(journal->TakeRecovered(cap, &led));
  EXPECT_EQ(led.spent, spent_cap);
  // New appends continue the seq chain past the replayed records.
  EXPECT_EQ(journal->stats().next_seq, 35u);
  ASSERT_TRUE(AppendSpend(journal.get(), alice, 0.5, 0.0).ok());
}

TEST_F(JournalTest, RefusalsReplayToZeroSpend) {
  const std::string bob = "session/bob";
  {
    auto journal = LedgerJournal::Open(Options()).ValueOrDie();
    LedgerJournal::ChargeLine line;
    line.id = &bob;
    line.remaining = 0.4;
    ASSERT_TRUE(journal
                    ->AppendCharge(/*charged=*/false, StatusCode::kOutOfRange,
                                   1.0, 1, "greedy", nullptr, &line, 1)
                    .ok());
  }
  JournalScanReport report;
  ASSERT_TRUE(LedgerJournal::Scan(dir_, PosixJournalIo(), &report).ok());
  EXPECT_EQ(report.refusals, 1u);
  EXPECT_EQ(report.spends, 0u);

  auto journal = LedgerJournal::Open(Options()).ValueOrDie();
  // A refusal spends nothing, so replay leaves no balance to restore —
  // the ledger re-opens at its full budget.
  RecoveredLedger led;
  EXPECT_FALSE(journal->TakeRecovered(bob, &led));
}

TEST_F(JournalTest, HeaderOnlyTrailingSegmentIsLegal) {
  WriteSegment(dir_, 1, "");
  auto journal = LedgerJournal::Open(Options()).ValueOrDie();
  EXPECT_EQ(journal->stats().next_seq, 1u);
  ASSERT_TRUE(AppendSpend(journal.get(), "session/a", 0.1, 0.9).ok());
}

// ------------------------------------------------------ torn & corrupt

TEST_F(JournalTest, TornTailRefusedWithoutFlagRepairedWithIt) {
  const std::string good1 = Frame(Spend(1, "session/a", 0.25, 0.75));
  const std::string good2 = Frame(Spend(2, "session/a", 0.25, 0.5));
  const std::string torn = Frame(Spend(3, "session/a", 0.25, 0.25));
  WriteSegment(dir_, 1,
               good1 + good2 + torn.substr(0, torn.size() - 5));

  JournalScanReport report;
  ASSERT_TRUE(LedgerJournal::Scan(dir_, PosixJournalIo(), &report).ok());
  EXPECT_TRUE(report.torn_tail);
  EXPECT_TRUE(report.errors.empty());
  EXPECT_EQ(report.records, 2u);

  Result<std::unique_ptr<LedgerJournal>> refused = LedgerJournal::Open(Options());
  ASSERT_FALSE(refused.ok());
  EXPECT_NE(refused.status().ToString().find("allow_torn_tail"),
            std::string::npos)
      << refused.status().ToString();

  JournalOptions options = Options();
  options.allow_torn_tail = true;
  auto journal = LedgerJournal::Open(options).ValueOrDie();
  EXPECT_TRUE(journal->stats().recovered_torn_tail);
  RecoveredLedger led;
  ASSERT_TRUE(journal->TakeRecovered("session/a", &led));
  EXPECT_EQ(led.records, 2u);
  EXPECT_EQ(led.spent, 0.25 + 0.25);
  // The tear was truncated out of the file on disk.
  const std::string bytes =
      PosixJournalIo()->ReadAll(dir_ + "/" + JournalSegmentName(1)).ValueOrDie();
  EXPECT_EQ(bytes.size(), report.torn_good_bytes);
  // And the journal keeps appending where the verified tail ended.
  EXPECT_EQ(journal->stats().next_seq, 3u);
  ASSERT_TRUE(AppendSpend(journal.get(), "session/a", 0.25, 0.25).ok());
}

TEST_F(JournalTest, BadHeaderFinalSegmentIsTearOnlyWhenHeaderSized) {
  // Segment 1 holds an acknowledged spend; the final segment's header
  // is garbage but the file has bytes past the 24-byte header. The
  // header is written and synced before any frame, so this cannot be a
  // rotation tear — recovery must refuse rather than delete what could
  // be acknowledged spends.
  WriteSegment(dir_, 1, Frame(Spend(1, "session/a", 0.25, 0.75)));
  const std::string late = dir_ + "/" + JournalSegmentName(2);
  std::string garbage(64, '\xee');
  std::FILE* f = std::fopen(late.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(std::fwrite(garbage.data(), 1, garbage.size(), f),
            garbage.size());
  std::fclose(f);

  JournalScanReport report;
  ASSERT_TRUE(LedgerJournal::Scan(dir_, PosixJournalIo(), &report).ok());
  EXPECT_FALSE(report.torn_tail);
  EXPECT_FALSE(report.errors.empty());
  JournalOptions options = Options();
  options.allow_torn_tail = true;  // must not help
  EXPECT_FALSE(LedgerJournal::Open(options).ok());

  // A partial header (<= 24 bytes) with nothing after it IS the
  // crash-during-rotation signature: deletable, and the acknowledged
  // spend in segment 1 survives recovery.
  ASSERT_TRUE(PosixJournalIo()->TruncateFile(late, 10).ok());
  JournalScanReport torn_report;
  ASSERT_TRUE(LedgerJournal::Scan(dir_, PosixJournalIo(), &torn_report).ok());
  EXPECT_TRUE(torn_report.torn_tail);
  EXPECT_TRUE(torn_report.errors.empty());
  EXPECT_EQ(torn_report.torn_good_bytes, 0u);
  auto journal = LedgerJournal::Open(options).ValueOrDie();
  EXPECT_TRUE(journal->stats().recovered_torn_tail);
  RecoveredLedger led;
  ASSERT_TRUE(journal->TakeRecovered("session/a", &led));
  EXPECT_EQ(led.spent, 0.25);
}

TEST_F(JournalTest, MidFileCorruptionAlwaysRefuses) {
  const std::string good1 = Frame(Spend(1, "session/a", 0.25, 0.75));
  std::string bad = Frame(Spend(2, "session/a", 0.25, 0.5));
  bad[bad.size() / 2] ^= 0x40;  // damage payload under an old CRC
  const std::string good3 = Frame(Spend(3, "session/a", 0.25, 0.25));
  WriteSegment(dir_, 1, good1 + bad + good3);

  JournalScanReport report;
  ASSERT_TRUE(LedgerJournal::Scan(dir_, PosixJournalIo(), &report).ok());
  EXPECT_FALSE(report.errors.empty());
  EXPECT_FALSE(report.torn_tail);  // data follows the damage: not a tear

  JournalOptions options = Options();
  options.allow_torn_tail = true;  // must not help
  Result<std::unique_ptr<LedgerJournal>> refused = LedgerJournal::Open(options);
  ASSERT_FALSE(refused.ok());
  EXPECT_NE(refused.status().ToString().find("ledger_fsck"), std::string::npos);
}

TEST_F(JournalTest, SeqGapAndDuplicateRefuse) {
  {
    WriteSegment(dir_, 1, Frame(Spend(1, "session/a", 0.1, 0.9)) +
                              Frame(Spend(3, "session/a", 0.1, 0.8)));
    JournalScanReport report;
    ASSERT_TRUE(LedgerJournal::Scan(dir_, PosixJournalIo(), &report).ok());
    EXPECT_FALSE(report.errors.empty());
    EXPECT_FALSE(LedgerJournal::Open(Options()).ok());
    ASSERT_TRUE(
        PosixJournalIo()->Remove(dir_ + "/" + JournalSegmentName(1)).ok());
  }
  WriteSegment(dir_, 1, Frame(Spend(1, "session/a", 0.1, 0.9)) +
                            Frame(Spend(1, "session/a", 0.1, 0.8)));
  JournalScanReport report;
  ASSERT_TRUE(LedgerJournal::Scan(dir_, PosixJournalIo(), &report).ok());
  EXPECT_FALSE(report.errors.empty());
  EXPECT_FALSE(LedgerJournal::Open(Options()).ok());
}

// ----------------------------------------------- checkpoint/compaction

TEST_F(JournalTest, CheckpointCompactsAndReplayMatchesStraightLine) {
  const std::string id = "session/a";
  // Straight-line journal: 8 spends, no checkpoint.
  double straight = 0.0;
  for (int i = 0; i < 8; ++i) straight += 0.01 * (i + 1);

  auto journal = LedgerJournal::Open(Options()).ValueOrDie();
  double spent = 0.0;
  for (int i = 0; i < 4; ++i) {
    const double eps = 0.01 * (i + 1);
    spent += eps;
    ASSERT_TRUE(AppendSpend(journal.get(), id, eps, 1.0 - spent).ok());
  }
  std::vector<JournalRecord::CheckpointLine> snapshot;
  snapshot.push_back(JournalRecord::CheckpointLine{id, 1.0, spent});
  ASSERT_TRUE(journal->Checkpoint(snapshot).ok());
  EXPECT_FALSE(journal->checkpoint_due());
  for (int i = 4; i < 8; ++i) {
    const double eps = 0.01 * (i + 1);
    spent += eps;
    ASSERT_TRUE(AppendSpend(journal.get(), id, eps, 1.0 - spent).ok());
  }
  EXPECT_EQ(journal->stats().segments, 1u);  // compacted
  journal.reset();

  auto reopened = LedgerJournal::Open(Options()).ValueOrDie();
  RecoveredLedger led;
  ASSERT_TRUE(reopened->TakeRecovered(id, &led));
  // checkpoint(spent after 4) + tail(4 more) replays to the same
  // double as never checkpointing at all.
  EXPECT_EQ(led.spent, straight);
  ASSERT_TRUE(led.has_total);
  EXPECT_EQ(led.total, 1.0);
}

TEST_F(JournalTest, CheckpointCarriesUnclaimedRecoveredBalances) {
  const std::string orphan = "session/orphan";
  {
    auto journal = LedgerJournal::Open(Options()).ValueOrDie();
    ASSERT_TRUE(AppendSpend(journal.get(), orphan, 0.3, 0.7).ok());
  }
  {
    auto journal = LedgerJournal::Open(Options()).ValueOrDie();
    // Nobody re-opened `orphan` (no TakeRecovered) — compaction must
    // still carry its spend forward.
    ASSERT_TRUE(journal->Checkpoint({}).ok());
  }
  auto journal = LedgerJournal::Open(Options()).ValueOrDie();
  RecoveredLedger led;
  ASSERT_TRUE(journal->TakeRecovered(orphan, &led));
  EXPECT_EQ(led.spent, 0.3);
  EXPECT_FALSE(led.has_total);  // cap was never known
}

// ---------------------------------------------------------- format pin

std::string Hex(const std::string& bytes) {
  static const char kDigits[] = "0123456789abcdef";
  std::string hex;
  for (const char c : bytes) {
    hex.push_back(kDigits[static_cast<uint8_t>(c) >> 4]);
    hex.push_back(kDigits[static_cast<uint8_t>(c) & 0xF]);
  }
  return hex;
}

TEST(JournalFormatTest, SegmentBytesArePinned) {
  // One segment holding a spend, a refusal and a checkpoint, byte for
  // byte: a change to the header, the frame, or the record codec breaks
  // every journal already on disk, so it must show up here first.
  JournalRecord spend;
  spend.type = JournalRecord::Type::kSpend;
  spend.seq = 1;
  spend.wall_micros = 1700000000000000;
  spend.parallel_count = 2;
  spend.epsilon = 0.25;
  spend.workload = "w";
  spend.context = "ctx";
  spend.ledgers = {{"session/alice", 0.75}, {"salaries\x1f" "1", 3.75}};
  JournalRecord refusal;
  refusal.type = JournalRecord::Type::kRefusal;
  refusal.seq = 2;
  refusal.wall_micros = 1700000000000001;
  refusal.refusal = static_cast<uint8_t>(StatusCode::kOutOfRange);
  refusal.epsilon = 5.0;
  refusal.workload = "w";
  refusal.ledgers = {{"session/alice", 0.75}};
  JournalRecord checkpoint;
  checkpoint.type = JournalRecord::Type::kCheckpoint;
  checkpoint.seq = 3;
  checkpoint.wall_micros = 1700000000000002;
  checkpoint.checkpoint = {{"session/alice", 1.0, 0.25}, {"orphan", -1.0, 0.5}};

  const std::string segment = JournalSegmentHeader(1) + Frame(spend) +
                              Frame(refusal) + Frame(checkpoint);
  EXPECT_EQ(JournalSegmentName(1), "journal-0000000000000001.bfj");
  EXPECT_EQ(Hex(segment),
            "42464c4a524e4c3101000000010000000000000090df6da053000000fc2720a8"
            "01010000000000000000401e18240a06000002000000000000000000d03f0100"
            "77030063747802000d0073657373696f6e2f616c696365000000000000e83f0a"
            "0073616c61726965731f310000000000000e403c000000b9d72e540202000000"
            "0000000001401e18240a06000201000000000000000000144001007700000100"
            "0d0073657373696f6e2f616c696365000000000000e83f4c00000080d8219403"
            "030000000000000002401e18240a0600020000000d0073657373696f6e2f616c"
            "696365000000000000f03f000000000000d03f06006f727068616e0000000000"
            "00f0bf000000000000e03f");
}

// ------------------------------------------- accountant journal lines

TEST_F(JournalTest, WideChargeJournalsEveryLine) {
  // Six ledger lines — past the audit ring's fixed 4-line event,
  // including a repeated handle (each occurrence is one line). Every
  // admitted spend must be covered by the durable record, so recovery
  // must replay all six lines, not the first four.
  {
    auto journal = LedgerJournal::Open(Options()).ValueOrDie();
    BudgetAccountant accountant;
    accountant.SetJournal(journal.get());
    LedgerHandle handles[6];
    for (int i = 0; i < 5; ++i) {
      handles[i] =
          accountant.OpenLedger("wide/" + std::to_string(i), 1.0).ValueOrDie();
    }
    handles[5] = handles[0];  // wide/0 composes 2·ε sequentially
    ChargeTag tag;
    tag.workload = "wide";
    ASSERT_TRUE(accountant.Charge(handles, 6, 0.125, tag).ok());
    accountant.SetJournal(nullptr);
  }
  auto reopened = LedgerJournal::Open(Options()).ValueOrDie();
  for (int i = 0; i < 5; ++i) {
    RecoveredLedger led;
    ASSERT_TRUE(reopened->TakeRecovered("wide/" + std::to_string(i), &led))
        << "ledger wide/" << i << " lost by recovery";
    EXPECT_EQ(led.spent, i == 0 ? 0.25 : 0.125) << "wide/" << i;
  }
}

TEST_F(JournalTest, ChargeWiderThanWireFormatRefusedOutright) {
  // The frame's line count is a u16; a wider charge must be refused
  // before any bytes land, never silently truncated.
  auto journal = LedgerJournal::Open(Options()).ValueOrDie();
  const std::string id = "session/a";
  std::vector<LedgerJournal::ChargeLine> lines(
      LedgerJournal::kMaxChargeLines + 1);
  for (LedgerJournal::ChargeLine& line : lines) line.id = &id;
  Status refused =
      journal->AppendCharge(/*charged=*/true, StatusCode::kOk, 0.001, 1, "w",
                            nullptr, lines.data(), lines.size());
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.code(), StatusCode::kUnavailableDurability);
  EXPECT_EQ(journal->stats().appends, 0u);
  // Neither a seq was consumed nor the journal hurt.
  EXPECT_TRUE(journal->health().ok());
  ASSERT_TRUE(AppendSpend(journal.get(), id, 0.1, 0.9).ok());
}

TEST_F(JournalTest, FailedRestoreHandsRecoveredBalanceBack) {
  // A checkpoint carrying a negative spent cannot be applied to a
  // fresh ledger (RestoreSpent refuses it). The failed OpenLedger must
  // return the balance to the journal: a retried open fails the same
  // way instead of silently succeeding with a refilled budget.
  const std::string id = "session/neg";
  JournalRecord rec;
  rec.type = JournalRecord::Type::kCheckpoint;
  rec.seq = 1;
  rec.checkpoint.push_back(JournalRecord::CheckpointLine{id, 1.0, -0.5});
  WriteSegment(dir_, 1, Frame(rec));

  auto journal = LedgerJournal::Open(Options()).ValueOrDie();
  BudgetAccountant accountant;
  accountant.SetJournal(journal.get());
  EXPECT_FALSE(accountant.OpenLedger(id, 1.0).ok());
  EXPECT_FALSE(accountant.OpenLedger(id, 1.0).ok());  // still not refilled
  RecoveredLedger led;
  ASSERT_TRUE(journal->TakeRecovered(id, &led));  // balance still held
  EXPECT_EQ(led.spent, -0.5);
  accountant.SetJournal(nullptr);
}

// ------------------------------------------------------ injected faults

TEST_F(JournalTest, TransientAppendFailureIsRiddenOut) {
  JournalFaultPlan plan;
  FaultInjectingJournalIo io(PosixJournalIo(), &plan);
  JournalOptions options = Options();
  options.io = &io;
  auto journal = LedgerJournal::Open(options).ValueOrDie();

  // Fail the next two appends, leaving 3 torn bytes each time —
  // within the retry budget (4), and the retries must first truncate
  // the torn bytes back out or replay sees garbage.
  plan.torn_bytes_on_failure = 3;
  plan.fail_append_count = 2;
  plan.fail_append_at = plan.append_calls.load() + 1;
  ASSERT_TRUE(AppendSpend(journal.get(), "session/a", 0.25, 0.75).ok());
  EXPECT_GE(journal->stats().retries, 2u);
  EXPECT_EQ(journal->stats().append_failures, 0u);
  journal.reset();

  auto reopened = LedgerJournal::Open(Options()).ValueOrDie();
  RecoveredLedger led;
  ASSERT_TRUE(reopened->TakeRecovered("session/a", &led));
  EXPECT_EQ(led.records, 1u);  // exactly once, no duplicated frames
  EXPECT_EQ(led.spent, 0.25);
}

TEST_F(JournalTest, ShortWritesAreProgressNotFaults) {
  JournalFaultPlan plan;
  FaultInjectingJournalIo io(PosixJournalIo(), &plan);
  JournalOptions options = Options();
  options.io = &io;
  auto journal = LedgerJournal::Open(options).ValueOrDie();

  plan.short_append_at = plan.append_calls.load() + 1;
  ASSERT_TRUE(AppendSpend(journal.get(), "session/a", 0.25, 0.75).ok());
  EXPECT_EQ(journal->stats().retries, 0u);  // no retry budget consumed
  journal.reset();

  auto reopened = LedgerJournal::Open(Options()).ValueOrDie();
  RecoveredLedger led;
  ASSERT_TRUE(reopened->TakeRecovered("session/a", &led));
  EXPECT_EQ(led.records, 1u);
}

TEST_F(JournalTest, DeadDiskFailsClosedAndStaysUsable) {
  JournalFaultPlan plan;
  FaultInjectingJournalIo io(PosixJournalIo(), &plan);
  JournalOptions options = Options();
  options.io = &io;
  options.io_retries = 2;
  auto journal = LedgerJournal::Open(options).ValueOrDie();
  ASSERT_TRUE(AppendSpend(journal.get(), "session/a", 0.1, 0.9).ok());

  plan.fail_append_at = plan.append_calls.load() + 1;  // unbounded count
  Status refused = AppendSpend(journal.get(), "session/a", 0.1, 0.8);
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.code(), StatusCode::kUnavailableDurability);
  EXPECT_EQ(journal->stats().append_failures, 1u);
  // The give-up truncated the partial record back out: the journal is
  // refusing charges, not poisoned, and works once the disk returns.
  EXPECT_TRUE(journal->health().ok());
  plan.fail_append_at = 0;
  ASSERT_TRUE(AppendSpend(journal.get(), "session/a", 0.1, 0.8).ok());
  journal.reset();

  auto reopened = LedgerJournal::Open(Options()).ValueOrDie();
  RecoveredLedger led;
  ASSERT_TRUE(reopened->TakeRecovered("session/a", &led));
  EXPECT_EQ(led.records, 2u);  // the refused spend left no trace
  EXPECT_EQ(led.spent, 0.1 + 0.1);
}

TEST_F(JournalTest, FsyncFailureRefusesWithoutRetryingSync) {
  JournalFaultPlan plan;
  FaultInjectingJournalIo io(PosixJournalIo(), &plan);
  JournalOptions options = Options();
  options.io = &io;
  auto journal = LedgerJournal::Open(options).ValueOrDie();

  const uint64_t syncs_before = plan.sync_calls.load();
  plan.fail_sync_count = 1;
  plan.fail_sync_at = syncs_before + 1;
  Status refused = AppendSpend(journal.get(), "session/a", 0.1, 0.9);
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.code(), StatusCode::kUnavailableDurability);
  // One failed data sync + one repair sync — never "retry fsync until
  // it says yes" (a failed fsync can mark dirty pages clean; a later
  // success would claim durability that never happened).
  EXPECT_EQ(plan.sync_calls.load(), syncs_before + 2);
  EXPECT_TRUE(journal->health().ok());
  ASSERT_TRUE(AppendSpend(journal.get(), "session/a", 0.1, 0.9).ok());
}

TEST_F(JournalTest, UnrepairableFailurePoisonsEveryLaterCharge) {
  JournalFaultPlan plan;
  FaultInjectingJournalIo io(PosixJournalIo(), &plan);
  JournalOptions options = Options();
  options.io = &io;
  auto journal = LedgerJournal::Open(options).ValueOrDie();

  // Data fsync fails AND the repair fsync fails: the tail state is
  // unknowable, so the journal must go sticky-unavailable.
  plan.fail_sync_count = 2;
  plan.fail_sync_at = plan.sync_calls.load() + 1;
  Status refused = AppendSpend(journal.get(), "session/a", 0.1, 0.9);
  ASSERT_FALSE(refused.ok());
  ASSERT_FALSE(journal->health().ok());
  EXPECT_EQ(journal->health().code(), StatusCode::kUnavailableDurability);

  // Disk is "fixed" now; the poisoned journal must still refuse.
  plan.fail_sync_at = 0;
  Status still = AppendSpend(journal.get(), "session/a", 0.1, 0.9);
  ASSERT_FALSE(still.ok());
  EXPECT_EQ(still.code(), StatusCode::kUnavailableDurability);
}

// ----------------------------------------------------- engine-level

Vector Ramp(size_t n, size_t mod) {
  Vector x(n, 0.0);
  for (size_t i = 0; i < n; ++i) x[i] = static_cast<double>(i % mod);
  return x;
}

bool BitEqual(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

TEST_F(JournalTest, EngineRecoversBalancesBitExact) {
  EngineOptions options;
  options.seed = 7;
  options.journal_path = dir_;
  double session_remaining = 0.0;
  double policy_remaining = 0.0;
  {
    auto engine = QueryEngine::Open(options).ValueOrDie();
    ASSERT_TRUE(engine->RegisterPolicy("salaries", LinePolicy(16),
                                       Ramp(16, 13), 4.0)
                    .ok());
    ASSERT_TRUE(engine->OpenSession("alice", 3.0).ok());
    QueryRequest request;
    request.session = "alice";
    request.policy = "salaries";
    request.workload = IdentityWorkload(16);
    for (int i = 0; i < 9; ++i) {
      request.epsilon = 0.01 + 0.001 * i;
      ASSERT_TRUE(engine->Submit(request).ok());
    }
    session_remaining = engine->SessionRemaining("alice").ValueOrDie();
    policy_remaining = engine->PolicyRemaining("salaries").ValueOrDie();
  }
  auto engine = QueryEngine::Open(options).ValueOrDie();
  EXPECT_GT(engine->journal()->stats().recovered_records, 0u);
  ASSERT_TRUE(
      engine->RegisterPolicy("salaries", LinePolicy(16), Ramp(16, 13), 4.0)
          .ok());
  ASSERT_TRUE(engine->OpenSession("alice", 3.0).ok());
  EXPECT_TRUE(BitEqual(engine->SessionRemaining("alice").ValueOrDie(),
                       session_remaining));
  EXPECT_TRUE(BitEqual(engine->PolicyRemaining("salaries").ValueOrDie(),
                       policy_remaining));
  EXPECT_TRUE(engine->durability_health().ok());
}

TEST_F(JournalTest, OverlongLedgerIdRefusedAndLongIdSpendSurvivesReopen) {
  // The journal writes ledger ids with a u16 length. An id past that
  // limit would replay under a truncated id, so re-opening the full id
  // would start from a refilled budget: it is refused up front instead.
  EngineOptions options;
  options.seed = 7;
  options.journal_path = dir_;
  const std::string too_long(70000, 'a');
  const std::string longest(60000, 'b');
  double remaining = 0.0;
  {
    auto engine = QueryEngine::Open(options).ValueOrDie();
    const Status refused = engine->OpenSession(too_long, 1.0);
    EXPECT_EQ(refused.code(), StatusCode::kInvalidArgument)
        << refused.ToString();
    ASSERT_TRUE(engine->RegisterPolicy("salaries", LinePolicy(16),
                                       Ramp(16, 13), 4.0)
                    .ok());
    ASSERT_TRUE(engine->OpenSession(longest, 1.0).ok());
    QueryRequest request;
    request.session = longest;
    request.policy = "salaries";
    request.workload = IdentityWorkload(16);
    request.epsilon = 0.9;
    ASSERT_TRUE(engine->Submit(request).ok());
    remaining = engine->SessionRemaining(longest).ValueOrDie();
    EXPECT_LT(remaining, 0.2);
  }
  auto engine = QueryEngine::Open(options).ValueOrDie();
  ASSERT_TRUE(engine->OpenSession(longest, 1.0).ok());
  EXPECT_TRUE(BitEqual(engine->SessionRemaining(longest).ValueOrDie(),
                       remaining));
}

TEST_F(JournalTest, EngineJournalFailureRefusesChargeAndDrawsNoNoise) {
  // Twin engines, same seed. A skips the doomed submit entirely; B
  // attempts it against a dead journal and must be refused. If the
  // refusal drew any noise, B's later answers would diverge from A's.
  JournalFaultPlan plan;
  FaultInjectingJournalIo faulty(PosixJournalIo(), &plan);
  auto run = [&](bool inject_failure, const std::string& journal_dir,
                 JournalIo* io, Vector* final_answers,
                 double* remaining) -> Status {
    EngineOptions options;
    options.seed = 20150831;
    options.journal_path = journal_dir;
    options.journal_io = io;
    options.journal_io_retries = 1;
    options.journal_retry_backoff_micros = 0;
    auto opened = QueryEngine::Open(options);
    BF_RETURN_NOT_OK(opened.status());
    QueryEngine& engine = **opened;
    BF_RETURN_NOT_OK(engine.RegisterPolicy(
        "mobility", GridPolicy(DomainShape({8, 8}), 2), Ramp(64, 17), 8.0));
    BF_RETURN_NOT_OK(engine.OpenSession("alice", 4.0));

    // The range path draws per-submit reconstruction noise, so answer
    // equality across the twins is sensitive to any stray draw.
    QueryRequest scan;
    scan.session = "alice";
    scan.policy = "mobility";
    scan.ranges = RangeWorkload("probe", DomainShape({8, 8}),
                                {{{0, 0}, {3, 3}}, {{2, 1}, {7, 7}}});
    scan.epsilon = 0.11;
    Result<QueryResult> first = engine.Submit(scan);
    BF_RETURN_NOT_OK(first.status());

    if (inject_failure) {
      plan.fail_append_at = plan.append_calls.load() + 1;
      QueryRequest doomed = scan;
      doomed.epsilon = 0.07;
      Result<QueryResult> refused = engine.Submit(doomed);
      if (refused.ok()) {
        return Status::Internal("doomed submit was admitted");
      }
      if (refused.status().code() != StatusCode::kUnavailableDurability) {
        return refused.status();
      }
      plan.fail_append_at = 0;
    }

    QueryRequest probe = scan;
    probe.epsilon = 0.13;
    Result<QueryResult> last = engine.Submit(probe);
    BF_RETURN_NOT_OK(last.status());
    *final_answers = (*last).answers;
    *remaining = engine.SessionRemaining("alice").ValueOrDie();
    return Status::OK();
  };

  char tmpl[] = "/tmp/bfjournal.XXXXXX";
  ASSERT_NE(::mkdtemp(tmpl), nullptr);
  const std::string twin_dir = tmpl;

  Vector answers_a, answers_b;
  double remaining_a = 0.0, remaining_b = 0.0;
  ASSERT_TRUE(
      run(false, dir_, PosixJournalIo(), &answers_a, &remaining_a).ok());
  ASSERT_TRUE(run(true, twin_dir, &faulty, &answers_b, &remaining_b).ok());

  ASSERT_EQ(answers_a.size(), answers_b.size());
  for (size_t i = 0; i < answers_a.size(); ++i) {
    EXPECT_TRUE(BitEqual(answers_a[i], answers_b[i])) << "answer " << i;
  }
  // The refused charge spent nothing either.
  EXPECT_TRUE(BitEqual(remaining_a, remaining_b));

  JournalScanReport report;
  ASSERT_TRUE(LedgerJournal::Scan(twin_dir, PosixJournalIo(), &report).ok());
  for (const auto& segment : report.segments) {
    (void)PosixJournalIo()->Remove(twin_dir + "/" + segment.name);
  }
  ::rmdir(twin_dir.c_str());
}

TEST_F(JournalTest, CorruptJournalPoisonsEngineFailClosed) {
  // A journal Open() refuses must poison a plainly-constructed engine:
  // every Admit refuses, and the Open factory surfaces the error.
  std::string garbage(64, '\xee');
  const std::string path = dir_ + "/" + JournalSegmentName(1);
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  std::fwrite(garbage.data(), 1, garbage.size(), f);
  std::fclose(f);
  // Garbage + a healthy later segment = mid-journal corruption (the
  // bad header is not the last segment, so it cannot be a tear).
  WriteSegment(dir_, 2, Frame(Spend(2, "session/a", 0.1, 0.9)));

  EngineOptions options;
  options.journal_path = dir_;
  EXPECT_FALSE(QueryEngine::Open(options).ok());

  QueryEngine engine(options);
  EXPECT_FALSE(engine.durability_health().ok());
  ASSERT_TRUE(
      engine.RegisterPolicy("salaries", LinePolicy(16), Ramp(16, 13), 4.0)
          .ok());
  ASSERT_TRUE(engine.OpenSession("alice", 3.0).ok());
  QueryRequest request;
  request.session = "alice";
  request.policy = "salaries";
  request.workload = IdentityWorkload(16);
  request.epsilon = 0.01;
  Result<QueryResult> refused = engine.Submit(request);
  ASSERT_FALSE(refused.ok());
  // Every entry point shares the fail-closed resolve step: a batch or
  // a stream must not charge the unjournaled accountant either.
  for (const Result<QueryResult>& entry :
       engine.SubmitBatch({request, request})) {
    EXPECT_EQ(entry.status().code(), refused.status().code());
  }
  EXPECT_EQ(engine.SubmitStream(request).status().code(),
            refused.status().code());
  EXPECT_EQ(engine.SessionRemaining("alice").ValueOrDie(), 3.0);

  (void)PosixJournalIo()->Remove(path);
  (void)PosixJournalIo()->Remove(dir_ + "/" + JournalSegmentName(2));
}

TEST_F(JournalTest, AutoCheckpointFiresFromEverySubmitPath) {
  // A tiny active segment makes a checkpoint due every few charges;
  // traffic through any one entry point alone must compact it.
  EngineOptions options;
  options.seed = 5;
  options.journal_path = dir_;
  options.journal_segment_bytes = 256;
  auto engine = QueryEngine::Open(options).ValueOrDie();
  ASSERT_TRUE(engine->RegisterPolicy("salaries", LinePolicy(16), Ramp(16, 13),
                                     100.0)
                  .ok());
  ASSERT_TRUE(engine->OpenSession("alice", 100.0).ok());
  QueryRequest request;
  request.session = "alice";
  request.policy = "salaries";
  request.workload = IdentityWorkload(16);
  request.epsilon = 0.01;
  const auto checkpoints = [&] {
    return engine->journal()->stats().checkpoints;
  };

  uint64_t before = checkpoints();
  for (int i = 0; i < 8; ++i) ASSERT_TRUE(engine->Submit(request).ok());
  EXPECT_GT(checkpoints(), before) << "Submit-only traffic";

  before = checkpoints();
  const std::vector<QueryRequest> batch(4, request);
  for (int i = 0; i < 8; ++i) {
    for (const Result<QueryResult>& entry : engine->SubmitBatch(batch)) {
      ASSERT_TRUE(entry.ok());
    }
  }
  EXPECT_GT(checkpoints(), before) << "SubmitBatch-only traffic";

  before = checkpoints();
  for (int i = 0; i < 8; ++i) ASSERT_TRUE(engine->SubmitStream(request).ok());
  EXPECT_GT(checkpoints(), before) << "SubmitStream-only traffic";
  EXPECT_TRUE(engine->durability_health().ok());
}

// ------------------------------------------------- audit JSONL replay

TEST(AuditJsonlTest, DurabilityRefusalHasItsOwnLabel) {
  AuditEvent event;
  event.seq = 1;
  event.charged = false;
  event.refusal = StatusCode::kUnavailableDurability;
  event.epsilon = 0.25;
  std::string line;
  AppendJsonl(event, &line);
  EXPECT_NE(line.find("\"durability_unavailable\""), std::string::npos) << line;
}

TEST(AuditJsonlTest, ReplayDetectsGapsAndRegressions) {
  auto make = [](uint64_t seq) {
    AuditEvent event;
    event.seq = seq;
    event.charged = true;
    event.epsilon = 0.1;
    return event;
  };
  std::string jsonl;
  AppendJsonl(make(1), &jsonl);
  AppendJsonl(make(2), &jsonl);
  AppendJsonl(make(3), &jsonl);
  JsonlReplayReport clean = ReplayJsonl(jsonl);
  EXPECT_TRUE(clean.clean());
  EXPECT_EQ(clean.events, 3u);
  EXPECT_EQ(clean.first_seq, 1u);
  EXPECT_EQ(clean.last_seq, 3u);

  // A ring that wrapped between export windows drops events: gap.
  std::string gappy;
  AppendJsonl(make(1), &gappy);
  AppendJsonl(make(5), &gappy);
  JsonlReplayReport gap = ReplayJsonl(gappy);
  EXPECT_FALSE(gap.clean());
  EXPECT_EQ(gap.seq_gaps, 1u);
  EXPECT_EQ(gap.missing_events, 3u);
  EXPECT_TRUE(gap.errors.empty());

  // A duplicate seq is stream corruption, not a drop.
  std::string dup;
  AppendJsonl(make(2), &dup);
  AppendJsonl(make(2), &dup);
  JsonlReplayReport bad = ReplayJsonl(dup);
  EXPECT_EQ(bad.errors.size(), 1u);
  EXPECT_EQ(bad.seq_gaps, 0u);

  JsonlReplayReport malformed = ReplayJsonl("not json\n");
  EXPECT_EQ(malformed.events, 0u);
  EXPECT_EQ(malformed.errors.size(), 1u);
}

TEST(AuditJsonlTest, ReplayRejectsOverflowingSeq) {
  // 2^64 + 2 would wrap to seq 2 and pass as the dense successor of 1.
  JsonlReplayReport wrapped =
      ReplayJsonl("{\"seq\":1}\n{\"seq\":18446744073709551618}\n");
  EXPECT_FALSE(wrapped.clean());
  EXPECT_EQ(wrapped.events, 1u);
  EXPECT_EQ(wrapped.last_seq, 1u);
  EXPECT_EQ(wrapped.errors.size(), 1u);

  // The largest 64-bit seq is well-formed; one past it is not, and
  // neither is a zero-padded seq longer than 20 digits.
  JsonlReplayReport max = ReplayJsonl("{\"seq\":18446744073709551615}\n");
  EXPECT_TRUE(max.clean());
  EXPECT_EQ(max.last_seq, UINT64_MAX);
  EXPECT_EQ(
      ReplayJsonl("{\"seq\":18446744073709551616}\n").errors.size(), 1u);
  EXPECT_EQ(
      ReplayJsonl("{\"seq\":000000000000000000001}\n").errors.size(), 1u);
}

// Seeded byte mutations of a clean export: the replay must never crash
// and must account for every non-empty line exactly once, as an event
// or as an error.
TEST(AuditJsonlTest, ReplaySurvivesByteMutations) {
  std::string clean;
  for (uint64_t seq = 1; seq <= 3; ++seq) {
    AuditEvent event;
    event.seq = seq;
    event.charged = true;
    event.epsilon = 0.1;
    event.workload = "w";
    AppendJsonl(event, &clean);
  }
  static constexpr char kAlphabet[] = "{}\":,0123456789seq\n\x1f\xff";
  std::mt19937_64 rng(0x5eed);
  for (int iter = 0; iter < 2000; ++iter) {
    std::string mutated = clean;
    const int mutations = 1 + static_cast<int>(rng() % 4);
    for (int m = 0; m < mutations && !mutated.empty(); ++m) {
      const size_t at = rng() % mutated.size();
      const char byte = rng() % 2 == 0
                            ? static_cast<char>(rng() & 0xff)
                            : kAlphabet[rng() % (sizeof(kAlphabet) - 1)];
      switch (rng() % 3) {
        case 0: mutated[at] = byte; break;
        case 1: mutated.insert(at, 1, byte); break;
        default: mutated.erase(at, 1); break;
      }
    }
    size_t lines = 0;
    for (size_t pos = 0; pos < mutated.size();) {
      size_t eol = mutated.find('\n', pos);
      if (eol == std::string::npos) eol = mutated.size();
      if (eol > pos) ++lines;
      pos = eol + 1;
    }
    const JsonlReplayReport report = ReplayJsonl(mutated);
    EXPECT_EQ(report.events + report.errors.size(), lines)
        << "iteration " << iter << ": " << mutated;
  }
}

}  // namespace
}  // namespace blowfish
