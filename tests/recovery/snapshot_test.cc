// Snapshot serialization: mining-state round trips, envelope
// verification, dataset fingerprints, and the Checkpointer's
// restore/mismatch semantics.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "core/explorer.h"
#include "recovery/atomic_file.h"
#include "recovery/checkpoint.h"
#include "util/failpoint.h"
#include "recovery/mining_snapshot.h"
#include "recovery/snapshot_file.h"
#include "testing/pattern_buffers.h"
#include "testing/test_data.h"

namespace divexp {
namespace recovery {
namespace {

using divexp::testing::BufferOf;
using divexp::testing::MakeEncoded;
using divexp::testing::OutcomesFromString;

std::string TempDir(const std::string& leaf) {
  const char* base = std::getenv("TMPDIR");
  std::string dir = std::string(base != nullptr ? base : "/tmp") +
                    "/divexp_snapshot_test/" + leaf;
  DIVEXP_CHECK_OK(EnsureDirectory(dir));
  return dir;
}

MiningStateSnapshot MakeState() {
  MiningStateSnapshot state;
  state.fingerprint = 0xDEADBEEFCAFE1234ull;
  state.miner = MinerKind::kEclat;
  state.min_support = 0.0625;
  state.max_length = 3;
  state.num_units = 5;
  state.units[0] =
      BufferOf({MinedPattern{Itemset{0}, OutcomeCounts{4, 2, 1}},
                MinedPattern{Itemset{0, 3}, OutcomeCounts{2, 1, 0}}});
  state.units[2] = {};  // a completed unit may legitimately be empty
  state.units[4] =
      BufferOf({MinedPattern{Itemset{1, 2, 5}, OutcomeCounts{9, 0, 3}}});
  return state;
}

void ExpectStatesEqual(const MiningStateSnapshot& a,
                       const MiningStateSnapshot& b) {
  EXPECT_EQ(a.fingerprint, b.fingerprint);
  EXPECT_EQ(a.miner, b.miner);
  EXPECT_EQ(a.min_support, b.min_support);
  EXPECT_EQ(a.max_length, b.max_length);
  EXPECT_EQ(a.num_units, b.num_units);
  ASSERT_EQ(a.units.size(), b.units.size());
  for (const auto& [unit, patterns] : a.units) {
    auto it = b.units.find(unit);
    ASSERT_NE(it, b.units.end()) << "unit " << unit;
    const std::vector<MinedPattern> want = patterns.ToPatterns();
    const std::vector<MinedPattern> got = it->second.ToPatterns();
    ASSERT_EQ(want.size(), got.size());
    for (size_t i = 0; i < want.size(); ++i) {
      EXPECT_EQ(want[i].items, got[i].items);
      EXPECT_EQ(want[i].counts.t, got[i].counts.t);
      EXPECT_EQ(want[i].counts.f, got[i].counts.f);
      EXPECT_EQ(want[i].counts.bot, got[i].counts.bot);
    }
  }
}

TEST(MiningSnapshotTest, SerializationRoundTrips) {
  const MiningStateSnapshot state = MakeState();
  auto parsed = DeserializeMiningState(SerializeMiningState(state));
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  ExpectStatesEqual(state, *parsed);
}

TEST(MiningSnapshotTest, FileRoundTripReportsBytes) {
  const std::string path = TempDir("file") + "/state.ckpt";
  uint64_t bytes = 0;
  ASSERT_TRUE(SaveMiningState(path, MakeState(), &bytes).ok());
  EXPECT_GT(bytes, kSnapshotHeaderSize);
  auto loaded = LoadMiningState(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ExpectStatesEqual(MakeState(), *loaded);
}

TEST(MiningSnapshotTest, RejectsWrongEnvelopeKind) {
  const std::string path = TempDir("kind") + "/wrong_kind.snap";
  ASSERT_TRUE(WriteSnapshotFile(path, SnapshotKind::kWorkerSpec,
                                SerializeMiningState(MakeState()))
                  .ok());
  EXPECT_FALSE(LoadMiningState(path).ok());
}

TEST(MiningSnapshotTest, RejectsRetiredTableKind) {
  // Kind 2 was the pattern-table snapshot. It is retired, not reused: an
  // old file of that kind stays unloadable as a mining state, even
  // when its payload happens to parse as one.
  const std::string path = TempDir("kind") + "/retired_kind.snap";
  ASSERT_TRUE(WriteSnapshotFile(path, static_cast<SnapshotKind>(2),
                                SerializeMiningState(MakeState()))
                  .ok());
  auto loaded = LoadMiningState(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument)
      << loaded.status().ToString();
}

TEST(DatasetFingerprintTest, SensitiveToCellsAndOutcomes) {
  const std::vector<std::vector<int>> rows = {
      {0, 1}, {1, 0}, {0, 0}, {1, 1}};
  const EncodedDataset base = MakeEncoded(rows, {2, 2});
  auto db = [](const EncodedDataset& ds, const std::string& outcomes) {
    auto built =
        TransactionDatabase::Create(ds, OutcomesFromString(outcomes));
    DIVEXP_CHECK(built.ok());
    return std::move(built).value();
  };
  const uint64_t fp = DatasetFingerprint(db(base, "TFBT"));
  EXPECT_EQ(fp, DatasetFingerprint(db(base, "TFBT")));  // deterministic
  // A flipped outcome or a changed cell moves the fingerprint.
  EXPECT_NE(fp, DatasetFingerprint(db(base, "TFBF")));
  std::vector<std::vector<int>> mutated = rows;
  mutated[2][1] = 1;
  EXPECT_NE(fp,
            DatasetFingerprint(db(MakeEncoded(mutated, {2, 2}), "TFBT")));
}

TEST(CheckpointerTest, FreshRunWritesAndResumeRestores) {
  const std::string dir = TempDir("ckpt_fresh");
  std::remove((dir + "/mining.ckpt").c_str());

  CheckpointerOptions opts;
  opts.dir = dir;
  auto cp = Checkpointer::Create(opts);
  ASSERT_TRUE(cp.ok());
  auto begun = (*cp)->BeginAttempt(0xFEED, MinerKind::kFpGrowth, 0.05, 0,
                                   /*strict=*/false);
  ASSERT_TRUE(begun.ok());
  EXPECT_FALSE(*begun);  // nothing to restore
  (*cp)->BeginRun(3);
  (*cp)->UnitMined(
      0, BufferOf({MinedPattern{Itemset{2}, OutcomeCounts{1, 0, 0}}}));
  (*cp)->UnitMined(1, {});
  EXPECT_TRUE((*cp)->Flush().ok());
  EXPECT_GE((*cp)->checkpoints_written(), 1u);
  EXPECT_TRUE((*cp)->last_write_error().ok());

  // Second process: resume and restore both completed units.
  opts.resume = true;
  auto cp2 = Checkpointer::Create(opts);
  ASSERT_TRUE(cp2.ok());
  EXPECT_TRUE((*cp2)->has_pending_snapshot());
  auto restored = (*cp2)->BeginAttempt(0xFEED, MinerKind::kFpGrowth, 0.05,
                                       0, /*strict=*/true);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_TRUE(*restored);
  EXPECT_TRUE((*cp2)->resumed());
  (*cp2)->BeginRun(3);
  const auto* unit0 = (*cp2)->RestoredUnit(0);
  ASSERT_NE(unit0, nullptr);
  ASSERT_EQ(unit0->size(), 1u);
  EXPECT_EQ(unit0->ToPatterns()[0].items, Itemset{2});
  ASSERT_NE((*cp2)->RestoredUnit(1), nullptr);
  EXPECT_EQ((*cp2)->RestoredUnit(2), nullptr);  // never completed
}

TEST(CheckpointerTest, StrictMismatchIsAnError) {
  const std::string dir = TempDir("ckpt_mismatch");
  std::remove((dir + "/mining.ckpt").c_str());
  CheckpointerOptions opts;
  opts.dir = dir;
  {
    auto cp = Checkpointer::Create(opts);
    ASSERT_TRUE(cp.ok());
    ASSERT_TRUE((*cp)
                    ->BeginAttempt(1, MinerKind::kEclat, 0.1, 2,
                                   /*strict=*/false)
                    .ok());
    (*cp)->BeginRun(1);
    (*cp)->UnitMined(0, {});
    ASSERT_TRUE((*cp)->Flush().ok());
  }
  opts.resume = true;
  auto cp = Checkpointer::Create(opts);
  ASSERT_TRUE(cp.ok());
  // Different miner on the strict (explicit --resume) attempt: error.
  auto strict = (*cp)->BeginAttempt(1, MinerKind::kApriori, 0.1, 2,
                                    /*strict=*/true);
  ASSERT_FALSE(strict.ok());
  EXPECT_NE(strict.status().ToString().find("cannot resume"),
            std::string::npos);

  // min_support-only mismatch keeps the snapshot pending (a later
  // escalation attempt may reach the snapshotted support).
  auto cp2 = Checkpointer::Create(opts);
  ASSERT_TRUE(cp2.ok());
  auto first = (*cp2)->BeginAttempt(1, MinerKind::kEclat, 0.05, 2,
                                    /*strict=*/true);
  ASSERT_TRUE(first.ok());
  EXPECT_FALSE(*first);
  EXPECT_TRUE((*cp2)->has_pending_snapshot());
  auto second = (*cp2)->BeginAttempt(1, MinerKind::kEclat, 0.1, 2,
                                     /*strict=*/false);
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(*second);
}

TEST(CheckpointerTest, ResumeWithCorruptSnapshotFails) {
  const std::string dir = TempDir("ckpt_corrupt");
  ASSERT_TRUE(
      WriteFileAtomic(dir + "/mining.ckpt", "definitely not a snapshot")
          .ok());
  CheckpointerOptions opts;
  opts.dir = dir;
  opts.resume = true;
  EXPECT_FALSE(Checkpointer::Create(opts).ok());
}

TEST(CheckpointerTest, WriteFailureIsRememberedNotFatal) {
  const std::string dir = TempDir("ckpt_writefail");
  std::remove((dir + "/mining.ckpt").c_str());
  CheckpointerOptions opts;
  opts.dir = dir;
  auto cp = Checkpointer::Create(opts);
  ASSERT_TRUE(cp.ok());
  ASSERT_TRUE((*cp)
                  ->BeginAttempt(1, MinerKind::kFpGrowth, 0.05, 0,
                                 /*strict=*/false)
                  .ok());
  (*cp)->BeginRun(2);
  {
    ScopedFailPoints scope("io.snapshot.write@1:return-error");
    // UnitMined never throws or aborts the run on a write failure.
    (*cp)->UnitMined(0, {});
    const Status error = (*cp)->last_write_error();
    ASSERT_FALSE(error.ok());
    // The remembered error carries retry-relevant context: the
    // snapshot path and the failure ordinal.
    EXPECT_NE(error.ToString().find(dir + "/mining.ckpt"),
              std::string::npos)
        << error.ToString();
    EXPECT_NE(error.ToString().find("write attempt 1"),
              std::string::npos)
        << error.ToString();
    EXPECT_EQ((*cp)->write_failures(), 1u);
  }
  // The next write succeeds and the file is loadable.
  (*cp)->UnitMined(1, {});
  EXPECT_TRUE(LoadMiningState(dir + "/mining.ckpt").ok());
  EXPECT_EQ((*cp)->write_failures(), 1u);
}

TEST(CheckpointerTest, WriteFailureSurfacesInExplorerRunStats) {
  // Regression: checkpoint writes are best-effort and must never fail a
  // run, but the explorer used to drop Checkpointer::last_write_error()
  // on the floor — a run with a broken snapshot reported itself as
  // fully checkpointed. The failure has to surface in
  // last_run_stats().checkpoint_write_error.
  const std::string dir = TempDir("ckpt_stats_writefail");
  std::remove((dir + "/mining.ckpt").c_str());
  const EncodedDataset ds =
      MakeEncoded({{0, 1}, {1, 0}, {0, 0}, {1, 1}}, {2, 2});

  ExplorerOptions opts;
  opts.checkpoint_dir = dir;
  DivergenceExplorer explorer(opts);
  {
    ScopedFailPoints scope("io.snapshot.write@1:return-error");
    auto table = explorer.ExploreOutcomes(ds, OutcomesFromString("TFBT"));
    ASSERT_TRUE(table.ok()) << table.status().ToString();
    EXPECT_FALSE(explorer.last_run_stats().checkpoint_write_error.ok());
  }

  // Unfaulted control: the same run reports no write error.
  std::remove((dir + "/mining.ckpt").c_str());
  auto table = explorer.ExploreOutcomes(ds, OutcomesFromString("TFBT"));
  ASSERT_TRUE(table.ok()) << table.status().ToString();
  EXPECT_TRUE(explorer.last_run_stats().checkpoint_write_error.ok());
}

}  // namespace
}  // namespace recovery
}  // namespace divexp
