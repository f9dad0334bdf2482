// Streaming snapshot writer: the chunked path must produce files
// byte-identical to the buffered oracle, keep its peak tracked memory
// O(chunk) under a RunGuard, preserve the atomic-replace crash
// contract, and fire the same failpoints as the buffered path.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "recovery/atomic_file.h"
#include "recovery/checkpoint.h"
#include "recovery/mining_snapshot.h"
#include "recovery/snapshot_file.h"
#include "testing/pattern_buffers.h"
#include "util/failpoint.h"
#include "util/run_guard.h"

namespace divexp {
namespace recovery {
namespace {

std::string TempDir(const std::string& leaf) {
  const char* base = std::getenv("TMPDIR");
  std::string dir = std::string(base != nullptr ? base : "/tmp") +
                    "/divexp_streaming_writer_test/" + leaf;
  DIVEXP_CHECK_OK(EnsureDirectory(dir));
  return dir;
}

std::string MustRead(const std::string& path) {
  auto contents = ReadFileToString(path);
  DIVEXP_CHECK_OK(contents.status());
  return *std::move(contents);
}

/// A state big enough that its payload spans many kSnapshotChunkBytes
/// chunks, with several units so the per-unit flush points are hit too.
MiningStateSnapshot MakeLargeState() {
  MiningStateSnapshot state;
  state.fingerprint = 0x1234CAFEF00D5678ull;
  state.miner = MinerKind::kFpGrowth;
  state.min_support = 0.01;
  state.max_length = 4;
  state.num_units = 8;
  for (uint64_t unit = 0; unit < 8; ++unit) {
    std::vector<MinedPattern> patterns;
    for (uint32_t p = 0; p < 4000; ++p) {
      MinedPattern pattern;
      pattern.items = Itemset{static_cast<uint32_t>(unit), p, p + 1};
      pattern.counts = OutcomeCounts{p, p % 7, p % 3};
      patterns.push_back(std::move(pattern));
    }
    state.units[unit] = PatternBuffer(patterns);
  }
  return state;
}

TEST(AtomicFileWriterTest, AppendsPatchesAndCommits) {
  const std::string path = TempDir("writer") + "/patched.bin";
  auto writer = AtomicFileWriter::Create(path);
  ASSERT_TRUE(writer.ok()) << writer.status().ToString();
  ASSERT_TRUE((*writer)->Append("????").ok());
  ASSERT_TRUE((*writer)->Append("payload").ok());
  EXPECT_EQ((*writer)->bytes_appended(), 11u);
  // Patch the placeholder prefix once the tail is known.
  ASSERT_TRUE((*writer)->WriteAt(0, "HEAD").ok());
  ASSERT_TRUE((*writer)->Commit().ok());
  EXPECT_EQ(MustRead(path), "HEADpayload");
}

TEST(AtomicFileWriterTest, WriteAtCannotExtendTheFile) {
  const std::string path = TempDir("writer") + "/oob.bin";
  auto writer = AtomicFileWriter::Create(path);
  ASSERT_TRUE(writer.ok());
  ASSERT_TRUE((*writer)->Append("abc").ok());
  const Status oob = (*writer)->WriteAt(2, "xy");
  EXPECT_FALSE(oob.ok());
  EXPECT_NE(oob.ToString().find("extends past"), std::string::npos);
}

TEST(AtomicFileWriterTest, UncommittedWriterLeavesDestinationUntouched) {
  const std::string path = TempDir("writer") + "/abandoned.bin";
  ASSERT_TRUE(WriteFileAtomic(path, "previous").ok());
  {
    auto writer = AtomicFileWriter::Create(path);
    ASSERT_TRUE(writer.ok());
    ASSERT_TRUE((*writer)->Append("half-written new contents").ok());
    // Destroyed without Commit: simulated death before the rename.
  }
  EXPECT_EQ(MustRead(path), "previous");
}

TEST(SnapshotFileWriterTest, FileIsByteIdenticalToBufferedWriter) {
  const std::string dir = TempDir("envelope");
  const std::string payload = "a payload split across several chunks";

  ASSERT_TRUE(WriteSnapshotFile(dir + "/buffered.snap",
                                SnapshotKind::kMiningState, payload)
                  .ok());

  auto writer = SnapshotFileWriter::Create(dir + "/streamed.snap",
                                           SnapshotKind::kMiningState);
  ASSERT_TRUE(writer.ok()) << writer.status().ToString();
  // Uneven chunk boundaries must leave no trace in the output.
  ASSERT_TRUE((*writer)->Append(payload.substr(0, 1)).ok());
  ASSERT_TRUE((*writer)->Append(payload.substr(1, 10)).ok());
  ASSERT_TRUE((*writer)->Append("").ok());
  ASSERT_TRUE((*writer)->Append(payload.substr(11)).ok());
  ASSERT_TRUE((*writer)->Commit().ok());
  EXPECT_EQ((*writer)->payload_size(), payload.size());

  EXPECT_EQ(MustRead(dir + "/streamed.snap"),
            MustRead(dir + "/buffered.snap"));
  // And the patched-in CRC/size verify like any other snapshot.
  auto read = ReadSnapshotFile(dir + "/streamed.snap",
                               SnapshotKind::kMiningState);
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  EXPECT_EQ(*read, payload);
}

TEST(StreamingSnapshotTest, ChunkedSaveIsByteIdenticalToBuffered) {
  const std::string dir = TempDir("differential");
  const MiningStateSnapshot state = MakeLargeState();

  uint64_t buffered_bytes = 0;
  ASSERT_TRUE(
      SaveMiningState(dir + "/buffered.ckpt", state, &buffered_bytes).ok());
  uint64_t chunked_bytes = 0;
  ASSERT_TRUE(
      SaveMiningStateChunked(dir + "/chunked.ckpt", state, &chunked_bytes)
          .ok());

  EXPECT_EQ(buffered_bytes, chunked_bytes);
  EXPECT_GT(chunked_bytes, kSnapshotChunkBytes);  // spans many chunks
  EXPECT_EQ(MustRead(dir + "/chunked.ckpt"), MustRead(dir + "/buffered.ckpt"));

  auto loaded = LoadMiningState(dir + "/chunked.ckpt");
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->units.size(), state.units.size());
}

TEST(StreamingSnapshotTest, SmallStatesRoundTripThroughTheChunkedPath) {
  const std::string dir = TempDir("small");
  for (const MiningStateSnapshot& state :
       {MiningStateSnapshot{}, [] {
          MiningStateSnapshot s;
          s.fingerprint = 7;
          s.num_units = 1;
          s.units[0] = testing::BufferOf(
              {MinedPattern{Itemset{3}, OutcomeCounts{1, 2, 3}}});
          return s;
        }()}) {
    ASSERT_TRUE(SaveMiningState(dir + "/buffered.ckpt", state).ok());
    ASSERT_TRUE(SaveMiningStateChunked(dir + "/chunked.ckpt", state).ok());
    EXPECT_EQ(MustRead(dir + "/chunked.ckpt"),
              MustRead(dir + "/buffered.ckpt"));
  }
}

TEST(StreamingSnapshotTest, PeakGuardMemoryIsBoundedByChunkNotPayload) {
  // The satellite claim: checkpoint peak memory is O(chunk). The guard
  // sees every in-flight chunk; its high-water mark must stay near
  // kSnapshotChunkBytes even when the payload is dozens of chunks.
  const std::string dir = TempDir("guard");
  const MiningStateSnapshot state = MakeLargeState();
  uint64_t total_bytes = 0;
  RunGuard guard;
  ASSERT_TRUE(SaveMiningStateChunked(dir + "/guarded.ckpt", state,
                                     &total_bytes, &guard)
                  .ok());
  const uint64_t payload = total_bytes - kSnapshotHeaderSize;
  EXPECT_GT(guard.peak_memory_bytes(), 0u);
  // One serialized pattern can straddle a flush boundary, so allow a
  // small overhang above the chunk size — but nothing near the payload.
  EXPECT_LT(guard.peak_memory_bytes(), 2 * kSnapshotChunkBytes);
  EXPECT_GT(payload, 8 * guard.peak_memory_bytes());
  // Everything was released: no phantom live bytes remain accounted.
  EXPECT_EQ(guard.memory_bytes(), 0u);
}

#if defined(DIVEXP_FAILPOINTS_ENABLED)
TEST(StreamingSnapshotTest, FiresTheSnapshotWriteFailpoint) {
  const std::string dir = TempDir("failpoint");
  ScopedFailPoints scope("io.snapshot.write@1:return-error");
  const Status status =
      SaveMiningStateChunked(dir + "/fp.ckpt", MakeLargeState());
  EXPECT_FALSE(status.ok());
  EXPECT_FALSE(FileExists(dir + "/fp.ckpt"));
}

TEST(StreamingSnapshotTest, MidStreamWriteFailureLeavesOldSnapshot) {
  const std::string dir = TempDir("midfail");
  const std::string path = dir + "/state.ckpt";
  MiningStateSnapshot small;
  small.fingerprint = 42;
  ASSERT_TRUE(SaveMiningStateChunked(path, small).ok());
  const std::string before = MustRead(path);
  {
    // Fail the third low-level write: header and first chunk are in the
    // temp file, then the stream dies. The destination must keep the
    // previous complete snapshot.
    ScopedFailPoints scope("io.atomic.write_fail@3:return-error");
    const Status status = SaveMiningStateChunked(path, MakeLargeState());
    ASSERT_FALSE(status.ok());
    EXPECT_NE(status.ToString().find("write"), std::string::npos);
  }
  EXPECT_EQ(MustRead(path), before);
  auto loaded = LoadMiningState(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->fingerprint, 42u);
}
#endif  // DIVEXP_FAILPOINTS_ENABLED

TEST(StreamingSnapshotTest, CheckpointerChargesWritesToTheGuard) {
  // The Checkpointer hands its attached RunGuard to the streaming
  // writer, so snapshot serialization shows up in the run's tracked
  // peak — bounded by the chunk size, not the snapshot size.
  const std::string dir = TempDir("ckpt_guard");
  std::remove((dir + "/mining.ckpt").c_str());
  CheckpointerOptions opts;
  opts.dir = dir;
  auto cp = Checkpointer::Create(opts);
  ASSERT_TRUE(cp.ok());
  RunGuard guard;
  (*cp)->AttachGuard(&guard);
  ASSERT_TRUE((*cp)
                  ->BeginAttempt(9, MinerKind::kFpGrowth, 0.05, 0,
                                 /*strict=*/false)
                  .ok());
  (*cp)->BeginRun(1);
  std::vector<MinedPattern> patterns;
  for (uint32_t p = 0; p < 20000; ++p) {
    patterns.push_back(MinedPattern{Itemset{p, p + 1}, OutcomeCounts{p, 1, 0}});
  }
  (*cp)->UnitMined(0, PatternBuffer(patterns));
  ASSERT_TRUE((*cp)->last_write_error().ok());
  EXPECT_GT((*cp)->checkpoint_bytes(), 4 * kSnapshotChunkBytes);
  EXPECT_GT(guard.peak_memory_bytes(), 0u);
  EXPECT_LT(guard.peak_memory_bytes(), 2 * kSnapshotChunkBytes);
  EXPECT_EQ(guard.memory_bytes(), 0u);
}

}  // namespace
}  // namespace recovery
}  // namespace divexp
