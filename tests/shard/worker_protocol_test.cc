// Wire-protocol coverage for the shard-worker status pipe and worker
// spec: frame round-trips through an incrementally-fed FrameReader,
// corruption/truncation classification (CRC mismatch and oversized
// length prefixes are sticky protocol errors, partial frames are
// "need more bytes"), and the kWorkerSpec snapshot round-trip with a
// byte-flip/truncation fuzz pass — malformed specs must die with a
// Status, never UB.
#include "shard/worker/protocol.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "recovery/atomic_file.h"
#include "shard/worker/worker.h"
#include "testing/test_data.h"
#include "util/random.h"

namespace divexp {
namespace shard {
namespace worker {
namespace {

using divexp::testing::MakeEncoded;
using divexp::testing::OutcomesFromString;

std::string TempDir(const std::string& leaf) {
  const char* base = std::getenv("TMPDIR");
  std::string dir = std::string(base != nullptr ? base : "/tmp") +
                    "/divexp_worker_protocol_test/" + leaf;
  DIVEXP_CHECK_OK(recovery::EnsureDirectory(dir));
  return dir;
}

Frame MakeResultFrame() {
  Frame frame;
  frame.type = FrameType::kResultReady;
  frame.value = 42;
  frame.fingerprint = 0xDEADBEEFCAFEF00DULL;
  frame.artifact_path = "/tmp/scratch/shard_3_attempt_1.dvt";
  frame.stats.resumed = true;
  frame.stats.checkpoints_written = 7;
  frame.stats.checkpoint_bytes = 4096;
  frame.stats.checkpoint_write_failures = 1;
  frame.stats.checkpoint_error_code = 5;
  frame.stats.checkpoint_error_message = "disk full (write attempt 2)";
  frame.stats.peak_memory_bytes = 1 << 20;
  return frame;
}

void ExpectFramesEqual(const Frame& a, const Frame& b) {
  EXPECT_EQ(a.type, b.type);
  EXPECT_EQ(a.value, b.value);
  EXPECT_EQ(a.fingerprint, b.fingerprint);
  EXPECT_EQ(a.artifact_path, b.artifact_path);
  EXPECT_EQ(a.status_code, b.status_code);
  EXPECT_EQ(a.message, b.message);
  EXPECT_EQ(a.stats.resumed, b.stats.resumed);
  EXPECT_EQ(a.stats.checkpoints_written, b.stats.checkpoints_written);
  EXPECT_EQ(a.stats.checkpoint_bytes, b.stats.checkpoint_bytes);
  EXPECT_EQ(a.stats.checkpoint_write_failures,
            b.stats.checkpoint_write_failures);
  EXPECT_EQ(a.stats.checkpoint_error_code, b.stats.checkpoint_error_code);
  EXPECT_EQ(a.stats.checkpoint_error_message,
            b.stats.checkpoint_error_message);
  EXPECT_EQ(a.stats.peak_memory_bytes, b.stats.peak_memory_bytes);
}

std::vector<Frame> AllFrameKinds() {
  std::vector<Frame> frames;
  Frame heartbeat;
  heartbeat.type = FrameType::kHeartbeat;
  heartbeat.value = 17;
  frames.push_back(heartbeat);
  Frame progress;
  progress.type = FrameType::kProgress;
  progress.value = 12345;
  frames.push_back(progress);
  Frame checkpoint;
  checkpoint.type = FrameType::kCheckpointWritten;
  checkpoint.value = 3;
  frames.push_back(checkpoint);
  frames.push_back(MakeResultFrame());
  Frame fatal;
  fatal.type = FrameType::kFatalStatus;
  fatal.status_code = 13;
  fatal.message = "miner exploded: fp injected at ordinal 4";
  fatal.stats.checkpoints_written = 2;
  frames.push_back(fatal);
  return frames;
}

TEST(FrameReaderTest, EveryFrameKindRoundTripsThroughOddSizedChunks) {
  std::string wire;
  const std::vector<Frame> sent = AllFrameKinds();
  for (const Frame& frame : sent) wire += EncodeFrame(frame);

  // Feed in 3-byte chunks so every frame boundary lands mid-chunk at
  // least once; the reader must reassemble regardless of framing.
  FrameReader reader;
  std::vector<Frame> got;
  for (size_t off = 0; off < wire.size(); off += 3) {
    const size_t len = std::min<size_t>(3, wire.size() - off);
    reader.Feed(wire.data() + off, len);
    for (;;) {
      auto next = reader.Next();
      ASSERT_TRUE(next.ok()) << next.status().ToString();
      if (!next.value().has_value()) break;
      got.push_back(*next.value());
    }
  }
  ASSERT_EQ(got.size(), sent.size());
  for (size_t i = 0; i < sent.size(); ++i) {
    SCOPED_TRACE("frame " + std::to_string(i));
    ExpectFramesEqual(got[i], sent[i]);
  }
  EXPECT_EQ(reader.pending_bytes(), 0u);
}

TEST(FrameReaderTest, BackToBackFramesInOneFeedAllDecode) {
  std::string wire;
  for (int i = 0; i < 10; ++i) {
    Frame heartbeat;
    heartbeat.type = FrameType::kHeartbeat;
    heartbeat.value = static_cast<uint64_t>(i);
    wire += EncodeFrame(heartbeat);
  }
  FrameReader reader;
  reader.Feed(wire.data(), wire.size());
  for (int i = 0; i < 10; ++i) {
    auto next = reader.Next();
    ASSERT_TRUE(next.ok());
    ASSERT_TRUE(next.value().has_value());
    EXPECT_EQ(next.value()->value, static_cast<uint64_t>(i));
  }
  auto done = reader.Next();
  ASSERT_TRUE(done.ok());
  EXPECT_FALSE(done.value().has_value());
}

TEST(FrameReaderTest, TruncatedFrameIsNeedMoreBytesNotAnError) {
  const std::string wire = EncodeFrame(MakeResultFrame());
  FrameReader reader;
  reader.Feed(wire.data(), wire.size() - 1);
  auto next = reader.Next();
  ASSERT_TRUE(next.ok());
  EXPECT_FALSE(next.value().has_value());
  // A worker SIGKILLed mid-write leaves exactly this state: buffered
  // bytes but no complete frame. pending_bytes() is how the
  // coordinator tells "died between frames" from "died mid-frame".
  EXPECT_EQ(reader.pending_bytes(), wire.size() - 1);
  reader.Feed(wire.data() + wire.size() - 1, 1);
  auto completed = reader.Next();
  ASSERT_TRUE(completed.ok());
  ASSERT_TRUE(completed.value().has_value());
  EXPECT_EQ(reader.pending_bytes(), 0u);
}

TEST(FrameReaderTest, CrcMismatchIsAStickyProtocolError) {
  std::string wire = EncodeFrame(MakeResultFrame());
  wire[wire.size() - 1] ^= 0x01;  // corrupt the payload, not the prefix
  FrameReader reader;
  reader.Feed(wire.data(), wire.size());
  auto next = reader.Next();
  ASSERT_FALSE(next.ok());
  // Sticky: a corrupted stream never yields frames again, even if
  // well-formed bytes arrive later.
  reader.Feed(wire.data(), wire.size());
  EXPECT_FALSE(reader.Next().ok());
}

TEST(FrameReaderTest, OversizedLengthPrefixIsRejectedImmediately) {
  std::string wire = EncodeFrame(MakeResultFrame());
  const uint32_t huge = kMaxFramePayload + 1;
  std::memcpy(wire.data(), &huge, sizeof(huge));
  FrameReader reader;
  reader.Feed(wire.data(), wire.size());
  auto next = reader.Next();
  ASSERT_FALSE(next.ok());
  // The reader must classify from the 8-byte prefix alone — waiting
  // for a petabyte of payload that will never come is a hang.
  EXPECT_FALSE(reader.Next().ok());
}

TEST(FrameReaderTest, ByteFlippedFramesNeverCrashTheReader) {
  const std::string wire = EncodeFrame(MakeResultFrame());
  for (size_t i = 0; i < wire.size(); ++i) {
    std::string mutant = wire;
    mutant[i] ^= 0x5A;
    FrameReader reader;
    reader.Feed(mutant.data(), mutant.size());
    // Every mutant must resolve to an error, a (mis)parsed frame, or
    // "need more bytes" — never UB. A flipped byte that survives CRC
    // is possible only in the prefix itself, where the length check
    // still bounds the damage.
    for (int round = 0; round < 2; ++round) {
      auto next = reader.Next();
      if (!next.ok() || !next.value().has_value()) break;
    }
  }
}

WorkerSpec MakeSpec() {
  WorkerSpec spec;
  spec.shard = 3;
  spec.attempt = 2;
  spec.expected_fingerprint = 0x1122334455667788ULL;
  spec.timeout_ms = 2500;
  spec.heartbeat_interval_ms = 50;
  spec.result_path = "/tmp/scratch/result.dvt";
  spec.failpoints = "shard.unit.mine@2:return-error";
  spec.base.min_support = 0.05;
  spec.base.miner = MinerKind::kEclat;
  spec.base.checkpoint_dir = "/tmp/scratch/ckpt";
  spec.base.checkpoint_every_ms = 10;
  spec.base.resume = true;
  spec.data = MakeEncoded({{0, 1}, {1, 0}, {2, 1}}, {3, 2});
  spec.outcomes = OutcomesFromString("TFB");
  return spec;
}

TEST(WorkerSpecTest, SerializeDeserializeRoundTripsEveryField) {
  const WorkerSpec spec = MakeSpec();
  const std::string payload = SerializeWorkerSpec(spec);
  auto parsed = DeserializeWorkerSpec(payload);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const WorkerSpec& got = parsed.value();
  EXPECT_EQ(got.shard, spec.shard);
  EXPECT_EQ(got.attempt, spec.attempt);
  EXPECT_EQ(got.expected_fingerprint, spec.expected_fingerprint);
  EXPECT_EQ(got.timeout_ms, spec.timeout_ms);
  EXPECT_EQ(got.heartbeat_interval_ms, spec.heartbeat_interval_ms);
  EXPECT_EQ(got.result_path, spec.result_path);
  EXPECT_EQ(got.failpoints, spec.failpoints);
  EXPECT_EQ(got.base.min_support, spec.base.min_support);
  EXPECT_EQ(got.base.miner, spec.base.miner);
  EXPECT_EQ(got.base.checkpoint_dir, spec.base.checkpoint_dir);
  EXPECT_EQ(got.base.checkpoint_every_ms, spec.base.checkpoint_every_ms);
  EXPECT_EQ(got.base.resume, spec.base.resume);
  EXPECT_EQ(got.data.num_rows, spec.data.num_rows);
  EXPECT_EQ(got.data.num_attributes, spec.data.num_attributes);
  EXPECT_EQ(got.data.cells, spec.data.cells);
  EXPECT_EQ(got.data.catalog.num_items(), spec.data.catalog.num_items());
  EXPECT_EQ(got.data.catalog.ItemName(0), spec.data.catalog.ItemName(0));
  EXPECT_EQ(got.outcomes, spec.outcomes);
  // Canonical-bytes check: re-serializing the parse reproduces the
  // payload exactly, so nothing was dropped or defaulted on the way.
  EXPECT_EQ(SerializeWorkerSpec(got), payload);
}

TEST(WorkerSpecTest, FileRoundTripThroughTheSnapshotEnvelope) {
  const WorkerSpec spec = MakeSpec();
  const std::string path = TempDir("roundtrip") + "/attempt.spec";
  ASSERT_TRUE(WriteWorkerSpec(path, spec).ok());
  auto loaded = ReadWorkerSpec(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(SerializeWorkerSpec(loaded.value()), SerializeWorkerSpec(spec));
}

TEST(WorkerSpecTest, CorruptSpecFileFailsTheEnvelopeCheck) {
  const WorkerSpec spec = MakeSpec();
  const std::string path = TempDir("corrupt") + "/attempt.spec";
  ASSERT_TRUE(WriteWorkerSpec(path, spec).ok());
  auto bytes = recovery::ReadFileToString(path);
  ASSERT_TRUE(bytes.ok());
  Rng rng(2024);
  for (int trial = 0; trial < 32; ++trial) {
    std::string mutant = bytes.value();
    mutant[rng.Below(mutant.size())] ^= static_cast<char>(1 + rng.Below(255));
    if (mutant == bytes.value()) continue;
    DIVEXP_CHECK_OK(recovery::WriteFileAtomic(path, mutant));
    EXPECT_FALSE(ReadWorkerSpec(path).ok()) << "trial " << trial;
  }
}

TEST(WorkerSpecTest, TruncatedPayloadsFailCleanly) {
  const std::string payload = SerializeWorkerSpec(MakeSpec());
  for (size_t len = 0; len < payload.size(); ++len) {
    auto parsed = DeserializeWorkerSpec(payload.substr(0, len));
    EXPECT_FALSE(parsed.ok()) << "prefix of " << len << " bytes parsed";
  }
}

TEST(WorkerSpecTest, ByteFlippedPayloadsNeverCrashTheDecoder) {
  const std::string payload = SerializeWorkerSpec(MakeSpec());
  Rng rng(7777);
  for (int trial = 0; trial < 512; ++trial) {
    std::string mutant = payload;
    const size_t flips = 1 + rng.Below(4);
    for (size_t f = 0; f < flips; ++f) {
      mutant[rng.Below(mutant.size())] ^=
          static_cast<char>(1 + rng.Below(255));
    }
    auto parsed = DeserializeWorkerSpec(mutant);
    if (parsed.ok()) {
      // A mutant that still parses (flip in a string byte, say) must
      // at least be structurally sound enough to re-serialize.
      const std::string reencoded = SerializeWorkerSpec(parsed.value());
      EXPECT_FALSE(reencoded.empty());
    }
  }
}

TEST(ShardWorkerMainTest, MalformedStatusFdIsAUsageError) {
  // "abc" must not be read as fd 0 (stdin), and no other malformed or
  // out-of-range value may reach the spec read either: each is exit 2.
  for (const char* fd : {"abc", "", "3x", "-1", "99999999999"}) {
    EXPECT_EQ(ShardWorkerMain({"--spec=/nonexistent/spec.bin",
                               std::string("--status-fd=") + fd}),
              2)
        << "--status-fd=" << fd;
  }
}

}  // namespace
}  // namespace worker
}  // namespace shard
}  // namespace divexp
