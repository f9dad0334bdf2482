// Corrupt-snapshot robustness: every truncation point and byte flip —
// header magic/version/kind/size, CRC, and payload — must surface as a
// clean Status error, never UB or a loadable-but-wrong snapshot. The
// CI recovery job runs this binary under ASan+UBSan.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <string>

#include "recovery/atomic_file.h"
#include "recovery/mining_snapshot.h"
#include "recovery/snapshot_file.h"
#include "testing/pattern_buffers.h"
#include "util/random.h"

namespace divexp {
namespace recovery {
namespace {

using divexp::testing::BufferOf;

std::string TempDir() {
  const char* base = std::getenv("TMPDIR");
  std::string dir = std::string(base != nullptr ? base : "/tmp") +
                    "/divexp_corrupt_snapshot_test";
  DIVEXP_CHECK_OK(EnsureDirectory(dir));
  return dir;
}

std::string ValidMiningSnapshotBytes() {
  MiningStateSnapshot state;
  state.fingerprint = 42;
  state.miner = MinerKind::kFpGrowth;
  state.min_support = 0.05;
  state.num_units = 4;
  state.units[0] =
      BufferOf({MinedPattern{Itemset{0}, OutcomeCounts{3, 1, 2}},
                MinedPattern{Itemset{0, 2}, OutcomeCounts{1, 1, 0}}});
  state.units[3] =
      BufferOf({MinedPattern{Itemset{1}, OutcomeCounts{2, 2, 2}}});
  const std::string path = TempDir() + "/valid_mining.ckpt";
  DIVEXP_CHECK_OK(SaveMiningState(path, state));
  auto bytes = ReadFileToString(path);
  DIVEXP_CHECK(bytes.ok());
  return std::move(bytes).value();
}

// Writes `bytes` to a scratch file and tries to load it as a mining
// state; returns true when the load cleanly failed (non-OK Status). A
// load that "succeeds" is only acceptable if the bytes round-trip to
// the original — mutated-but-loadable is the corruption we must never
// allow (the CRC makes a silent single-byte flip pass practically
// impossible).
bool LoadCleanlyFails(const std::string& bytes,
                      const std::string& original) {
  const std::string path = TempDir() + "/mutant.snap";
  DIVEXP_CHECK_OK(WriteFileAtomic(path, bytes));
  if (!LoadMiningState(path).ok()) return true;
  return bytes == original;  // loadable is OK only if bit-identical
}

TEST(CorruptSnapshotTest, EveryTruncationFailsCleanly_Mining) {
  const std::string good = ValidMiningSnapshotBytes();
  for (size_t len = 0; len < good.size(); ++len) {
    EXPECT_TRUE(LoadCleanlyFails(good.substr(0, len), good))
        << "truncated to " << len << " bytes";
  }
}

TEST(CorruptSnapshotTest, EveryByteFlipFailsCleanly_Mining) {
  const std::string good = ValidMiningSnapshotBytes();
  for (size_t i = 0; i < good.size(); ++i) {
    for (const uint8_t flip : {uint8_t{0x01}, uint8_t{0xFF}}) {
      std::string bad = good;
      bad[i] = static_cast<char>(static_cast<uint8_t>(bad[i]) ^ flip);
      EXPECT_TRUE(LoadCleanlyFails(bad, good))
          << "byte " << i << " xor " << int{flip};
    }
  }
}

TEST(CorruptSnapshotTest, RandomMultiByteMutationsFailCleanly) {
  // Multi-byte garbage (random splices, overwrites, extensions) on top
  // of the single-flip sweep; seeded, so failures reproduce.
  const std::string good = ValidMiningSnapshotBytes();
  Rng rng(20260807);
  for (int round = 0; round < 200; ++round) {
    std::string bad = good;
    switch (rng.Below(3)) {
      case 0: {  // overwrite a random run with random bytes
        const size_t at = rng.Below(bad.size());
        const size_t len = 1 + rng.Below(16);
        for (size_t i = at; i < std::min(bad.size(), at + len); ++i) {
          bad[i] = static_cast<char>(rng.Below(256));
        }
        break;
      }
      case 1:  // truncate
        bad.resize(rng.Below(bad.size()));
        break;
      default:  // append garbage
        for (size_t i = 0; i < 1 + rng.Below(32); ++i) {
          bad.push_back(static_cast<char>(rng.Below(256)));
        }
    }
    EXPECT_TRUE(LoadCleanlyFails(bad, good)) << "round " << round;
  }
}

TEST(CorruptSnapshotTest, PayloadCorruptionBehindValidCrcFailsCleanly) {
  // Adversarial (not just accidental) corruption: a structurally
  // invalid payload wrapped in a *correct* envelope. The CRC passes,
  // so the structural validators are the only line of defense.
  {
    ByteWriter w;
    w.PutU64(1);    // fingerprint
    w.PutU32(0);    // miner
    w.PutF64(0.5);  // min_support
    w.PutU64(0);    // max_length
    w.PutU64(2);    // num_units
    w.PutU64(3);    // unit count 3 but only one unit follows: truncated
    const std::string path = TempDir() + "/bad_payload.ckpt";
    ASSERT_TRUE(
        WriteSnapshotFile(path, SnapshotKind::kMiningState, w.data()).ok());
    EXPECT_FALSE(LoadMiningState(path).ok());
  }
  {
    // A pattern count that would overflow any sane allocation must be
    // rejected by the bounds pre-check, not by attempting to reserve.
    ByteWriter w;
    w.PutU64(1);
    w.PutU32(0);
    w.PutF64(0.5);
    w.PutU64(0);
    w.PutU64(1);
    w.PutU64(0);                      // unit 0
    w.PutU64(0xFFFFFFFFFFFFull);      // absurd pattern count
    const std::string path = TempDir() + "/huge_count.ckpt";
    ASSERT_TRUE(
        WriteSnapshotFile(path, SnapshotKind::kMiningState, w.data()).ok());
    EXPECT_FALSE(LoadMiningState(path).ok());
  }
}

}  // namespace
}  // namespace recovery
}  // namespace divexp
