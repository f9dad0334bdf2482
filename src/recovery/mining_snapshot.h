// Resumable mining state: the per-unit outputs of an in-progress
// miner run, serialized into a kMiningState snapshot.
//
// Every miner decomposes its work into ordered, independent *units*
// whose outputs concatenate (in unit order) to the sequential result:
//
//   FP-growth  unit i = header position num_headers-1-i (the classic
//              least-frequent-first order)
//   Eclat      unit i = root item i's depth-first subtree
//   Apriori    unit k = level k (1-based; level 1 = the singletons)
//
// A snapshot records the completed units of one attempt, keyed by the
// dataset fingerprint and the attempt's mining parameters, so a resumed
// run can splice restored unit outputs in place and mine only the rest
// — producing a bit-identical pattern table (see docs/recovery.md).
#ifndef DIVEXP_RECOVERY_MINING_SNAPSHOT_H_
#define DIVEXP_RECOVERY_MINING_SNAPSHOT_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "fpm/miner.h"
#include "fpm/transactions.h"
#include "util/run_guard.h"
#include "util/status.h"

namespace divexp {
namespace recovery {

/// The resumable state of one mining attempt.
struct MiningStateSnapshot {
  /// DatasetFingerprint() of the transaction database the units were
  /// mined from; a snapshot never restores onto different data.
  uint64_t fingerprint = 0;
  MinerKind miner = MinerKind::kFpGrowth;
  /// The attempt's (possibly escalated) support threshold, compared
  /// bit-exactly on restore.
  double min_support = 0.0;
  uint64_t max_length = 0;
  /// Total units of the run; 0 when unknown up front (Apriori's level
  /// count emerges as mining proceeds).
  uint64_t num_units = 0;
  /// Completed units in ascending unit order.
  std::map<uint64_t, PatternBuffer> units;
};

/// Order- and content-sensitive 64-bit fingerprint of a transaction
/// database (cells, outcomes, dimensions). FNV-1a; not cryptographic —
/// it guards against *accidental* dataset/snapshot mismatch.
uint64_t DatasetFingerprint(const TransactionDatabase& db);

/// Serializes `state` into a snapshot payload (no envelope).
std::string SerializeMiningState(const MiningStateSnapshot& state);

/// Parses a snapshot payload; every malformed input yields a
/// descriptive Status, never UB.
Result<MiningStateSnapshot> DeserializeMiningState(
    const std::string& payload);

/// Writes `state` as a CRC-checked kMiningState snapshot file
/// (write-temp/fsync/rename). `bytes_written` (optional) receives the
/// file size for checkpoint accounting. Buffered: builds the whole
/// payload in memory first (peak ~2x payload); kept as the streaming
/// path's differential oracle.
Status SaveMiningState(const std::string& path,
                       const MiningStateSnapshot& state,
                       uint64_t* bytes_written = nullptr);

/// Serialization chunk granularity of SaveMiningStateChunked; exposed
/// so the RunGuard accounting test can assert the O(chunk) bound.
inline constexpr size_t kSnapshotChunkBytes = 64 * 1024;

/// Streaming SaveMiningState: serializes into ~kSnapshotChunkBytes
/// chunks through a SnapshotFileWriter, so peak memory during a
/// checkpoint write is O(chunk) instead of O(payload) — the state a
/// Checkpointer persists can be orders of magnitude larger than RAM
/// headroom mid-mine. The file produced is byte-identical to
/// SaveMiningState's. When `guard` is non-null each in-flight chunk is
/// recorded against it (AddMemory/SubMemory), so checkpoint writes
/// show up in peak-memory accounting like every other tracked
/// allocation.
Status SaveMiningStateChunked(const std::string& path,
                              const MiningStateSnapshot& state,
                              uint64_t* bytes_written = nullptr,
                              RunGuard* guard = nullptr);

/// Loads and verifies a kMiningState snapshot file.
Result<MiningStateSnapshot> LoadMiningState(const std::string& path);

}  // namespace recovery
}  // namespace divexp

#endif  // DIVEXP_RECOVERY_MINING_SNAPSHOT_H_
