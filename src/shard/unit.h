// One shard work-unit attempt, shared verbatim by the in-thread
// isolation path (ShardedExplorer's default) and the out-of-process
// worker (src/shard/worker): checkpoint create/resume, guarded mining,
// forced flush on truncation, and the contribution fingerprint stamp.
// Keeping both isolation modes on one code path is what makes the
// process-isolation differential harness meaningful — the only thing
// `--shard-isolation=process` may change is *where* the attempt runs.
#ifndef DIVEXP_SHARD_UNIT_H_
#define DIVEXP_SHARD_UNIT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/explorer.h"
#include "fpm/miner.h"
#include "fpm/transactions.h"
#include "obs/stage.h"
#include "util/status.h"

namespace divexp {
namespace shard {

/// Per-shard checkpoint directory: `<base_dir>/shard_<shard>`.
std::string ShardCheckpointDir(const std::string& base_dir, size_t shard);

/// Identity and budget of one attempt at one shard.
struct ShardAttemptParams {
  size_t shard = 0;
  /// 0-based attempt index; > 0 forces a checkpoint resume, so a retry
  /// keeps whatever the previous attempt managed to persist.
  size_t attempt = 0;
  /// Expected DatasetFingerprint of the transaction database.
  uint64_t fingerprint = 0;
  /// Per-attempt deadline override (already escalated by the retry
  /// policy); 0 keeps the base deadline.
  int64_t timeout_ms = 0;
};

/// Everything one attempt reports back, successful or not. The
/// checkpoint accounting is filled on every exit path — failed
/// attempts wrote snapshots too.
struct ShardAttemptResult {
  Status status;
  /// Fingerprint stamped on the contribution (equals the expected one
  /// unless the shard.unit.fingerprint failpoint corrupted it).
  uint64_t fingerprint = 0;
  /// Locally frequent patterns (meaningless unless status is OK).
  PatternBuffer patterns;
  bool resumed = false;
  uint64_t checkpoints_written = 0;
  uint64_t checkpoint_bytes = 0;
  uint64_t checkpoint_write_failures = 0;
  Status checkpoint_write_error;
  uint64_t peak_memory_bytes = 0;
};

/// Runs one attempt: checkpointer setup (resume on retries, corrupt
/// snapshots discarded for the next attempt), guarded mining with the
/// retry deadline override, flush-on-truncation, fingerprint stamp.
/// Exceptions from the miner are contained into the returned status;
/// `base.guard` and `base.on_limit` are ignored (a breach is a shard
/// failure for the caller's retry loop, never an escalation).
ShardAttemptResult RunShardAttempt(const TransactionDatabase& db,
                                   const ExplorerOptions& base,
                                   const FrequentPatternMiner& miner,
                                   const ShardAttemptParams& params,
                                   obs::StageCollector* stages);

}  // namespace shard
}  // namespace divexp

#endif  // DIVEXP_SHARD_UNIT_H_
