#include "shard/unit.h"

#include <algorithm>
#include <cstdio>
#include <memory>
#include <utility>

#include "recovery/checkpoint.h"
#include "util/failpoint.h"
#include "util/run_guard.h"

namespace divexp {
namespace shard {

namespace {

/// XOR mask applied by the shard.unit.fingerprint failpoint to emulate
/// a corrupted contribution stamp.
constexpr uint64_t kFingerprintCorruption = 0xbadc0ffee0ddf00dULL;

}  // namespace

std::string ShardCheckpointDir(const std::string& base_dir, size_t shard) {
  return base_dir + "/shard_" + std::to_string(shard);
}

ShardAttemptResult RunShardAttempt(const TransactionDatabase& db,
                                   const ExplorerOptions& base,
                                   const FrequentPatternMiner& miner,
                                   const ShardAttemptParams& params,
                                   obs::StageCollector* stages) {
  ShardAttemptResult out;
  auto attempt = [&]() -> Status {
    DIVEXP_FAILPOINT_STATUS("shard.unit.mine");
    obs::StageTimer unit_timer(stages, obs::kStageShardMine);

    // Fresh guard per attempt; the retry policy's per-attempt timeout
    // (escalated on every retry) overrides the base deadline so
    // deadline-induced failures converge.
    RunLimits limits = base.limits;
    if (params.timeout_ms > 0) limits.deadline_ms = params.timeout_ms;
    RunGuard guard(limits);
    RunGuard* guard_ptr = limits.unlimited() ? nullptr : &guard;

    std::unique_ptr<recovery::Checkpointer> checkpointer;
    if (!base.checkpoint_dir.empty()) {
      recovery::CheckpointerOptions copts;
      copts.dir = ShardCheckpointDir(base.checkpoint_dir, params.shard);
      copts.every_ms = base.checkpoint_every_ms;
      // Retries always resume: whatever the previous attempt managed
      // to persist is progress this attempt keeps.
      copts.resume = base.resume || params.attempt > 0;
      const std::string snapshot = copts.dir + "/mining.ckpt";
      Result<std::unique_ptr<recovery::Checkpointer>> created =
          recovery::Checkpointer::Create(copts);
      if (!created.ok()) {
        // Corrupt or unreadable snapshot: discard it so the next
        // attempt remines from scratch instead of failing identically.
        std::remove(snapshot.c_str());
        return created.status();
      }
      checkpointer = std::move(*created);
      Result<bool> restored = checkpointer->BeginAttempt(
          params.fingerprint, base.miner, base.min_support,
          base.max_length, /*strict=*/false);
      if (!restored.ok()) {
        std::remove(snapshot.c_str());
        return restored.status();
      }
      checkpointer->AttachGuard(guard_ptr);
    }
    // Fold this attempt's checkpoint accounting into the result on
    // every exit path — failed attempts wrote snapshots too.
    auto absorb_checkpoint_stats = [&]() {
      if (checkpointer == nullptr) return;
      out.resumed = out.resumed || checkpointer->resumed();
      out.checkpoints_written += checkpointer->checkpoints_written();
      out.checkpoint_bytes += checkpointer->checkpoint_bytes();
      out.checkpoint_write_failures += checkpointer->write_failures();
      const Status write_error = checkpointer->last_write_error();
      if (!write_error.ok() && out.checkpoint_write_error.ok()) {
        out.checkpoint_write_error = write_error;
      }
    };

    MinerOptions mopts;
    mopts.min_support = base.min_support;
    mopts.max_length = base.max_length;
    mopts.num_threads = base.num_threads;
    mopts.kernel = base.kernel;
    mopts.guard = guard_ptr;
    mopts.stages = stages;
    mopts.checkpoint = checkpointer.get();

    PatternBuffer patterns;
    try {
      Result<PatternBuffer> mined = miner.MineBuffer(db, mopts);
      if (!mined.ok()) {
        absorb_checkpoint_stats();
        return mined.status();
      }
      patterns = std::move(*mined);
    } catch (const std::exception& e) {
      absorb_checkpoint_stats();
      return Status::Internal("shard " + std::to_string(params.shard) +
                              " mining failed: " + e.what());
    }
    if (guard_ptr != nullptr) {
      out.peak_memory_bytes =
          std::max(out.peak_memory_bytes, guard_ptr->peak_memory_bytes());
      if (guard_ptr->stopped()) {
        if (checkpointer != nullptr) {
          // A failed flush is already latched in last_write_error.
          Status ignored = checkpointer->Flush();  // best-effort: keep the truncated units for the retry
        }
        absorb_checkpoint_stats();
        return guard_ptr->ToStatus();
      }
    }
    absorb_checkpoint_stats();

    uint64_t observed = params.fingerprint;
#if defined(DIVEXP_FAILPOINTS_ENABLED)
    if (recovery::FailPointRegistry::Default().armed()) {
      const Status corrupted =
          recovery::FailPointRegistry::Default().Hit(
              "shard.unit.fingerprint");
      if (!corrupted.ok()) observed ^= kFingerprintCorruption;
    }
#endif
    if (observed != params.fingerprint) {
      return Status::Internal("shard " + std::to_string(params.shard) +
                              " contribution fingerprint mismatch");
    }
    out.fingerprint = observed;
    out.patterns = std::move(patterns);
    unit_timer.AddItems(out.patterns.size());
    return Status::OK();
  };
  out.status = attempt();
  if (!out.status.ok()) out.patterns.Release();
  return out;
}

}  // namespace shard
}  // namespace divexp
