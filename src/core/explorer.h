// DivergenceExplorer: the user-facing facade implementing paper Alg. 1.
// Given a discretized dataset, predictions, ground truth and a metric,
// it mines all frequent itemsets with outcome tallies and returns the
// pattern table. Runs can be governed by a RunGuard (deadline, pattern
// and memory budgets, cooperative cancellation); on a limit breach the
// explorer either fails fast, returns the truncated table, or escalates
// min-support and retries, per `on_limit`.
#ifndef DIVEXP_CORE_EXPLORER_H_
#define DIVEXP_CORE_EXPLORER_H_

#include <memory>
#include <vector>

#include "core/outcome.h"
#include "core/pattern.h"
#include "data/encoder.h"
#include "fpm/dispatch.h"
#include "fpm/miner.h"
#include "obs/stage.h"
#include "util/run_guard.h"
#include "util/status.h"

namespace divexp {

/// What to do when a resource limit trips mid-exploration.
enum class LimitAction {
  /// Return a non-OK Status (kCancelled / kDeadlineExceeded /
  /// kResourceExhausted) and no table.
  kFail,
  /// Return the patterns mined so far; last_run_stats().truncated is
  /// set with the breach reason. Deadline/memory truncation points are
  /// timing-dependent; pattern-budget truncation is deterministic.
  kTruncate,
  /// Raise min_support by escalate_factor and retry (exponential
  /// backoff on the support threshold) until an attempt completes
  /// within the limits or max_escalations is exhausted — then degrade
  /// to the last attempt's truncated table. Cancellation always fails.
  kEscalate,
};

const char* LimitActionName(LimitAction action);

/// Configuration for a divergence exploration.
struct ExplorerOptions {
  /// The paper's single input parameter s (relative support).
  double min_support = 0.05;
  /// Mining backend; FP-growth is the paper's experimental default.
  /// MinerKind::kAuto defers to fpm::ChooseMiningPlan, which picks the
  /// miner (and may fold tiny runs to one thread) from the dataset
  /// shape; see docs/performance.md.
  MinerKind miner = MinerKind::kFpGrowth;
  /// Kernel implementation for the mining hot loops. Every choice is
  /// bit-identical (kernel differential suite); kAuto/kSimd use the
  /// best SIMD table the CPU supports, kScalar forces the portable
  /// reference.
  fpm::KernelKind kernel = fpm::KernelKind::kAuto;
  /// Ignored: FP-growth has one array-backed tree layout. Kept only
  /// because the end-to-end benchmark sets it and the shard-worker spec
  /// carries it as one byte; deletion waits for the next
  /// benchmark-only change.
  bool use_arena = true;
  /// Cap on itemset length; 0 = full exploration.
  size_t max_length = 0;
  /// Worker threads for mining; 1 = sequential (the paper's setup).
  size_t num_threads = 1;
  /// Resource limits for the run; all-zero (the default) = ungoverned.
  RunLimits limits;
  /// Degradation mode when a limit trips.
  LimitAction on_limit = LimitAction::kFail;
  /// Multiplier applied to min_support per kEscalate retry (> 1).
  double escalate_factor = 2.0;
  /// Maximum number of kEscalate retries.
  size_t max_escalations = 8;
  /// Optional external guard (non-owning; must outlive the run). When
  /// set it replaces the internally constructed guard, so a caller
  /// (e.g. a server's timeout handler) can RequestCancel() from another
  /// thread; its limits take precedence over `limits`.
  RunGuard* guard = nullptr;
  /// Directory for crash-recovery snapshots (created if missing); empty
  /// = no checkpointing. While mining, completed work units are
  /// persisted to <dir>/mining.ckpt (CRC-checked, atomically replaced);
  /// see docs/recovery.md.
  std::string checkpoint_dir;
  /// Minimum milliseconds between snapshot writes; 0 = snapshot after
  /// every completed unit. A RunGuard breach forces a snapshot
  /// regardless of cadence, so the state a LimitBreach is about to
  /// truncate is captured first.
  uint64_t checkpoint_every_ms = 0;
  /// Restore completed units from an existing <checkpoint_dir>/
  /// mining.ckpt before mining. A missing snapshot means a fresh run; a
  /// corrupt snapshot or one from a different dataset/configuration is
  /// an InvalidArgument error. The resumed result is bit-identical to
  /// an uninterrupted run.
  bool resume = false;
};

/// Validates an options struct up front (support range, thread count,
/// escalation parameters) so misconfiguration surfaces as
/// InvalidArgument instead of undefined downstream behavior.
Status ValidateExplorerOptions(const ExplorerOptions& options);

/// How a run of `options` over `dataset` mines: fpm::ChooseMiningPlan on
/// the dataset's shape, so `plan.miner` is never kAuto, and that miner.
/// Every explorer resolves its run here.
struct MiningSetup {
  fpm::MiningPlan plan;
  std::unique_ptr<FrequentPatternMiner> miner;
};
Result<MiningSetup> ResolveMining(const EncodedDataset& dataset,
                                  const ExplorerOptions& options);

/// The MinerOptions of a run of `options` resolved to `plan`: the
/// support threshold and length cap of `options`, the kernel and thread
/// count of `plan`. Every mining call of every explorer starts here and
/// then attaches its own guard, stage sink and checkpoint sink.
MinerOptions MinerOptionsFor(const ExplorerOptions& options,
                             const fpm::MiningPlan& plan);

/// Timing breakdown of a run (used for Fig. 6 and the mining-vs-post
/// processing split reported in §6.1).
struct ExplorerTimings {
  double mining_seconds = 0.0;
  double divergence_seconds = 0.0;
};

/// Resource accounting of a run. `truncated` distinguishes a complete
/// pattern table from a partial one — significance estimates over a
/// truncated table are only valid for the patterns present (see
/// docs/operational-limits.md).
struct ExplorerRunStats {
  /// True when the returned table is partial (kTruncate, or kEscalate
  /// that ran out of retries).
  bool truncated = false;
  /// Why the (last) attempt stopped early; kNone for complete runs.
  LimitBreach reason = LimitBreach::kNone;
  /// Non-empty patterns in the returned table.
  uint64_t patterns = 0;
  /// High-water mark of guard-tracked allocations (bytes).
  uint64_t peak_memory_bytes = 0;
  /// Wall-clock time of the whole Explore call (all attempts).
  double elapsed_ms = 0.0;
  /// Number of kEscalate retries performed.
  size_t escalations = 0;
  /// The min_support of the returned table (> options.min_support
  /// after escalation).
  double effective_min_support = 0.0;
  /// Per-stage breakdown (transaction build, miner build/grow phases,
  /// divergence post-pass), merged by stage name across escalation
  /// attempts. The CLI folds these into its run-level summary table
  /// and --metrics-json output.
  std::vector<obs::StageStats> stages;
  /// True when any attempt restored completed units from a
  /// --resume snapshot.
  bool resumed_from_checkpoint = false;
  /// Snapshot files written during the run.
  uint64_t checkpoints_written = 0;
  /// Cumulative bytes of all snapshot files written.
  uint64_t checkpoint_bytes = 0;
  /// Faults fired by armed failpoints while this run executed (a
  /// process-wide delta; meaningful when one run is active at a time).
  uint64_t faults_injected = 0;
  /// First checkpoint-write failure of the run (OK when every snapshot
  /// write succeeded or no checkpointing was configured). Checkpoint
  /// writes are best-effort — they never interrupt mining — but the
  /// failure must surface here, not vanish: a user relying on --resume
  /// needs to know the snapshot on disk is stale.
  Status checkpoint_write_error;
  /// Total snapshot writes that failed (the CLI warns once per run
  /// with this count instead of once per failed interval).
  uint64_t checkpoint_write_failures = 0;

  // Sharded-exploration accounting (metrics-JSON schema v3). A
  // monolithic run reports one shard and full coverage; a sharded run
  // (src/shard) fills these in so downstream consumers can see exactly
  // what population the divergence scores describe.
  /// Shards the dataset was split into (1 for monolithic runs).
  uint64_t shards = 1;
  /// Shards whose retry budget was exhausted.
  uint64_t shards_failed = 0;
  /// Failed shards excluded from the merge (--on-shard-failure=drop).
  uint64_t shards_dropped = 0;
  /// Failed shards represented only by their last checkpoint's
  /// candidates (--on-shard-failure=stale).
  uint64_t shards_stale = 0;
  /// Shard-unit retries performed across the whole run.
  uint64_t retries_total = 0;
  /// Fraction of dataset rows the merged table's tallies cover;
  /// < 1.0 only when shards were dropped.
  double rows_covered_fraction = 1.0;
  /// Where shard attempts executed (metrics-JSON schema v6): "thread"
  /// for in-process workers (and every monolithic run), "process" when
  /// shards ran in supervised `divexp shard-worker` subprocesses.
  std::string shard_isolation = "thread";

  // Dispatch accounting (metrics-JSON schema v4): what actually ran
  // after kAuto/kSimd resolution, so two runs can be compared knowing
  // which backend produced them.
  /// Resolved miner name ("fpgrowth", "apriori", "eclat").
  std::string miner;
  /// Resolved kernel name ("scalar", "avx2", "neon").
  std::string kernel;
  /// One-line justification from fpm::ChooseMiningPlan; printed by the
  /// CLI under --trace (not part of the metrics JSON).
  std::string dispatch_rationale;
};

/// Runs Alg. 1: outcome computation -> augmented FPM -> divergence and
/// significance for every frequent itemset.
class DivergenceExplorer {
 public:
  explicit DivergenceExplorer(ExplorerOptions options = {})
      : options_(options) {}

  const ExplorerOptions& options() const { return options_; }

  /// Full pipeline from labels: computes the outcome function for
  /// `metric` from (predictions, truths), then explores.
  Result<PatternTable> Explore(const EncodedDataset& dataset,
                               const std::vector<int>& predictions,
                               const std::vector<int>& truths,
                               Metric metric) const;

  /// Exploration from precomputed outcomes (any Boolean statistic). A
  /// dataset with no rows is InvalidArgument, as in the sharded
  /// explorer: there is no population to report on.
  Result<PatternTable> ExploreOutcomes(const EncodedDataset& dataset,
                                       std::vector<Outcome> outcomes) const;

  /// Timing of the last Explore* call on this object.
  const ExplorerTimings& last_timings() const { return timings_; }

  /// Resource accounting of the last Explore* call on this object.
  const ExplorerRunStats& last_run_stats() const { return stats_; }

 private:
  ExplorerOptions options_;
  mutable ExplorerTimings timings_;
  mutable ExplorerRunStats stats_;
};

}  // namespace divexp

#endif  // DIVEXP_CORE_EXPLORER_H_
