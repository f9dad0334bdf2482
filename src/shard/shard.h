// ShardedExplorer: fault-isolated, shard-parallel divergence
// exploration. The dataset is split into K horizontal shards; each
// shard is mined as an isolated work unit with its own RunGuard
// budget and its own checkpoint file (the PR 4 snapshot envelope is
// the work-unit protocol), wrapped in a bounded RetryPolicy with
// exponential backoff. A shard failure — an injected crash, a guard
// breach, a corrupt checkpoint, a fingerprint mismatch — is retried
// from the shard's last checkpoint instead of aborting the run; after
// retry exhaustion the driver degrades per ShardFailurePolicy, always
// stamping ExplorerRunStats with what population the merged table
// actually describes (rows_covered_fraction, shards_failed,
// retries_total). Merging is SON two-phase (see shard/merge.h), so a
// fully recovered sharded run is bit-identical to a monolithic run.
#ifndef DIVEXP_SHARD_SHARD_H_
#define DIVEXP_SHARD_SHARD_H_

#include <functional>
#include <string>
#include <vector>

#include "core/explorer.h"
#include "core/outcome.h"
#include "core/pattern.h"
#include "data/encoder.h"
#include "fpm/transactions.h"
#include "shard/merge.h"
#include "shard/unit.h"
#include "util/retry.h"
#include "util/status.h"

namespace divexp {
namespace shard {

/// What to do with a shard whose retry budget is exhausted.
enum class ShardFailurePolicy {
  /// Fail the whole run with the shard's final status.
  kFail,
  /// Exclude the shard's rows from the merge. The table is exact over
  /// the surviving rows and rows_covered_fraction reports < 1.
  kDrop,
  /// Keep the shard's rows in the tallies but source its candidates
  /// from its last checkpoint (possibly none). Coverage stays 1.0 and
  /// every reported tally is exact; patterns frequent only inside the
  /// failed shard may be missing (the table is a subset of the truth).
  kStale,
};

const char* ShardFailurePolicyName(ShardFailurePolicy policy);

/// Parses "fail" / "drop" / "stale".
Result<ShardFailurePolicy> ParseShardFailurePolicy(const std::string& name);

/// Where a shard attempt executes.
enum class ShardIsolation {
  /// In a worker thread of this process (the default): cheapest, but a
  /// crash in any shard takes the whole run down.
  kThread,
  /// In a fork/exec'd `divexp shard-worker` process supervised by the
  /// coordinator (src/shard/worker): SIGSEGV, OOM-kill or a wedged
  /// miner in one shard becomes an ordinary retryable shard failure.
  kProcess,
};

const char* ShardIsolationName(ShardIsolation isolation);

/// Parses "thread" / "process".
Result<ShardIsolation> ParseShardIsolation(const std::string& name);

/// Everything an injected attempt runner needs to execute one
/// (shard, attempt) somewhere else. All pointers are non-owning and
/// valid for the duration of the call.
struct ShardAttemptContext {
  size_t shard = 0;
  size_t attempt = 0;
  /// The shard's dataset slice and outcome slice (what a worker spec
  /// serializes; the transaction database does not cross the process
  /// line).
  const EncodedDataset* data = nullptr;
  const std::vector<Outcome>* outcomes = nullptr;
  /// Expected DatasetFingerprint of the slice.
  uint64_t fingerprint = 0;
  /// Per-attempt deadline, already escalated by the retry policy
  /// (0 = base deadline only).
  int64_t timeout_ms = 0;
  /// The run's base exploration parameters.
  const ExplorerOptions* base = nullptr;
};

/// Executes one shard attempt out-of-line — the seam the process
/// coordinator (src/shard/worker/coordinator.h, a higher layer) plugs
/// into without this header ever depending on it. Must be
/// exception-free: report failures through the result's status.
using ShardAttemptRunner =
    std::function<ShardAttemptResult(const ShardAttemptContext&)>;

/// Configuration of a sharded exploration.
struct ShardedExplorerOptions {
  /// Per-shard exploration parameters. `limits` govern each shard
  /// attempt individually (fresh RunGuard per attempt); `num_threads`
  /// is the mining parallelism inside one shard; `checkpoint_dir`, if
  /// set, receives one `shard_<i>/` snapshot directory per shard;
  /// `on_limit` is ignored — a guard breach inside a shard is a shard
  /// failure, handled by retry/degradation, never by escalation.
  ExplorerOptions base;
  /// Horizontal shards to split the dataset into (>= 1).
  size_t num_shards = 1;
  /// Shards mined concurrently (>= 1).
  size_t shard_parallelism = 1;
  /// Degradation mode after a shard exhausts its retries.
  ShardFailurePolicy on_shard_failure = ShardFailurePolicy::kFail;
  /// Retry/backoff policy wrapped around each shard unit. Its
  /// attempt_timeout_ms (when set) overrides base.limits.deadline_ms
  /// per attempt, escalating on every retry so deadline-induced
  /// failures converge.
  RetryPolicy retry;
  /// Test hook: receives each backoff delay instead of sleeping.
  std::function<void(uint64_t)> sleep_ms;
  /// Where shard attempts execute. kProcess requires `attempt_runner`
  /// (wired by the CLI / tests via MakeProcessAttemptRunner) —
  /// validation rejects the combination without it.
  ShardIsolation isolation = ShardIsolation::kThread;
  /// Out-of-line attempt executor for kProcess; ignored under kThread.
  ShardAttemptRunner attempt_runner;
};

[[nodiscard]] Status ValidateShardedExplorerOptions(
    const ShardedExplorerOptions& options);

/// Result of one shard work unit after all retries. The status must
/// always be consulted before the patterns are used (enforced by the
/// divexp-lint rule `shard-status-propagated`).
struct ShardOutcome {
  Status status;
  size_t shard = 0;
  /// Fingerprint of the shard's transaction data, stamped on success
  /// and verified again at merge time.
  uint64_t fingerprint = 0;
  /// Locally frequent patterns (meaningless unless status is OK).
  PatternBuffer patterns;
  size_t attempts = 0;
  size_t retries = 0;
  bool resumed = false;
  uint64_t checkpoints_written = 0;
  uint64_t checkpoint_bytes = 0;
  uint64_t checkpoint_write_failures = 0;
  Status checkpoint_write_error;
  uint64_t peak_memory_bytes = 0;
  std::vector<obs::StageStats> stages;
};

/// Shard-parallel counterpart of DivergenceExplorer with the same
/// Explore/ExploreOutcomes surface. Any fully recovered run — every
/// shard eventually succeeded, regardless of shard count, retry
/// history or resume provenance — serializes bit-identically to the
/// monolithic explorer (PatternTable::Create puts every table in
/// canonical order).
class ShardedExplorer {
 public:
  explicit ShardedExplorer(ShardedExplorerOptions options)
      : options_(std::move(options)) {}

  Result<PatternTable> Explore(const EncodedDataset& dataset,
                               const std::vector<int>& predictions,
                               const std::vector<int>& truths,
                               Metric metric) const;

  Result<PatternTable> ExploreOutcomes(const EncodedDataset& dataset,
                                       std::vector<Outcome> outcomes) const;

  /// Accounting of the last Explore/ExploreOutcomes call, including
  /// the shard/coverage fields.
  const ExplorerRunStats& last_run_stats() const { return stats_; }

 private:
  ShardedExplorerOptions options_;
  mutable ExplorerRunStats stats_;
};

}  // namespace shard
}  // namespace divexp

#endif  // DIVEXP_SHARD_SHARD_H_
