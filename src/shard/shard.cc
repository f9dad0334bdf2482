#include "shard/shard.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <thread>
#include <utility>

#include "fpm/transactions.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "recovery/mining_snapshot.h"
#include "shard/unit.h"
#include "util/failpoint.h"
#include "util/parallel.h"
#include "util/stopwatch.h"

namespace divexp {
namespace shard {
namespace {

/// Immutable per-shard inputs, built once and reused by every attempt.
struct ShardWork {
  EncodedDataset data;
  /// Outcome slice, retained only when an attempt runner needs to ship
  /// it out of process (TransactionDatabase::Create consumes its copy).
  std::vector<Outcome> outcomes;
  TransactionDatabase db;
  uint64_t fingerprint = 0;
  bool empty = false;
};

ShardOutcome RunShardUnit(size_t shard_index, const ShardWork& work,
                          const ShardedExplorerOptions& options,
                          const MiningSetup& mining) {
  ShardOutcome out;
  out.shard = shard_index;
  obs::StageCollector collector;
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Default();

  auto attempt_fn = [&](size_t attempt) -> Status {
    reg.GetCounter("shard.attempts")->Add(1);
    // An externally cancelled run must not be retried into.
    if (options.base.guard != nullptr &&
        options.base.guard->cancel_requested()) {
      return options.base.guard->ToStatus();
    }
    const int64_t timeout = RetryAttemptTimeoutMs(options.retry, attempt);
    ShardAttemptResult result;
    if (options.isolation == ShardIsolation::kProcess) {
      // Out-of-line (process-isolated) attempt: the runner owns the
      // whole unit including its failpoints and checkpointing; account
      // the coordinator-side wall time as the shard-mine stage.
      obs::StageTimer unit_timer(&collector, obs::kStageShardMine);
      ShardAttemptContext ctx;
      ctx.shard = shard_index;
      ctx.attempt = attempt;
      ctx.data = &work.data;
      ctx.outcomes = &work.outcomes;
      ctx.fingerprint = work.fingerprint;
      ctx.timeout_ms = timeout;
      ctx.base = &options.base;
      result = options.attempt_runner(ctx);
      unit_timer.AddItems(result.patterns.size());
    } else {
      ShardAttemptParams params;
      params.shard = shard_index;
      params.attempt = attempt;
      params.fingerprint = work.fingerprint;
      params.timeout_ms = timeout;
      result = RunShardAttempt(work.db, options.base, mining, params,
                               &collector);
    }
    out.resumed = out.resumed || result.resumed;
    out.checkpoints_written += result.checkpoints_written;
    out.checkpoint_bytes += result.checkpoint_bytes;
    out.checkpoint_write_failures += result.checkpoint_write_failures;
    if (!result.checkpoint_write_error.ok() &&
        out.checkpoint_write_error.ok()) {
      out.checkpoint_write_error = result.checkpoint_write_error;
    }
    out.peak_memory_bytes =
        std::max(out.peak_memory_bytes, result.peak_memory_bytes);
    if (!result.status.ok()) return result.status;
    out.fingerprint = result.fingerprint;
    out.patterns = std::move(result.patterns);
    return Status::OK();
  };

  // Failure isolation: an exception escaping anywhere in the attempt
  // (a throw-action failpoint at a seam outside the miner, a crashing
  // checkpoint writer) is this shard's failure, not the run's.
  auto guarded_attempt = [&](size_t attempt) -> Status {
    try {
      return attempt_fn(attempt);
    } catch (const std::exception& e) {
      return Status::Internal("shard " + std::to_string(shard_index) +
                              " attempt crashed: " + e.what());
    }
  };

  auto sleeper = [&](uint64_t ms) {
    reg.GetHistogram("shard.backoff_ms")->Record(ms);
    if (options.sleep_ms) {
      options.sleep_ms(ms);
    } else if (ms > 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(ms));
    }
  };
  const RetryOutcome retried = RetryWithBackoff(
      options.retry, shard_index, guarded_attempt, sleeper);
  out.status = retried.status;
  out.attempts = retried.attempts;
  out.retries = retried.retries;
  if (retried.retries > 0) {
    reg.GetCounter("shard.retries")->Add(retried.retries);
  }
  if (!out.status.ok()) out.patterns.Release();
  out.stages = collector.stages();
  return out;
}

}  // namespace

const char* ShardFailurePolicyName(ShardFailurePolicy policy) {
  switch (policy) {
    case ShardFailurePolicy::kFail:
      return "fail";
    case ShardFailurePolicy::kDrop:
      return "drop";
    case ShardFailurePolicy::kStale:
      return "stale";
  }
  return "unknown";
}

Result<ShardFailurePolicy> ParseShardFailurePolicy(
    const std::string& name) {
  if (name == "fail") return ShardFailurePolicy::kFail;
  if (name == "drop") return ShardFailurePolicy::kDrop;
  if (name == "stale") return ShardFailurePolicy::kStale;
  return Status::InvalidArgument("unknown shard failure policy '" + name +
                                 "' (expected fail, drop or stale)");
}

const char* ShardIsolationName(ShardIsolation isolation) {
  switch (isolation) {
    case ShardIsolation::kThread:
      return "thread";
    case ShardIsolation::kProcess:
      return "process";
  }
  return "unknown";
}

Result<ShardIsolation> ParseShardIsolation(const std::string& name) {
  if (name == "thread") return ShardIsolation::kThread;
  if (name == "process") return ShardIsolation::kProcess;
  return Status::InvalidArgument("unknown shard isolation '" + name +
                                 "' (expected thread or process)");
}

Status ValidateShardedExplorerOptions(
    const ShardedExplorerOptions& options) {
  DIVEXP_RETURN_NOT_OK(ValidateExplorerOptions(options.base));
  if (options.num_shards == 0) {
    return Status::InvalidArgument("num_shards must be >= 1");
  }
  if (options.shard_parallelism == 0) {
    return Status::InvalidArgument("shard_parallelism must be >= 1");
  }
  if (options.isolation == ShardIsolation::kProcess &&
      !options.attempt_runner) {
    return Status::InvalidArgument(
        "process isolation requires an attempt runner "
        "(MakeProcessAttemptRunner)");
  }
  DIVEXP_RETURN_NOT_OK(ValidateRetryPolicy(options.retry));
  return Status::OK();
}

Result<PatternTable> ShardedExplorer::Explore(
    const EncodedDataset& dataset, const std::vector<int>& predictions,
    const std::vector<int>& truths, Metric metric) const {
  if (predictions.size() != dataset.num_rows ||
      truths.size() != dataset.num_rows) {
    return Status::InvalidArgument(
        "predictions/truths length does not match dataset rows");
  }
  DIVEXP_ASSIGN_OR_RETURN(std::vector<Outcome> outcomes,
                          ComputeOutcomes(metric, predictions, truths));
  return ExploreOutcomes(dataset, std::move(outcomes));
}

Result<PatternTable> ShardedExplorer::ExploreOutcomes(
    const EncodedDataset& dataset, std::vector<Outcome> outcomes) const {
  DIVEXP_RETURN_NOT_OK(ValidateShardedExplorerOptions(options_));
  if (outcomes.size() != dataset.num_rows) {
    return Status::InvalidArgument(
        "outcomes length " + std::to_string(outcomes.size()) +
        " != dataset rows " + std::to_string(dataset.num_rows));
  }
  if (dataset.num_rows == 0) {
    return Status::InvalidArgument("dataset has no rows");
  }
  obs::ScopedSpan explore_span("shard.explore");
  Stopwatch total;
  stats_ = ExplorerRunStats{};
  stats_.shards = options_.num_shards;
  stats_.shard_isolation = ShardIsolationName(options_.isolation);
  stats_.effective_min_support = options_.base.min_support;
  // Every shard inherits the base options and an identically-shaped
  // slice (same attributes/items, fewer rows), so they all resolve to
  // the same plan: resolve once here, and hand the resolved miner,
  // kernel and thread count to shard units, worker specs and shard
  // checkpoints.
  DIVEXP_ASSIGN_OR_RETURN(const MiningSetup mining,
                          ResolveMining(dataset, options_.base));
  stats_.miner = MinerKindName(mining.plan.miner);
  stats_.kernel = mining.plan.ops->name;
  stats_.dispatch_rationale = mining.plan.rationale;
  ShardedExplorerOptions run_options = options_;
  run_options.base.miner = mining.plan.miner;
  run_options.base.kernel = mining.plan.kernel;
  run_options.base.num_threads = mining.plan.num_threads;
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Default();
  reg.GetCounter("shard.runs")->Add(1);
  const uint64_t faults0 =
      recovery::FailPointRegistry::Default().faults_injected();

  const std::vector<ShardRange> plan =
      MakeShardPlan(dataset.num_rows, options_.num_shards);

  // Slice the dataset once; each shard's transaction database and
  // fingerprint are shared by all of its attempts.
  std::vector<ShardWork> work(plan.size());
  for (size_t i = 0; i < plan.size(); ++i) {
    if (plan[i].size() == 0) {
      work[i].empty = true;
      continue;
    }
    EncodedDataset& slice = work[i].data;
    slice.num_rows = plan[i].size();
    slice.num_attributes = dataset.num_attributes;
    slice.catalog = dataset.catalog;
    slice.cells.assign(
        dataset.cells.begin() +
            static_cast<std::ptrdiff_t>(plan[i].begin *
                                        dataset.num_attributes),
        dataset.cells.begin() +
            static_cast<std::ptrdiff_t>(plan[i].end *
                                        dataset.num_attributes));
    std::vector<Outcome> shard_outcomes(
        outcomes.begin() + static_cast<std::ptrdiff_t>(plan[i].begin),
        outcomes.begin() + static_cast<std::ptrdiff_t>(plan[i].end));
    if (options_.isolation == ShardIsolation::kProcess) {
      // An out-of-process attempt ships the raw slice, so keep the
      // outcome copy TransactionDatabase::Create is about to consume.
      work[i].outcomes = shard_outcomes;
    }
    DIVEXP_ASSIGN_OR_RETURN(
        work[i].db,
        TransactionDatabase::Create(slice, std::move(shard_outcomes)));
    work[i].fingerprint = recovery::DatasetFingerprint(work[i].db);
  }

  // Mine each shard as an isolated, retried work unit. Workers write
  // only their own slot; all aggregation happens after the join.
  std::vector<ShardOutcome> results(plan.size());
  ParallelFor(options_.shard_parallelism, plan.size(), [&](size_t i) {
    if (work[i].empty) {
      results[i].shard = i;
      return;
    }
    results[i] = RunShardUnit(i, work[i], run_options, mining);
  });

  obs::StageCollector stages;
  std::vector<uint64_t> expected_fingerprints(plan.size(), 0);
  std::vector<bool> include_rows(plan.size(), true);
  std::vector<ShardContribution> contributions;
  Status first_failure;
  for (size_t i = 0; i < plan.size(); ++i) {
    ShardOutcome& r = results[i];
    expected_fingerprints[i] = work[i].fingerprint;
    stats_.retries_total += r.retries;
    stats_.resumed_from_checkpoint =
        stats_.resumed_from_checkpoint || r.resumed;
    stats_.checkpoints_written += r.checkpoints_written;
    stats_.checkpoint_bytes += r.checkpoint_bytes;
    stats_.checkpoint_write_failures += r.checkpoint_write_failures;
    if (!r.checkpoint_write_error.ok() &&
        stats_.checkpoint_write_error.ok()) {
      stats_.checkpoint_write_error = r.checkpoint_write_error;
    }
    stats_.peak_memory_bytes =
        std::max(stats_.peak_memory_bytes, r.peak_memory_bytes);
    stages.MergeFrom(r.stages);

    if (r.status.ok()) {
      if (!work[i].empty) {
        contributions.push_back(ShardContribution{
            i, r.fingerprint, std::move(r.patterns)});
      }
      continue;
    }
    // Cancellation is the caller's intent: it fails the run under
    // every policy.
    if (r.status.code() == StatusCode::kCancelled) return r.status;
    ++stats_.shards_failed;
    reg.GetCounter("shard.failures")->Add(1);
    if (first_failure.ok()) {
      first_failure =
          Status(r.status.code(), "shard " + std::to_string(i) + " of " +
                                      std::to_string(plan.size()) +
                                      " failed after " +
                                      std::to_string(r.attempts) +
                                      " attempts: " + r.status.message());
    }
    switch (options_.on_shard_failure) {
      case ShardFailurePolicy::kFail:
        break;
      case ShardFailurePolicy::kDrop:
        include_rows[i] = false;
        ++stats_.shards_dropped;
        reg.GetCounter("shard.dropped")->Add(1);
        break;
      case ShardFailurePolicy::kStale: {
        ++stats_.shards_stale;
        reg.GetCounter("shard.stale")->Add(1);
        // Best-effort candidate recovery from the shard's last
        // snapshot; the merge recounts them exactly over all rows, so
        // stale candidates can never bias a tally — only narrow the
        // pattern set.
        if (!options_.base.checkpoint_dir.empty()) {
          Result<recovery::MiningStateSnapshot> snapshot =
              recovery::LoadMiningState(
                  ShardCheckpointDir(options_.base.checkpoint_dir, i) +
                  "/mining.ckpt");
          if (snapshot.ok() &&
              snapshot->fingerprint == work[i].fingerprint) {
            ShardContribution stale;
            stale.shard = i;
            stale.fingerprint = snapshot->fingerprint;
            for (const auto& [unit, patterns] : snapshot->units) {
              stale.patterns.Append(patterns);
            }
            contributions.push_back(std::move(stale));
          }
        }
        break;
      }
    }
  }
  stats_.faults_injected =
      recovery::FailPointRegistry::Default().faults_injected() - faults0;

  if (stats_.shards_failed > 0 &&
      options_.on_shard_failure == ShardFailurePolicy::kFail) {
    return first_failure;
  }
  size_t covered_rows = 0;
  for (size_t i = 0; i < plan.size(); ++i) {
    if (include_rows[i]) covered_rows += plan[i].size();
  }
  if (covered_rows == 0) {
    // Every shard was dropped: there is no population left to report
    // honestly, so surface the failure instead of an empty table.
    return first_failure;
  }

  ShardMergeResult merged;
  {
    obs::StageTimer merge_timer(&stages, obs::kStageShardMerge);
    MinerOptions mopts = MinerOptionsFor(options_.base, mining.plan);
    mopts.stages = &stages;
    DIVEXP_ASSIGN_OR_RETURN(
        merged, MergeShardContributions(dataset, outcomes, plan,
                                        expected_fingerprints, include_rows,
                                        contributions, mopts));
    merge_timer.AddItems(merged.patterns.size());
  }

  PatternTableOptions topts;
  topts.num_threads = options_.base.num_threads;
  topts.stages = &stages;
  obs::StageTimer divergence_timer(&stages, obs::kStageDivergence);
  DIVEXP_ASSIGN_OR_RETURN(
      PatternTable table,
      PatternTable::Create(std::move(merged.patterns), dataset.catalog,
                           merged.covered_rows, /*guard=*/nullptr, topts));
  divergence_timer.AddItems(table.size());
  divergence_timer.Finish();

  stats_.patterns = table.size() - 1;
  stats_.rows_covered_fraction =
      static_cast<double>(merged.covered_rows) /
      static_cast<double>(dataset.num_rows);
  stats_.elapsed_ms = total.Millis();
  stats_.stages = stages.stages();
  return table;
}

}  // namespace shard
}  // namespace divexp
