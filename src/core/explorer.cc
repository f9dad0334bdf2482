#include "core/explorer.h"

#include <algorithm>
#include <string>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "recovery/checkpoint.h"
#include "util/failpoint.h"
#include "recovery/mining_snapshot.h"
#include "util/stopwatch.h"

namespace divexp {

const char* LimitActionName(LimitAction action) {
  switch (action) {
    case LimitAction::kFail:
      return "fail";
    case LimitAction::kTruncate:
      return "truncate";
    case LimitAction::kEscalate:
      return "escalate";
  }
  return "unknown";
}

Status ValidateExplorerOptions(const ExplorerOptions& options) {
  if (options.min_support <= 0.0 || options.min_support > 1.0) {
    return Status::InvalidArgument("min_support must be in (0, 1]");
  }
  if (options.num_threads == 0) {
    return Status::InvalidArgument("num_threads must be >= 1");
  }
  if (options.limits.deadline_ms < 0) {
    return Status::InvalidArgument("deadline_ms must be >= 0");
  }
  if (options.on_limit == LimitAction::kEscalate &&
      options.escalate_factor <= 1.0) {
    return Status::InvalidArgument(
        "escalate_factor must be > 1 for on_limit=escalate");
  }
  if (options.resume && options.checkpoint_dir.empty()) {
    return Status::InvalidArgument(
        "resume requires a checkpoint directory");
  }
  return Status::OK();
}

Result<MiningSetup> ResolveMining(const EncodedDataset& dataset,
                                  const ExplorerOptions& options) {
  fpm::DatasetShape shape;
  shape.rows = dataset.num_rows;
  shape.attributes = dataset.num_attributes;
  shape.items = dataset.catalog.num_items();
  MiningSetup setup;
  setup.plan = fpm::ChooseMiningPlan(shape, options.min_support,
                                     options.miner, options.kernel,
                                     options.num_threads);
  setup.miner = MakeMiner(setup.plan.miner);
  if (setup.miner == nullptr) {
    return Status::InvalidArgument("unknown miner kind");
  }
  return setup;
}

MinerOptions MinerOptionsFor(const ExplorerOptions& options,
                             const fpm::MiningPlan& plan) {
  MinerOptions mopts;
  mopts.min_support = options.min_support;
  mopts.max_length = options.max_length;
  mopts.num_threads = plan.num_threads;
  mopts.kernel = plan.kernel;
  return mopts;
}

Result<PatternTable> DivergenceExplorer::Explore(
    const EncodedDataset& dataset, const std::vector<int>& predictions,
    const std::vector<int>& truths, Metric metric) const {
  if (predictions.size() != dataset.num_rows) {
    return Status::InvalidArgument(
        "predictions length " + std::to_string(predictions.size()) +
        " != dataset rows " + std::to_string(dataset.num_rows));
  }
  if (truths.size() != dataset.num_rows) {
    return Status::InvalidArgument(
        "truths length " + std::to_string(truths.size()) +
        " != dataset rows " + std::to_string(dataset.num_rows));
  }
  DIVEXP_ASSIGN_OR_RETURN(std::vector<Outcome> outcomes,
                          ComputeOutcomes(metric, predictions, truths));
  return ExploreOutcomes(dataset, std::move(outcomes));
}

Result<PatternTable> DivergenceExplorer::ExploreOutcomes(
    const EncodedDataset& dataset, std::vector<Outcome> outcomes) const {
  DIVEXP_RETURN_NOT_OK(ValidateExplorerOptions(options_));
  if (outcomes.size() != dataset.num_rows) {
    return Status::InvalidArgument(
        "outcomes length " + std::to_string(outcomes.size()) +
        " != dataset rows " + std::to_string(dataset.num_rows));
  }
  if (dataset.num_rows == 0) {
    return Status::InvalidArgument("dataset has no rows");
  }
  obs::ScopedSpan explore_span("explore");
  obs::StageCollector stages;

  TransactionDatabase db;
  {
    obs::StageTimer timer(&stages, obs::kStageTransactions);
    obs::ScopedSpan span(obs::kStageTransactions);
    DIVEXP_ASSIGN_OR_RETURN(
        db, TransactionDatabase::Create(dataset, std::move(outcomes)));
    timer.AddItems(dataset.num_rows);
    timer.SetPeakBytes(db.MemoryBytes());
  }

  // Resolve the adaptive plan (miner, kernel table, threads) once per
  // run from the dataset shape; escalation attempts reuse it so the
  // whole run is one consistent configuration.
  DIVEXP_ASSIGN_OR_RETURN(MiningSetup setup,
                          ResolveMining(dataset, options_));
  const fpm::MiningPlan& plan = setup.plan;
  std::unique_ptr<FrequentPatternMiner> miner = std::move(setup.miner);

  // Crash recovery: one Checkpointer spans all escalation attempts. It
  // is keyed to the exact dataset via a fingerprint so a snapshot can
  // never restore onto different data.
  std::unique_ptr<recovery::Checkpointer> checkpointer;
  uint64_t fingerprint = 0;
  if (!options_.checkpoint_dir.empty()) {
    recovery::CheckpointerOptions copts;
    copts.dir = options_.checkpoint_dir;
    copts.every_ms = options_.checkpoint_every_ms;
    copts.resume = options_.resume;
    DIVEXP_ASSIGN_OR_RETURN(checkpointer,
                            recovery::Checkpointer::Create(copts));
    fingerprint = recovery::DatasetFingerprint(db);
  }
  const uint64_t faults0 =
      recovery::FailPointRegistry::Default().faults_injected();
  bool resumed_any = false;

  // One guard governs the whole run (all escalation attempts). An
  // external guard, if provided, takes precedence so callers can cancel
  // from another thread; otherwise one is built from options_.limits.
  // With no limits and no external guard the miners skip all polling.
  RunGuard local_guard(options_.limits);
  RunGuard* guard = options_.guard != nullptr ? options_.guard
                    : options_.limits.unlimited() ? nullptr
                                                  : &local_guard;

  stats_ = ExplorerRunStats{};
  stats_.miner = MinerKindName(plan.miner);
  stats_.kernel = plan.ops->name;
  stats_.dispatch_rationale = plan.rationale;
  obs::MetricsRegistry::Default()
      .GetCounter(std::string("fpm.kernel.dispatch.") + plan.ops->name)
      ->Add(1);
  timings_ = ExplorerTimings{};
  Stopwatch total;

  double support = options_.min_support;
  for (size_t attempt = 0;; ++attempt) {
    if (attempt > 0 && guard != nullptr) guard->Reset();

    MinerOptions mopts = MinerOptionsFor(options_, plan);
    mopts.min_support = support;
    mopts.guard = guard;
    mopts.stages = &stages;
    if (checkpointer != nullptr) {
      // Strict on the first attempt of an explicit --resume: a snapshot
      // that cannot apply is an error, not a silent remine.
      DIVEXP_ASSIGN_OR_RETURN(
          const bool restored,
          checkpointer->BeginAttempt(fingerprint, plan.miner, support,
                                     options_.max_length,
                                     options_.resume && attempt == 0));
      resumed_any = resumed_any || restored;
      checkpointer->AttachGuard(guard);
      mopts.checkpoint = checkpointer.get();
    }

    Stopwatch sw;
    DIVEXP_FAILPOINT_STATUS("core.explore.mine");
    // Injected faults may surface as exceptions from any seam the
    // miners do not themselves catch; contain them to this attempt.
    Result<PatternBuffer> mine_result = [&] {
      try {
        return miner->MineBuffer(db, mopts);
      } catch (const std::exception& e) {
        return Result<PatternBuffer>(Status::Internal(
            std::string("mining failed: ") + e.what()));
      }
    }();
    DIVEXP_RETURN_NOT_OK(mine_result.status());
    // In emission order; Create puts the rows in canonical order, so
    // the table does not depend on the miner's traversal order (or on
    // checkpoint/resume and shard-merge history).
    PatternBuffer mined = std::move(mine_result).value();
    timings_.mining_seconds = sw.Seconds();

    if (guard != nullptr && guard->stopped() &&
        options_.on_limit == LimitAction::kFail) {
      return guard->ToStatus();
    }

    sw.Restart();
    DIVEXP_FAILPOINT_STATUS("core.explore.divergence");
    const size_t mined_count = mined.size();
    const uint64_t div_checks0 =
        guard != nullptr ? guard->check_count() : 0;
    obs::StageTimer div_timer(&stages, obs::kStageDivergence);
    obs::ScopedSpan div_span(obs::kStageDivergence);
    PatternTableOptions topts;
    topts.num_threads = options_.num_threads;
    topts.stages = &stages;
    Result<PatternTable> table =
        PatternTable::Create(std::move(mined), dataset.catalog,
                             dataset.num_rows, guard, topts);
    div_timer.AddItems(mined_count);
    if (guard != nullptr) {
      div_timer.AddGuardChecks(guard->check_count() - div_checks0);
    }
    div_timer.Finish();
    div_span.End();
    timings_.divergence_seconds = sw.Seconds();
    if (!table.ok()) return table;

    obs::MetricsRegistry& reg = obs::MetricsRegistry::Default();
    reg.GetCounter("explore.attempts")->Add(1);
    reg.GetHistogram("explore.mining_ms")
        ->Record(static_cast<uint64_t>(timings_.mining_seconds * 1e3));
    reg.GetHistogram("explore.divergence_ms")
        ->Record(
            static_cast<uint64_t>(timings_.divergence_seconds * 1e3));

    stats_.patterns = table->size() > 0 ? table->size() - 1 : 0;
    stats_.effective_min_support = support;
    stats_.escalations = attempt;
    if (guard != nullptr) {
      stats_.peak_memory_bytes = guard->peak_memory_bytes();
    }
    stats_.elapsed_ms = total.Millis();
    stats_.stages = stages.stages();
    stats_.resumed_from_checkpoint = resumed_any;
    stats_.faults_injected =
        recovery::FailPointRegistry::Default().faults_injected() - faults0;
    auto sync_recovery_stats = [&]() {
      if (checkpointer == nullptr) return;
      stats_.checkpoints_written = checkpointer->checkpoints_written();
      stats_.checkpoint_bytes = checkpointer->checkpoint_bytes();
      stats_.checkpoint_write_error = checkpointer->last_write_error();
      stats_.checkpoint_write_failures = checkpointer->write_failures();
    };
    sync_recovery_stats();

    // Run-level metrics for the table-returning exits below; the
    // escalation `break` never reaches a return, so re-invoking this on
    // a later attempt overwrites nothing (counters only ever add).
    auto record_run = [&]() {
      reg.GetCounter("explore.runs")->Add(1);
      reg.GetCounter("explore.patterns")->Add(stats_.patterns);
      reg.GetGauge("explore.peak_memory_bytes")
          ->UpdateMax(static_cast<int64_t>(stats_.peak_memory_bytes));
    };

    const LimitBreach breach =
        guard != nullptr ? guard->breach() : LimitBreach::kNone;
    if (breach == LimitBreach::kNone) {
      record_run();
      return table;
    }
    // Cancellation never degrades to a partial result or a retry: the
    // caller asked for the run to stop, not for a smaller answer.
    if (breach == LimitBreach::kCancelled) return guard->ToStatus();

    switch (options_.on_limit) {
      case LimitAction::kFail:
        // Reached only when the breach happened in the post-pass.
        return guard->ToStatus();
      case LimitAction::kTruncate:
        stats_.truncated = true;
        stats_.reason = breach;
        // Capture the state the breach truncated, so a --resume can
        // pick the run back up (best-effort; the table still returns).
        if (checkpointer != nullptr) {
          // A failed flush is captured by last_write_error() below.
          Status ignored = checkpointer->Flush();  // best-effort: ^
          sync_recovery_stats();
        }
        record_run();
        return table;
      case LimitAction::kEscalate: {
        if (attempt >= options_.max_escalations || support >= 1.0) {
          stats_.truncated = true;
          stats_.reason = breach;
          if (checkpointer != nullptr) {
            // A failed flush is captured by last_write_error() below.
            Status ignored = checkpointer->Flush();  // best-effort: ^
            sync_recovery_stats();
          }
          record_run();
          return table;
        }
        support = std::min(1.0, support * options_.escalate_factor);
        break;
      }
    }
  }
}

}  // namespace divexp
