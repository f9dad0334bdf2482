#include "tools/cli_run.h"

#include <cstdlib>
#include <optional>
#include <string>
#include <vector>

#include "core/corrective.h"
#include "core/explorer.h"
#include "core/global_divergence.h"
#include "core/lattice.h"
#include "core/multi.h"
#include "core/pruning.h"
#include "core/report.h"
#include "core/shapley.h"
#include "core/summary.h"
#include "core/table_io.h"
#include "data/csv.h"
#include "data/discretize.h"
#include "data/encoder.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/stage.h"
#include "obs/trace.h"
#include "recovery/atomic_file.h"
#include "serve/artifact.h"
#include "shard/shard.h"
#include "shard/worker/coordinator.h"
#include "util/failpoint.h"
#include "util/stopwatch.h"
#include "util/string_util.h"

namespace divexp {
namespace cli {
namespace {

Result<std::vector<int>> ExtractLabels(const DataFrame& df,
                                       const std::string& column) {
  DIVEXP_ASSIGN_OR_RETURN(const Column* col, df.Find(column));
  std::vector<int> labels;
  labels.reserve(df.num_rows());
  for (size_t r = 0; r < col->size(); ++r) {
    if (col->IsMissing(r)) {
      return Status::InvalidArgument("missing label in column '" +
                                     column + "' row " +
                                     std::to_string(r));
    }
    double v = 0.0;
    switch (col->type()) {
      case ColumnType::kInt:
      case ColumnType::kDouble:
        v = col->Numeric(r);
        break;
      default:
        return Status::InvalidArgument("label column '" + column +
                                       "' must be numeric 0/1");
    }
    if (v != 0.0 && v != 1.0) {
      return Status::InvalidArgument("label column '" + column +
                                     "' must contain only 0/1");
    }
    labels.push_back(v == 1.0 ? 1 : 0);
  }
  return labels;
}

}  // namespace

Status Run(const CliOptions& opts, std::ostream& out, std::ostream& log) {
  // Fresh observability state per run: Run() is also driven from tests
  // and would otherwise accumulate spans/counters across invocations.
  const bool want_metrics = !opts.metrics_json_path.empty();
  if (want_metrics || opts.trace) {
    obs::TraceCollector::Default().Reset();
    obs::MetricsRegistry::Default().ResetAll();
  }
  if (opts.trace) obs::SetTracingEnabled(true);
  // Deterministic fault injection: arm the schedule for the duration of
  // this run only. A no-op build rejects a non-empty schedule so a
  // fault the operator asked for is never silently skipped.
  recovery::ScopedFailPoints failpoints;
  if (!opts.failpoints.empty()) {
#ifdef DIVEXP_FAILPOINTS_ENABLED
    DIVEXP_RETURN_NOT_OK(failpoints.Arm(opts.failpoints));
    log << "failpoints armed: " << opts.failpoints << "\n";
#else
    return Status::InvalidArgument(
        "--failpoints requires a build with DIVEXP_ENABLE_FAILPOINTS");
#endif
  }
  Stopwatch total;
  obs::StageCollector run_stages;

  DataFrame df;
  {
    obs::StageTimer timer(&run_stages, obs::kStageCsvLoad);
    DIVEXP_ASSIGN_OR_RETURN(df, ReadCsvFile(opts.csv_path));
    timer.AddItems(df.num_rows());
  }
  log << "loaded " << df.num_rows() << " rows x " << df.num_columns()
      << " columns from " << opts.csv_path << "\n";

  DIVEXP_ASSIGN_OR_RETURN(std::vector<int> preds,
                          ExtractLabels(df, opts.pred_column));
  DIVEXP_ASSIGN_OR_RETURN(std::vector<int> truths,
                          ExtractLabels(df, opts.truth_column));
  DIVEXP_RETURN_NOT_OK(df.DropColumn(opts.pred_column));
  DIVEXP_RETURN_NOT_OK(df.DropColumn(opts.truth_column));

  // Drop rows with missing attribute values (paper preprocessing),
  // keeping labels aligned.
  const std::vector<size_t> complete = df.CompleteRows();
  if (complete.size() != df.num_rows()) {
    log << "dropping " << (df.num_rows() - complete.size())
        << " rows with missing values\n";
    df = df.Take(complete);
    std::vector<int> p, t;
    for (size_t r : complete) {
      p.push_back(preds[r]);
      t.push_back(truths[r]);
    }
    preds = std::move(p);
    truths = std::move(t);
  }

  DataFrame binned;
  {
    obs::StageTimer timer(&run_stages, obs::kStageDiscretize);
    DIVEXP_ASSIGN_OR_RETURN(
        binned, DiscretizeAll(df, BinStrategy::kQuantile, opts.bins));
    timer.AddItems(binned.num_rows());
  }
  EncodedDataset encoded;
  {
    obs::StageTimer timer(&run_stages, obs::kStageEncode);
    DIVEXP_ASSIGN_OR_RETURN(encoded, EncodeDataFrame(binned));
    timer.AddItems(encoded.num_rows);
    timer.SetPeakBytes(encoded.cells.capacity() * sizeof(uint32_t));
  }

  ExplorerOptions eopts;
  eopts.min_support = opts.min_support;
  eopts.miner = opts.miner;
  eopts.kernel = opts.kernel;
  eopts.num_threads = opts.num_threads;
  eopts.limits.deadline_ms = opts.deadline_ms;
  eopts.limits.max_patterns = opts.max_patterns;
  eopts.limits.max_memory_mb = opts.max_memory_mb;
  eopts.on_limit = opts.on_limit;
  eopts.checkpoint_dir = opts.checkpoint_dir;
  eopts.checkpoint_every_ms = opts.checkpoint_every_ms;
  eopts.resume = opts.resume;
  ExplorerRunStats stats;
  std::optional<PatternTable> table_storage;
  if (opts.shards > 1) {
    shard::ShardedExplorerOptions sopts;
    sopts.base = eopts;
    sopts.num_shards = opts.shards;
    sopts.shard_parallelism = opts.shard_parallelism;
    sopts.on_shard_failure = opts.on_shard_failure;
    sopts.retry.max_retries = opts.shard_retries;
    if (opts.shard_isolation == shard::ShardIsolation::kProcess) {
      sopts.isolation = shard::ShardIsolation::kProcess;
      shard::worker::ProcessIsolationOptions popts;
      popts.heartbeat_timeout_ms = opts.shard_heartbeat_timeout_ms;
      popts.watchdog_ms = opts.shard_watchdog_ms;
      // Scratch for per-attempt specs and result artifacts: beside the
      // checkpoints when the run has them, else a fresh temp directory.
      if (!opts.checkpoint_dir.empty()) {
        popts.scratch_dir = opts.checkpoint_dir + "/worker-scratch";
      } else {
        std::string tmpl = "/tmp/divexp-shard-XXXXXX";
        if (::mkdtemp(tmpl.data()) == nullptr) {
          return Status::IOError(
              "cannot create a scratch directory for shard workers");
        }
        popts.scratch_dir = tmpl;
      }
      // The chaos schedule rides into every worker; ordinals there
      // count per worker process (see docs/process-isolation.md).
      popts.failpoints = opts.failpoints;
      sopts.attempt_runner =
          shard::worker::MakeProcessAttemptRunner(popts);
      log << "shard isolation: process (scratch in " << popts.scratch_dir
          << ")\n";
    }
    shard::ShardedExplorer sharded(sopts);
    DIVEXP_ASSIGN_OR_RETURN(
        PatternTable mined,
        sharded.Explore(encoded, preds, truths, opts.metric));
    table_storage.emplace(std::move(mined));
    stats = sharded.last_run_stats();
  } else {
    DivergenceExplorer explorer(eopts);
    DIVEXP_ASSIGN_OR_RETURN(
        PatternTable mined,
        explorer.Explore(encoded, preds, truths, opts.metric));
    table_storage.emplace(std::move(mined));
    stats = explorer.last_run_stats();
  }
  PatternTable& table = *table_storage;
  run_stages.MergeFrom(stats.stages);
  if (stats.truncated) {
    log << "WARNING: exploration truncated ("
        << LimitBreachName(stats.reason)
        << "); results below are a partial view\n";
  }
  if (stats.escalations > 0) {
    log << "min-support escalated " << stats.escalations << "x to "
        << stats.effective_min_support << " to fit the limits\n";
  }
  if (stats.resumed_from_checkpoint) {
    log << "resumed from checkpoint in " << opts.checkpoint_dir << "\n";
  }
  if (stats.checkpoints_written > 0) {
    log << "wrote " << stats.checkpoints_written << " checkpoint(s), "
        << stats.checkpoint_bytes << " bytes\n";
  }
  if (!stats.checkpoint_write_error.ok()) {
    // One aggregate warning for the run, not one line per failed
    // snapshot interval.
    log << "WARNING: " << stats.checkpoint_write_failures
        << " checkpoint write(s) failed; first error: "
        << stats.checkpoint_write_error.ToString()
        << "; --resume from " << opts.checkpoint_dir
        << " would restart from a stale snapshot\n";
  }
  if (stats.shards_failed > 0) {
    log << "WARNING: " << stats.shards_failed << " of " << stats.shards
        << " shard(s) failed after retries (policy: "
        << shard::ShardFailurePolicyName(
               opts.on_shard_failure)
        << ", " << stats.retries_total << " retries total)\n";
  }
  if (stats.rows_covered_fraction < 1.0) {
    log << "WARNING: divergence computed over "
        << (stats.rows_covered_fraction * 100.0) << "% of rows ("
        << stats.shards_dropped << " shard(s) dropped)\n";
  }

  const std::string label = std::string("d_") + MetricName(opts.metric);
  out << (table.size() - 1) << " frequent patterns (s="
      << stats.effective_min_support << "); " << MetricName(opts.metric)
      << "(D)=" << table.global_rate() << "\n\n";

  std::vector<size_t> shown;
  if (opts.epsilon >= 0.0) {
    obs::StageTimer timer(&run_stages, obs::kStagePrune);
    const std::vector<size_t> kept = RedundancyPrune(table, opts.epsilon);
    timer.AddItems(table.size());
    timer.Finish();
    std::vector<bool> mask(table.size(), false);
    for (size_t i : kept) mask[i] = true;
    obs::StageTimer rank_timer(&run_stages, obs::kStageRank);
    for (size_t i : table.RankByDivergence(true)) {
      if (!mask[i]) continue;
      shown.push_back(i);
      if (shown.size() >= opts.top_k) break;
    }
    rank_timer.AddItems(table.size());
    rank_timer.Finish();
    out << "top " << shown.size() << " divergent patterns after eps="
        << opts.epsilon << " pruning (" << kept.size() << " survive):\n";
  } else {
    obs::StageTimer timer(&run_stages, obs::kStageRank);
    shown = table.TopK(opts.top_k);
    timer.AddItems(table.size());
    timer.Finish();
    out << "top " << shown.size() << " divergent patterns:\n";
  }
  out << FormatPatternRows(table, shown, label) << "\n";

  if (opts.show_shapley && !shown.empty()) {
    obs::StageTimer timer(&run_stages, obs::kStageShapley);
    const ItemSpan best_items = table.row_items(shown[0]);
    const Itemset best(best_items.begin(), best_items.end());
    DIVEXP_ASSIGN_OR_RETURN(std::vector<ItemContribution> contributions,
                            ShapleyContributions(table, best));
    timer.AddItems(contributions.size());
    timer.Finish();
    out << "item contributions for [" << table.ItemsetName(best)
        << "]:\n"
        << FormatContributions(table, contributions) << "\n";
  }

  if (opts.show_global) {
    obs::StageTimer timer(&run_stages, obs::kStageGlobal);
    GlobalDivergenceOptions gopts;
    gopts.num_threads = opts.num_threads;
    const auto globals = ComputeGlobalItemDivergence(table, gopts);
    timer.AddItems(globals.size());
    timer.Finish();
    out << "global vs individual item divergence:\n"
        << FormatGlobalDivergence(table, globals, opts.top_k) << "\n";
  }

  if (opts.show_corrective) {
    obs::StageTimer timer(&run_stages, obs::kStageCorrective);
    CorrectiveOptions copts;
    copts.top_k = opts.top_k;
    const auto corrective = FindCorrectiveItems(table, copts);
    timer.AddItems(corrective.size());
    timer.Finish();
    out << "top corrective items:\n"
        << FormatCorrectiveItems(table, corrective, opts.top_k) << "\n";
  }

  if (opts.multi) {
    // At the run's settled support: MultiExplorer never escalates.
    ExplorerOptions multi_opts = eopts;
    multi_opts.min_support = stats.effective_min_support;
    MultiExplorer multi(multi_opts);
    DIVEXP_ASSIGN_OR_RETURN(MultiPatternTable mtable,
                            multi.Explore(encoded, preds, truths));
    out << "all metrics for the top patterns:\n";
    for (size_t i : shown) {
      const ItemSpan items = table.row_items(i);
      out << "  [" << ItemsetName(table.catalog(), items) << "]\n   ";
      for (Metric m : kAllMetrics) {
        DIVEXP_ASSIGN_OR_RETURN(double div, mtable.Divergence(m, items));
        out << " d_" << MetricName(m) << "=" << FormatDouble(div, 3);
      }
      out << "\n";
    }
    out << "\n";
  }

  if (!opts.export_path.empty()) {
    DIVEXP_RETURN_NOT_OK(WritePatternTableFile(table, opts.export_path));
    log << "pattern table written to " << opts.export_path << "\n";
  }

  if (!opts.artifact_path.empty()) {
    obs::StageTimer timer(&run_stages, obs::kStageArtifactWrite);
    uint64_t bytes = 0;
    DIVEXP_RETURN_NOT_OK(serve::WritePatternTableArtifact(
        opts.artifact_path, table, &bytes));
    timer.AddItems(bytes);
    timer.Finish();
    log << "serving artifact written to " << opts.artifact_path << " ("
        << bytes << " bytes)\n";
  }

  if (!opts.report_path.empty()) {
    AuditReportOptions ropts;
    ropts.explorer = eopts;
    ropts.top_k = opts.top_k;
    ropts.epsilon = opts.epsilon >= 0.0 ? opts.epsilon : 0.05;
    DIVEXP_ASSIGN_OR_RETURN(
        std::string report,
        GenerateAuditReport(encoded, preds, truths, ropts));
    DIVEXP_RETURN_NOT_OK(
        recovery::WriteFileAtomic(opts.report_path, report));
    log << "audit report written to " << opts.report_path << "\n";
  }

  if (!opts.lattice_pattern.empty()) {
    DIVEXP_ASSIGN_OR_RETURN(auto description,
                            ParsePattern(opts.lattice_pattern));
    DIVEXP_ASSIGN_OR_RETURN(Itemset target,
                            table.ParseItemset(description));
    DIVEXP_ASSIGN_OR_RETURN(Lattice lattice, BuildLattice(table, target));
    out << LatticeToDot(lattice, table);
  }

  if (opts.trace) {
    if (!stats.dispatch_rationale.empty()) {
      log << "\nmining plan: " << stats.miner << " / " << stats.kernel
          << " (" << stats.dispatch_rationale << ")\n";
    }
    log << "\nper-stage summary:\n"
        << obs::FormatStageTable(run_stages.stages());
    const std::vector<obs::SpanStats> spans =
        obs::TraceCollector::Default().Snapshot();
    if (!spans.empty()) {
      log << "\nspan tree:\n" << obs::FormatSpanTree(spans);
    }
  }
  if (want_metrics) {
    obs::MetricsReport report;
    report.run.tool = "divexp-cli";
    report.run.elapsed_ms = total.Millis();
    report.run.patterns = stats.patterns;
    report.run.peak_memory_bytes = stats.peak_memory_bytes;
    report.run.truncated = stats.truncated;
    report.run.breach = LimitBreachName(stats.reason);
    report.run.effective_min_support = stats.effective_min_support;
    report.run.escalations = stats.escalations;
    report.run.resumed_from_checkpoint = stats.resumed_from_checkpoint;
    report.run.checkpoints_written = stats.checkpoints_written;
    report.run.checkpoint_bytes = stats.checkpoint_bytes;
    report.run.faults_injected = stats.faults_injected;
    report.run.shards = stats.shards;
    report.run.shards_failed = stats.shards_failed;
    report.run.shards_dropped = stats.shards_dropped;
    report.run.shards_stale = stats.shards_stale;
    report.run.retries_total = stats.retries_total;
    report.run.rows_covered_fraction = stats.rows_covered_fraction;
    report.run.checkpoint_write_failures = stats.checkpoint_write_failures;
    report.run.miner = stats.miner;
    report.run.kernel = stats.kernel;
    report.run.shard_isolation = stats.shard_isolation;
    report.stages = run_stages.stages();
    report.metrics = obs::MetricsRegistry::Default().Snapshot();
    report.spans = obs::TraceCollector::Default().Snapshot();
    DIVEXP_RETURN_NOT_OK(recovery::WriteFileAtomic(
        opts.metrics_json_path, obs::MetricsReportToJson(report) + "\n"));
    log << "metrics written to " << opts.metrics_json_path << "\n";
  }
  return Status::OK();
}

}  // namespace cli
}  // namespace divexp
