#include "audit.h"

#include <utility>
#include <vector>

#include "core/corrective.h"
#include "core/global_divergence.h"
#include "core/outcome.h"
#include "core/pruning.h"
#include "core/shapley.h"
#include "data/csv.h"
#include "data/discretize.h"
#include "data/encoder.h"
#include "datasets/datasets.h"
#include "fpm/dispatch.h"
#include "fpm/miner.h"
#include "fpm/transactions.h"
#include "measure.h"
#include "obs/metrics.h"
#include "obs/stage.h"
#include "serve/artifact.h"
#include "shard/shard.h"
#include "shard/worker/coordinator.h"

namespace divexp {
namespace perfbench {
namespace {

// The CLI's defaults for everything the workloads do not pin down.
constexpr Metric kMetric = Metric::kFalsePositiveRate;
constexpr int kBins = 3;
constexpr double kEpsilon = 0.05;
constexpr size_t kTopK = 10;

const WorkloadSpec kWorkloads[] = {
    {"audit-wide", "bank", 0.02, 1, 1, 1, false},
    {"audit-tall", "adult", 0.01, 1, 1, 1, false},
    {"audit-sharded", "adult", 0.05, 2, 4, 2, false},
    {"serve-mix", "bank", 0.02, 1, 1, 1, true},
};

// Runs `call` and, when tracing, adds its wall time to trace->ms[name].
template <typename F>
auto Timed(AuditTrace* trace, const char* name, F&& call) {
  if (trace == nullptr) return call();
  const Clock::time_point start = Clock::now();
  auto result = call();
  trace->ms[name] += MillisSince(start);
  return result;
}

// The CLI's label extraction (tools/cli_run.cc): a numeric 0/1 column.
Result<std::vector<int>> ExtractLabels(const DataFrame& df,
                                       const std::string& column) {
  DIVEXP_ASSIGN_OR_RETURN(const Column* col, df.Find(column));
  if (col->type() != ColumnType::kInt && col->type() != ColumnType::kDouble) {
    return Status::InvalidArgument("label column '" + column +
                                   "' must be numeric 0/1");
  }
  std::vector<int> labels;
  labels.reserve(col->size());
  for (size_t r = 0; r < col->size(); ++r) {
    const double v = col->IsMissing(r) ? -1.0 : col->Numeric(r);
    if (v != 0.0 && v != 1.0) {
      return Status::InvalidArgument("column '" + column +
                                     "' holds a value other than 0/1");
    }
    labels.push_back(v == 1.0 ? 1 : 0);
  }
  return labels;
}

const obs::StageStats* FindStage(const std::vector<obs::StageStats>& stages,
                                 const char* name) {
  for (const obs::StageStats& s : stages) {
    if (s.name == name) return &s;
  }
  return nullptr;
}

double StageMs(const std::vector<obs::StageStats>& stages, const char* name) {
  const obs::StageStats* s = FindStage(stages, name);
  return s != nullptr ? s->wall_ms : 0.0;
}

uint64_t CounterValue(const char* name) {
  return obs::MetricsRegistry::Default().GetCounter(name)->Value();
}

// Explore's mining and table build, one public call at a time, so each
// can be timed: the same calls, options and order as
// DivergenceExplorer::ExploreOutcomes on an ungoverned run.
Result<PatternTable> TracedExplore(const ExplorerOptions& eopts,
                                   const EncodedDataset& encoded,
                                   const std::vector<int>& preds,
                                   const std::vector<int>& truths,
                                   AuditTrace* trace) {
  DIVEXP_ASSIGN_OR_RETURN(std::vector<Outcome> outcomes,
                          ComputeOutcomes(kMetric, preds, truths));
  DIVEXP_ASSIGN_OR_RETURN(
      TransactionDatabase db,
      Timed(trace, "fpm.transactions_ms", [&] {
        return TransactionDatabase::Create(encoded, std::move(outcomes));
      }));
  fpm::DatasetShape shape;
  shape.rows = db.num_rows();
  shape.attributes = db.num_attributes();
  shape.items = db.num_items();
  const fpm::MiningPlan plan =
      fpm::ChooseMiningPlan(shape, eopts.min_support, eopts.miner,
                            eopts.kernel, eopts.num_threads);
  trace->miner = MinerKindName(plan.miner);
  trace->kernel = plan.ops->name;

  obs::StageCollector stages;
  MinerOptions mopts;
  mopts.min_support = eopts.min_support;
  mopts.max_length = eopts.max_length;
  mopts.num_threads = plan.num_threads;
  mopts.stages = &stages;
  mopts.kernel = plan.kernel;
  mopts.use_arena = eopts.use_arena;
  DIVEXP_ASSIGN_OR_RETURN(std::vector<MinedPattern> mined,
                          Timed(trace, "fpm.mine_ms", [&] {
                            return MakeMiner(plan.miner)->Mine(db, mopts);
                          }));
  Timed(trace, "fpm.sort_ms", [&] {
    SortPatterns(&mined);
    return 0;
  });
  const double mined_count = static_cast<double>(mined.size());

  PatternTableOptions topts;
  topts.num_threads = eopts.num_threads;
  topts.stages = &stages;
  DIVEXP_ASSIGN_OR_RETURN(
      PatternTable table, Timed(trace, "core.table_ms", [&] {
        return PatternTable::Create(std::move(mined), encoded.catalog,
                                    encoded.num_rows, nullptr, topts);
      }));

  const obs::StageStats* build = FindStage(stages.stages(), obs::kStageMineBuild);
  trace->values["fpm.build_ms"] = build != nullptr ? build->wall_ms : 0.0;
  trace->values["fpm.build_peak_mb"] =
      build != nullptr ? static_cast<double>(build->peak_bytes) / (1 << 20)
                       : 0.0;
  trace->values["fpm.grow_ms"] = StageMs(stages.stages(), obs::kStageMineGrow);
  trace->values["fpm.patterns_per_s"] =
      (mined_count - 1.0) / (trace->ms["fpm.mine_ms"] / 1000.0);
  trace->values["core.post_index_ms"] =
      StageMs(stages.stages(), obs::kStagePostIndex);
  return table;
}

// Splits a sharded Explore call by the stage records it returns.
void RecordShardStages(const ExplorerRunStats& stats, AuditTrace* trace) {
  const std::vector<obs::StageStats>& stages = stats.stages;
  const double verify = StageMs(stages, obs::kStageShardVerify);
  trace->values["shard.mine_ms"] = StageMs(stages, obs::kStageShardMine);
  trace->values["shard.verify_ms"] = verify;
  // shard.merge encloses the verify recount; report its own part.
  trace->values["shard.merge_ms"] =
      StageMs(stages, obs::kStageShardMerge) - verify;
  trace->values["core.table_ms"] = StageMs(stages, obs::kStageDivergence);
  trace->values["core.post_index_ms"] =
      StageMs(stages, obs::kStagePostIndex);
  const obs::StageStats* v = FindStage(stages, obs::kStageShardVerify);
  const double candidates = v != nullptr ? static_cast<double>(v->items) : 0.0;
  trace->values["shard.candidates"] = candidates;
  trace->values["shard.candidate_yield"] =
      candidates > 0 ? static_cast<double>(stats.patterns) / candidates : 0.0;
  trace->values["shard.retries"] = static_cast<double>(stats.retries_total);
  trace->miner = stats.miner;
  trace->kernel = stats.kernel;
}

}  // namespace

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec& spec : kWorkloads) {
    if (spec.name == name) return &spec;
  }
  return nullptr;
}

Status WriteAuditCsv(const WorkloadSpec& spec, uint64_t seed,
                     const std::string& csv_path) {
  SizeOptions sopts;
  sopts.seed = seed;
  BenchmarkDataset ds;
  if (spec.dataset == "bank") {
    DIVEXP_ASSIGN_OR_RETURN(ds, MakeBank(sopts));
  } else if (spec.dataset == "adult") {
    DIVEXP_ASSIGN_OR_RETURN(ds, MakeAdult(sopts));
  } else {
    return Status::InvalidArgument("unknown dataset " + spec.dataset);
  }
  ForestOptions fopts;
  fopts.seed = seed;
  DIVEXP_RETURN_NOT_OK(EnsurePredictions(&ds, fopts));
  DataFrame out = ds.raw;
  std::vector<int64_t> preds(ds.predictions.begin(), ds.predictions.end());
  std::vector<int64_t> truth(ds.truth.begin(), ds.truth.end());
  DIVEXP_RETURN_NOT_OK(
      out.AddColumn(Column::MakeInt("prediction", std::move(preds))));
  DIVEXP_RETURN_NOT_OK(
      out.AddColumn(Column::MakeInt("label", std::move(truth))));
  return WriteCsvFile(out, csv_path);
}

Result<AuditOutput> RunAudit(const WorkloadSpec& spec,
                             const AuditPaths& paths, AuditTrace* trace) {
  DIVEXP_ASSIGN_OR_RETURN(DataFrame df, Timed(trace, "data.csv_ms", [&] {
                            return ReadCsvFile(paths.csv);
                          }));
  DIVEXP_ASSIGN_OR_RETURN(std::vector<int> preds,
                          ExtractLabels(df, "prediction"));
  DIVEXP_ASSIGN_OR_RETURN(std::vector<int> truths, ExtractLabels(df, "label"));
  DIVEXP_RETURN_NOT_OK(df.DropColumn("prediction"));
  DIVEXP_RETURN_NOT_OK(df.DropColumn("label"));
  const std::vector<size_t> complete = df.CompleteRows();
  if (complete.size() != df.num_rows()) {
    df = df.Take(complete);
    std::vector<int> p, t;
    for (size_t r : complete) {
      p.push_back(preds[r]);
      t.push_back(truths[r]);
    }
    preds = std::move(p);
    truths = std::move(t);
  }
  DIVEXP_ASSIGN_OR_RETURN(DataFrame binned,
                          Timed(trace, "data.discretize_ms", [&] {
                            return DiscretizeAll(df, BinStrategy::kQuantile,
                                                 kBins);
                          }));
  DIVEXP_ASSIGN_OR_RETURN(
      EncodedDataset encoded,
      Timed(trace, "data.encode_ms", [&] { return EncodeDataFrame(binned); }));

  ExplorerOptions eopts;
  eopts.min_support = spec.min_support;
  eopts.miner = MinerKind::kFpGrowth;
  eopts.kernel = fpm::KernelKind::kAuto;
  eopts.num_threads = spec.threads;

  AuditOutput out;
  const uint64_t spawned0 = CounterValue("shard.proc.spawned");
  const uint64_t reaped0 = CounterValue("shard.proc.reaped");
  if (spec.shards > 1) {
    shard::ShardedExplorerOptions sopts;
    sopts.base = eopts;
    sopts.num_shards = spec.shards;
    sopts.shard_parallelism = spec.shard_parallelism;
    sopts.isolation = shard::ShardIsolation::kProcess;
    shard::worker::ProcessIsolationOptions popts;
    popts.scratch_dir = paths.scratch;
    sopts.attempt_runner = shard::worker::MakeProcessAttemptRunner(popts);
    shard::ShardedExplorer sharded(sopts);
    DIVEXP_ASSIGN_OR_RETURN(PatternTable table,
                            Timed(trace, "shard.explore_ms", [&] {
                              return sharded.Explore(encoded, preds, truths,
                                                     kMetric);
                            }));
    out.table.emplace(std::move(table));
    out.stats = sharded.last_run_stats();
    if (trace != nullptr) RecordShardStages(out.stats, trace);
  } else if (trace != nullptr) {
    DIVEXP_ASSIGN_OR_RETURN(
        PatternTable table,
        TracedExplore(eopts, encoded, preds, truths, trace));
    out.table.emplace(std::move(table));
  } else {
    DivergenceExplorer explorer(eopts);
    DIVEXP_ASSIGN_OR_RETURN(
        PatternTable table, explorer.Explore(encoded, preds, truths, kMetric));
    out.table.emplace(std::move(table));
    out.stats = explorer.last_run_stats();
  }
  out.spawned = CounterValue("shard.proc.spawned") - spawned0;
  out.reaped = CounterValue("shard.proc.reaped") - reaped0;
  const PatternTable& table = *out.table;

  // The CLI's --epsilon/--shapley/--global/--corrective analyses.
  Digest digest;
  const std::vector<size_t> kept = Timed(
      trace, "core.prune_ms", [&] { return RedundancyPrune(table, kEpsilon); });
  const std::vector<size_t> ranked = Timed(
      trace, "core.rank_ms", [&] { return table.RankByDivergence(true); });
  std::vector<bool> keep(table.size(), false);
  for (size_t i : kept) keep[i] = true;
  size_t top = 0;
  for (size_t i : ranked) {
    if (keep[i]) {
      top = i;
      break;
    }
  }
  digest.Add(static_cast<uint64_t>(kept.size()));
  digest.Add(static_cast<uint64_t>(top));
  DIVEXP_ASSIGN_OR_RETURN(
      std::vector<ItemContribution> contributions,
      Timed(trace, "core.shapley_ms", [&] {
        return ShapleyContributions(table, table.row(top).items);
      }));
  for (const ItemContribution& c : contributions) {
    digest.Add(static_cast<uint64_t>(c.item));
    digest.Add(c.contribution);
  }
  GlobalDivergenceOptions gopts;
  gopts.num_threads = spec.threads;
  const std::vector<GlobalItemDivergence> globals =
      Timed(trace, "core.global_ms",
            [&] { return ComputeGlobalItemDivergence(table, gopts); });
  for (const GlobalItemDivergence& g : globals) {
    digest.Add(static_cast<uint64_t>(g.item));
    digest.Add(g.global);
    digest.Add(g.individual);
  }
  CorrectiveOptions copts;
  copts.top_k = kTopK;
  const std::vector<CorrectiveItem> corrective = Timed(
      trace, "core.corrective_ms",
      [&] { return FindCorrectiveItems(table, copts); });
  for (const CorrectiveItem& c : corrective) {
    for (uint32_t item : c.base) digest.Add(static_cast<uint64_t>(item));
    digest.Add(static_cast<uint64_t>(c.item));
    digest.Add(c.factor);
  }
  DIVEXP_RETURN_NOT_OK(Timed(trace, "serve.write_ms", [&] {
    return serve::WritePatternTableArtifact(paths.artifact, table,
                                            &out.artifact_bytes);
  }));

  out.patterns = table.size() - 1;
  out.analysis_digest = digest.value();
  out.fingerprint = serve::TableFingerprint(table);
  return out;
}

}  // namespace perfbench
}  // namespace divexp
