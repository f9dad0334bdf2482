#include "tools/cli_options.h"

#include <cstdlib>

#include "util/string_util.h"

namespace divexp {
namespace cli {
namespace {

Result<double> ParseDouble(const std::string& flag,
                           const std::string& value) {
  char* end = nullptr;
  const double v = std::strtod(value.c_str(), &end);
  if (end != value.c_str() + value.size() || value.empty()) {
    return Status::InvalidArgument("bad value for " + flag + ": '" +
                                   value + "'");
  }
  return v;
}

Result<long> ParseInt(const std::string& flag, const std::string& value) {
  char* end = nullptr;
  const long v = std::strtol(value.c_str(), &end, 10);
  if (end != value.c_str() + value.size() || value.empty()) {
    return Status::InvalidArgument("bad value for " + flag + ": '" +
                                   value + "'");
  }
  return v;
}

}  // namespace

Result<Metric> ParseMetric(const std::string& name) {
  for (const Metric metric : kAllMetrics) {
    if (name == MetricName(metric)) return metric;
  }
  return Status::InvalidArgument(
      "unknown metric '" + name +
      "' (use FPR, FNR, ER, ACC, TPR, TNR, PPV, FDR, FOR, NPV, POS, "
      "PPOS)");
}

Result<MinerKind> ParseMinerKind(const std::string& name) {
  for (MinerKind kind :
       {MinerKind::kFpGrowth, MinerKind::kApriori, MinerKind::kEclat,
        MinerKind::kAuto}) {
    if (name == MinerKindName(kind)) return kind;
  }
  return Status::InvalidArgument(
      "unknown miner '" + name +
      "' (use fpgrowth, apriori, eclat, auto)");
}

Result<fpm::KernelKind> ParseKernelKind(const std::string& name) {
  for (fpm::KernelKind kind :
       {fpm::KernelKind::kAuto, fpm::KernelKind::kScalar,
        fpm::KernelKind::kSimd}) {
    if (name == fpm::KernelKindName(kind)) return kind;
  }
  return Status::InvalidArgument("unknown kernel '" + name +
                                 "' (use auto, scalar, simd)");
}

Result<LimitAction> ParseLimitAction(const std::string& name) {
  for (LimitAction action : {LimitAction::kFail, LimitAction::kTruncate,
                             LimitAction::kEscalate}) {
    if (name == LimitActionName(action)) return action;
  }
  return Status::InvalidArgument(
      "unknown limit action '" + name +
      "' (use fail, truncate, escalate)");
}

Result<CliOptions> ParseCliOptions(const std::vector<std::string>& args) {
  CliOptions opts;
  // Accept --flag=value as well as --flag value: split at the first '='
  // of any token that starts with "--". Values containing '=' (e.g.
  // --lattice "a=v") arrive as their own tokens and are not split.
  std::vector<std::string> expanded;
  expanded.reserve(args.size());
  for (const std::string& arg : args) {
    size_t eq;
    if (arg.rfind("--", 0) == 0 &&
        (eq = arg.find('=')) != std::string::npos) {
      expanded.push_back(arg.substr(0, eq));
      expanded.push_back(arg.substr(eq + 1));
    } else {
      expanded.push_back(arg);
    }
  }
  for (size_t i = 0; i < expanded.size(); ++i) {
    const std::string& arg = expanded[i];
    auto next = [&]() -> Result<std::string> {
      if (i + 1 >= expanded.size()) {
        return Status::InvalidArgument("missing value for " + arg);
      }
      return expanded[++i];
    };
    if (arg == "--help" || arg == "-h") {
      opts.show_help = true;
    } else if (arg == "--csv") {
      DIVEXP_ASSIGN_OR_RETURN(opts.csv_path, next());
    } else if (arg == "--pred-col") {
      DIVEXP_ASSIGN_OR_RETURN(opts.pred_column, next());
    } else if (arg == "--truth-col") {
      DIVEXP_ASSIGN_OR_RETURN(opts.truth_column, next());
    } else if (arg == "--metric") {
      DIVEXP_ASSIGN_OR_RETURN(std::string name, next());
      DIVEXP_ASSIGN_OR_RETURN(opts.metric, ParseMetric(name));
    } else if (arg == "--support") {
      DIVEXP_ASSIGN_OR_RETURN(std::string v, next());
      DIVEXP_ASSIGN_OR_RETURN(opts.min_support, ParseDouble(arg, v));
      if (opts.min_support <= 0.0 || opts.min_support > 1.0) {
        return Status::InvalidArgument("--support must be in (0, 1]");
      }
    } else if (arg == "--bins") {
      DIVEXP_ASSIGN_OR_RETURN(std::string v, next());
      DIVEXP_ASSIGN_OR_RETURN(long bins, ParseInt(arg, v));
      if (bins < 2 || bins > 64) {
        return Status::InvalidArgument("--bins must be in [2, 64]");
      }
      opts.bins = static_cast<int>(bins);
    } else if (arg == "--top") {
      DIVEXP_ASSIGN_OR_RETURN(std::string v, next());
      DIVEXP_ASSIGN_OR_RETURN(long top, ParseInt(arg, v));
      if (top < 1) return Status::InvalidArgument("--top must be >= 1");
      opts.top_k = static_cast<size_t>(top);
    } else if (arg == "--epsilon") {
      DIVEXP_ASSIGN_OR_RETURN(std::string v, next());
      DIVEXP_ASSIGN_OR_RETURN(opts.epsilon, ParseDouble(arg, v));
      if (opts.epsilon < 0.0) {
        return Status::InvalidArgument("--epsilon must be >= 0");
      }
    } else if (arg == "--global") {
      opts.show_global = true;
    } else if (arg == "--corrective") {
      opts.show_corrective = true;
    } else if (arg == "--shapley") {
      opts.show_shapley = true;
    } else if (arg == "--lattice") {
      DIVEXP_ASSIGN_OR_RETURN(opts.lattice_pattern, next());
    } else if (arg == "--export") {
      DIVEXP_ASSIGN_OR_RETURN(opts.export_path, next());
    } else if (arg == "--save-artifact") {
      DIVEXP_ASSIGN_OR_RETURN(opts.artifact_path, next());
    } else if (arg == "--report") {
      DIVEXP_ASSIGN_OR_RETURN(opts.report_path, next());
    } else if (arg == "--multi") {
      opts.multi = true;
    } else if (arg == "--threads") {
      DIVEXP_ASSIGN_OR_RETURN(std::string v, next());
      DIVEXP_ASSIGN_OR_RETURN(long t, ParseInt(arg, v));
      if (t < 1 || t > 256) {
        return Status::InvalidArgument("--threads must be in [1, 256]");
      }
      opts.num_threads = static_cast<size_t>(t);
    } else if (arg == "--miner") {
      DIVEXP_ASSIGN_OR_RETURN(std::string name, next());
      DIVEXP_ASSIGN_OR_RETURN(opts.miner, ParseMinerKind(name));
    } else if (arg == "--kernel") {
      DIVEXP_ASSIGN_OR_RETURN(std::string name, next());
      DIVEXP_ASSIGN_OR_RETURN(opts.kernel, ParseKernelKind(name));
    } else if (arg == "--deadline-ms") {
      DIVEXP_ASSIGN_OR_RETURN(std::string v, next());
      DIVEXP_ASSIGN_OR_RETURN(long d, ParseInt(arg, v));
      if (d < 0) {
        return Status::InvalidArgument("--deadline-ms must be >= 0");
      }
      opts.deadline_ms = static_cast<int64_t>(d);
    } else if (arg == "--max-patterns") {
      DIVEXP_ASSIGN_OR_RETURN(std::string v, next());
      DIVEXP_ASSIGN_OR_RETURN(long p, ParseInt(arg, v));
      if (p < 0) {
        return Status::InvalidArgument("--max-patterns must be >= 0");
      }
      opts.max_patterns = static_cast<uint64_t>(p);
    } else if (arg == "--max-memory-mb") {
      DIVEXP_ASSIGN_OR_RETURN(std::string v, next());
      DIVEXP_ASSIGN_OR_RETURN(long m, ParseInt(arg, v));
      if (m < 0) {
        return Status::InvalidArgument("--max-memory-mb must be >= 0");
      }
      opts.max_memory_mb = static_cast<uint64_t>(m);
    } else if (arg == "--on-limit") {
      DIVEXP_ASSIGN_OR_RETURN(std::string name, next());
      DIVEXP_ASSIGN_OR_RETURN(opts.on_limit, ParseLimitAction(name));
    } else if (arg == "--metrics-json") {
      DIVEXP_ASSIGN_OR_RETURN(opts.metrics_json_path, next());
    } else if (arg == "--checkpoint-dir") {
      DIVEXP_ASSIGN_OR_RETURN(opts.checkpoint_dir, next());
    } else if (arg == "--checkpoint-every-ms") {
      DIVEXP_ASSIGN_OR_RETURN(std::string v, next());
      DIVEXP_ASSIGN_OR_RETURN(long ms, ParseInt(arg, v));
      if (ms < 0) {
        return Status::InvalidArgument(
            "--checkpoint-every-ms must be >= 0");
      }
      opts.checkpoint_every_ms = static_cast<uint64_t>(ms);
    } else if (arg == "--resume") {
      opts.resume = true;
    } else if (arg == "--shards") {
      DIVEXP_ASSIGN_OR_RETURN(std::string v, next());
      DIVEXP_ASSIGN_OR_RETURN(long k, ParseInt(arg, v));
      if (k < 1 || k > 4096) {
        return Status::InvalidArgument("--shards must be in [1, 4096]");
      }
      opts.shards = static_cast<size_t>(k);
    } else if (arg == "--shard-parallelism") {
      DIVEXP_ASSIGN_OR_RETURN(std::string v, next());
      DIVEXP_ASSIGN_OR_RETURN(long p, ParseInt(arg, v));
      if (p < 1 || p > 256) {
        return Status::InvalidArgument(
            "--shard-parallelism must be in [1, 256]");
      }
      opts.shard_parallelism = static_cast<size_t>(p);
    } else if (arg == "--shard-retries") {
      DIVEXP_ASSIGN_OR_RETURN(std::string v, next());
      DIVEXP_ASSIGN_OR_RETURN(long r, ParseInt(arg, v));
      if (r < 0 || r > 100) {
        return Status::InvalidArgument(
            "--shard-retries must be in [0, 100]");
      }
      opts.shard_retries = static_cast<size_t>(r);
    } else if (arg == "--on-shard-failure") {
      DIVEXP_ASSIGN_OR_RETURN(std::string name, next());
      DIVEXP_ASSIGN_OR_RETURN(opts.on_shard_failure,
                              shard::ParseShardFailurePolicy(name));
    } else if (arg == "--shard-isolation") {
      DIVEXP_ASSIGN_OR_RETURN(std::string name, next());
      DIVEXP_ASSIGN_OR_RETURN(opts.shard_isolation,
                              shard::ParseShardIsolation(name));
    } else if (arg == "--shard-heartbeat-timeout-ms") {
      DIVEXP_ASSIGN_OR_RETURN(std::string v, next());
      DIVEXP_ASSIGN_OR_RETURN(long ms, ParseInt(arg, v));
      if (ms < 1) {
        return Status::InvalidArgument(
            "--shard-heartbeat-timeout-ms must be >= 1");
      }
      opts.shard_heartbeat_timeout_ms = static_cast<uint64_t>(ms);
    } else if (arg == "--shard-watchdog-ms") {
      DIVEXP_ASSIGN_OR_RETURN(std::string v, next());
      DIVEXP_ASSIGN_OR_RETURN(long ms, ParseInt(arg, v));
      if (ms < 0) {
        return Status::InvalidArgument(
            "--shard-watchdog-ms must be >= 0");
      }
      opts.shard_watchdog_ms = static_cast<uint64_t>(ms);
    } else if (arg == "--failpoints") {
      DIVEXP_ASSIGN_OR_RETURN(opts.failpoints, next());
    } else if (arg == "--trace") {
      opts.trace = true;
    } else {
      return Status::InvalidArgument("unknown flag '" + arg + "'");
    }
  }
  if (!opts.show_help && opts.csv_path.empty()) {
    return Status::InvalidArgument("--csv is required");
  }
  if (opts.resume && opts.checkpoint_dir.empty()) {
    return Status::InvalidArgument("--resume requires --checkpoint-dir");
  }
  if (opts.checkpoint_every_ms > 0 && opts.checkpoint_dir.empty()) {
    return Status::InvalidArgument(
        "--checkpoint-every-ms requires --checkpoint-dir");
  }
  if (opts.shards == 1 &&
      opts.on_shard_failure != shard::ShardFailurePolicy::kFail) {
    return Status::InvalidArgument(
        "--on-shard-failure requires --shards > 1");
  }
  if (opts.shards == 1 &&
      opts.shard_isolation != shard::ShardIsolation::kThread) {
    return Status::InvalidArgument(
        "--shard-isolation=process requires --shards > 1");
  }
  return opts;
}

std::string UsageString() {
  return
      "divexp — pattern-divergence analysis of classifier behavior\n"
      "\n"
      "usage: divexp --csv FILE [options]\n"
      "\n"
      "required:\n"
      "  --csv FILE         input CSV (header row required)\n"
      "\n"
      "data options:\n"
      "  --pred-col NAME    0/1 prediction column  (default: prediction)\n"
      "  --truth-col NAME   0/1 ground-truth column (default: label)\n"
      "  --bins K           quantile bins for continuous attributes "
      "(default: 3)\n"
      "\n"
      "analysis options:\n"
      "  --metric M         FPR FNR ER ACC TPR TNR PPV FDR FOR NPV POS "
      "PPOS (default: FPR)\n"
      "  --support S        minimum support threshold (default: 0.05)\n"
      "  --top K            patterns to display (default: 10)\n"
      "  --epsilon E        redundancy-prune with threshold E\n"
      "  --shapley          item contributions for the top pattern\n"
      "  --global           global vs individual item divergence\n"
      "  --corrective       top corrective items\n"
      "  --lattice \"a=v,b=w\"  render the lattice below a pattern "
      "(Graphviz DOT)\n"
      "  --multi            print every metric for the top patterns\n"
      "  --export FILE      write the full pattern table as CSV\n"
      "  --save-artifact FILE  write the table as a zero-copy serving\n"
      "                     artifact for `divexp serve`\n"
      "  --miner NAME       fpgrowth (default), apriori, eclat, or\n"
      "                     auto (pick by dataset shape)\n"
      "  --kernel NAME      hot-loop implementation: auto (default,\n"
      "                     best SIMD the CPU supports), scalar, simd;\n"
      "                     all choices give bit-identical results\n"
      "  --threads N        worker threads for mining (default: 1)\n"
      "  --report FILE      write a composed markdown audit report\n"
      "\n"
      "observability:\n"
      "  --metrics-json FILE  write per-stage metrics + counters as "
      "JSON\n"
      "  --trace            record tracing spans; print the stage table\n"
      "                     and span tree to stderr\n"
      "\n"
      "crash recovery:\n"
      "  --checkpoint-dir DIR    persist completed mining units to\n"
      "                     DIR/mining.ckpt (CRC-checked, atomically\n"
      "                     replaced)\n"
      "  --checkpoint-every-ms MS  minimum gap between snapshots\n"
      "                     (default 0 = snapshot every unit)\n"
      "  --resume           restore completed units from an existing\n"
      "                     snapshot before mining\n"
      "  --failpoints SPEC  deterministic fault injection, e.g.\n"
      "                     \"io.atomic.mid_write@2:abort\"; actions:\n"
      "                     return-error, throw, abort, delay-<ms>,\n"
      "                     segv, kill\n"
      "\n"
      "sharded exploration:\n"
      "  --shards K         split the dataset into K horizontal shards,\n"
      "                     mine each as an isolated, retried work unit\n"
      "                     and merge exactly (default 1 = monolithic)\n"
      "  --shard-parallelism N  shards mined concurrently (default: 1)\n"
      "  --shard-retries R  retries per shard before degrading\n"
      "                     (default: 3)\n"
      "  --on-shard-failure MODE  fail (default), drop, or stale\n"
      "                     fail: error out with the shard's status\n"
      "                     drop: exclude the shard's rows; coverage\n"
      "                     is reported in rows_covered_fraction\n"
      "                     stale: keep the rows, source the shard's\n"
      "                     candidates from its last checkpoint\n"
      "  --shard-isolation MODE  thread (default) or process: run each\n"
      "                     shard attempt in a supervised, fork/exec'd\n"
      "                     `divexp shard-worker` subprocess so a crash\n"
      "                     or OOM-kill in one shard is an ordinary\n"
      "                     retryable failure (results bit-identical)\n"
      "  --shard-heartbeat-timeout-ms MS  kill a process-isolated\n"
      "                     worker silent this long (default: 10000)\n"
      "  --shard-watchdog-ms MS  wall-clock cap per process-isolated\n"
      "                     attempt (default 0 = none)\n"
      "\n"
      "resource limits (0 = unlimited):\n"
      "  --deadline-ms MS   wall-clock budget for the exploration run\n"
      "  --max-patterns N   stop after emitting N frequent patterns\n"
      "  --max-memory-mb M  approximate working-memory budget\n"
      "  --on-limit MODE    fail (default), truncate, or escalate\n"
      "                     fail: return an error when a limit trips\n"
      "                     truncate: return the partial pattern table\n"
      "                     escalate: retry at higher min-support\n";
}

Result<std::vector<std::pair<std::string, std::string>>> ParsePattern(
    const std::string& text) {
  std::vector<std::pair<std::string, std::string>> out;
  for (const std::string& part : Split(text, ',')) {
    const std::string trimmed = Trim(part);
    const size_t eq = trimmed.find('=');
    if (eq == std::string::npos || eq == 0 ||
        eq + 1 >= trimmed.size()) {
      return Status::InvalidArgument("bad pattern item '" + trimmed +
                                     "' (want attr=value)");
    }
    out.emplace_back(Trim(trimmed.substr(0, eq)),
                     Trim(trimmed.substr(eq + 1)));
  }
  if (out.empty()) {
    return Status::InvalidArgument("empty pattern");
  }
  return out;
}

}  // namespace cli
}  // namespace divexp
