// The benchmark's workloads and the audit they time: raw CSV file ->
// pattern table -> prune / Shapley / global / corrective -> serving
// artifact on disk, through the library's public entry points.
#ifndef DIVEXP_PERFBENCH_AUDIT_H_
#define DIVEXP_PERFBENCH_AUDIT_H_

#include <cstdint>
#include <map>
#include <optional>
#include <string>

#include "core/explorer.h"
#include "core/pattern.h"
#include "util/status.h"

namespace divexp {
namespace perfbench {

struct WorkloadSpec {
  std::string name;
  /// Dataset stand-in the set-up generates ("bank" or "adult").
  std::string dataset;
  double min_support = 0.05;
  size_t threads = 1;
  /// 1 = monolithic DivergenceExplorer; more = process-isolated
  /// ShardedExplorer.
  size_t shards = 1;
  size_t shard_parallelism = 1;
  /// serve-mix: the audit runs in set-up only and the measured run
  /// serves its artifact.
  bool serve = false;
};

/// nullptr for an unknown name.
const WorkloadSpec* FindWorkload(const std::string& name);

/// Generates the workload's dataset stand-in from `seed`, trains the
/// random-forest predictions, and writes the raw table with its
/// `prediction` and `label` columns as CSV.
Status WriteAuditCsv(const WorkloadSpec& spec, uint64_t seed,
                     const std::string& csv_path);

/// Files one audit reads and writes.
struct AuditPaths {
  std::string csv;
  std::string artifact;
  /// Shard workers' spec and result files.
  std::string scratch;
};

/// The benchmark-side spans of one traced audit: wall time of each
/// public call, keyed by per-layer metric name, plus the counts and
/// splits the calls return.
struct AuditTrace {
  std::map<std::string, double> ms;
  std::map<std::string, double> values;
  std::string miner;
  std::string kernel;
};

struct AuditOutput {
  uint64_t fingerprint = 0;
  uint64_t patterns = 0;
  /// Digest of the prune, Shapley, global and corrective results.
  uint64_t analysis_digest = 0;
  uint64_t artifact_bytes = 0;
  ExplorerRunStats stats;
  /// Worker processes spawned and reaped during the audit.
  uint64_t spawned = 0;
  uint64_t reaped = 0;
  /// Kept so the caller frees it after the clock stops.
  std::optional<PatternTable> table;
};

/// Runs one audit. With `trace` null it goes through the explorer
/// facades exactly as the CLI does; with a trace it calls the layers
/// one by one (the calls DivergenceExplorer makes) and times each.
Result<AuditOutput> RunAudit(const WorkloadSpec& spec,
                             const AuditPaths& paths, AuditTrace* trace);

}  // namespace perfbench
}  // namespace divexp

#endif  // DIVEXP_PERFBENCH_AUDIT_H_
