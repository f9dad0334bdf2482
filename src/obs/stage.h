// Per-stage accounting for one pipeline run.
//
// Every stage of the exploration pipeline (CSV load, discretization,
// encoding, transaction building, miner construction, mining proper,
// divergence post-pass, the analyses, slicefinder) reports one
// StageStats record: wall time, items processed, peak estimated bytes
// and RunGuard check count. The records are merged by stage name into
// a StageCollector, which the DivergenceExplorer folds into its
// ExplorerRunStats and the CLI renders as a summary table / JSON.
//
// Cost model: stage accounting is per-stage (two clock reads and one
// vector append per stage), not per-item, so it stays on permanently —
// unlike spans it has no runtime switch.
#ifndef DIVEXP_OBS_STAGE_H_
#define DIVEXP_OBS_STAGE_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace divexp {
namespace obs {

/// Canonical stage names (the JSON schema's `stages[].name` values).
/// Call sites use these constants so the schema can't drift silently.
inline constexpr const char* kStageCsvLoad = "load.csv";
inline constexpr const char* kStageDiscretize = "load.discretize";
inline constexpr const char* kStageEncode = "load.encode";
inline constexpr const char* kStageTransactions = "explore.transactions";
inline constexpr const char* kStageMineBuild = "mine.build";
inline constexpr const char* kStageMineGrow = "mine.grow";
inline constexpr const char* kStageDivergence = "explore.divergence";
/// Sub-interval of explore.divergence: PatternTable::Create's radix
/// permutation of the mined patterns into canonical order and the
/// gather into the table's columns.
inline constexpr const char* kStageOrder = "explore.order";
/// Sub-interval of explore.divergence: the pattern table's parallel
/// per-row stat pass and its lattice links, derived from the canonical
/// order by a prefix walk (see docs/performance.md).
inline constexpr const char* kStagePostIndex = "explore.post_index";
inline constexpr const char* kStageShapley = "analysis.shapley";
inline constexpr const char* kStageGlobal = "analysis.global";
inline constexpr const char* kStageCorrective = "analysis.corrective";
inline constexpr const char* kStagePrune = "analysis.prune";
inline constexpr const char* kStageSliceFinder = "slicefinder.search";
/// Sharded exploration (src/shard): per-shard mining attempts, the
/// SON phase-2 candidate recount, and the final table merge.
inline constexpr const char* kStageShardMine = "shard.mine";
inline constexpr const char* kStageShardVerify = "shard.verify";
inline constexpr const char* kStageShardMerge = "shard.merge";

/// One pipeline stage's resource report.
struct StageStats {
  std::string name;
  double wall_ms = 0.0;
  /// Stage-defined unit: rows scanned for loads/builds, patterns
  /// emitted for mining, table rows for the post-pass, ...
  uint64_t items = 0;
  /// Peak estimated bytes of the stage's dominant structures (0 when
  /// the stage tracks none).
  uint64_t peak_bytes = 0;
  /// RunGuard Tick()/AddMemory() polls observed during the stage.
  uint64_t guard_checks = 0;
  /// How many stage executions were merged into this record.
  uint64_t calls = 0;

  StageStats& Merge(const StageStats& other);
};

/// Accumulates StageStats records, merging by name and preserving
/// first-seen order. Thread-safe is NOT required here: stages are
/// recorded from the coordinating thread (workers report through their
/// stage's aggregate numbers).
class StageCollector {
 public:
  /// Merges one record (by name; first-seen order preserved).
  void Record(StageStats stats);

  /// Merges every stage of another collector (e.g. the explorer's
  /// stages into the CLI's run-level collector).
  void MergeFrom(const std::vector<StageStats>& stages);

  const std::vector<StageStats>& stages() const { return stages_; }
  bool empty() const { return stages_.empty(); }
  void Reset() { stages_.clear(); }

  /// Total wall-clock milliseconds across all stages, leaving out the
  /// sub-intervals (explore.order, explore.post_index, shard.verify)
  /// that their enclosing stage already counts.
  double TotalWallMs() const;

 private:
  std::vector<StageStats> stages_;
};

/// RAII stage timer: measures wall time from construction and records
/// into `collector` (if non-null) on destruction. Counters are added
/// by the instrumented code as it learns them.
class StageTimer {
 public:
  StageTimer(StageCollector* collector, const char* name)
      : collector_(collector), name_(name), start_(Clock::now()) {}
  ~StageTimer() { Finish(); }

  StageTimer(const StageTimer&) = delete;
  StageTimer& operator=(const StageTimer&) = delete;

  void AddItems(uint64_t n) { items_ += n; }
  void SetPeakBytes(uint64_t bytes) {
    if (bytes > peak_bytes_) peak_bytes_ = bytes;
  }
  void AddGuardChecks(uint64_t n) { guard_checks_ += n; }

  /// Records now instead of at scope exit (idempotent).
  void Finish();

 private:
  using Clock = std::chrono::steady_clock;

  StageCollector* collector_;
  const char* name_;
  Clock::time_point start_;
  uint64_t items_ = 0;
  uint64_t peak_bytes_ = 0;
  uint64_t guard_checks_ = 0;
  bool finished_ = false;
};

/// Fixed-width table of the collected stages for stderr (--trace and
/// the CLI's verbose output). Its total is TotalWallMs's: sub-intervals
/// are rows of their own but are not added again.
std::string FormatStageTable(const std::vector<StageStats>& stages);

}  // namespace obs
}  // namespace divexp

#endif  // DIVEXP_OBS_STAGE_H_
