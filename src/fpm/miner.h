// Common interface for outcome-augmented frequent-pattern miners
// (paper Alg. 1). Both implementations (Apriori, FP-growth) produce the
// same (itemset, (T, F, ⊥)) table; divergence is a post-pass in core/.
#ifndef DIVEXP_FPM_MINER_H_
#define DIVEXP_FPM_MINER_H_

#include <memory>
#include <string>
#include <vector>

#include "fpm/itemset.h"
#include "fpm/kernels/kernels.h"
#include "fpm/pattern_buffer.h"
#include "fpm/transactions.h"
#include "obs/stage.h"
#include "util/run_guard.h"
#include "util/status.h"

namespace divexp {

/// Checkpoint/resume hook for the miners (implemented by
/// recovery::Checkpointer; declared here so fpm stays decoupled from
/// the snapshot layer).
///
/// Every miner decomposes its run into ordered, independent *units*
/// whose outputs concatenate in unit order to the sequential result:
/// FP-growth units are top-level header positions, Eclat units are root
/// items, Apriori units are whole levels (1-based). With a sink
/// attached a miner (a) asks RestoredUnit() before mining each unit and
/// splices the restored output in place, and (b) reports each freshly
/// *completed* unit via UnitMined — a unit cut short by a guard stop or
/// an exception is never reported, so no snapshot ever contains a
/// partial unit.
///
/// BeginRun is called once from the coordinating thread before any
/// unit; RestoredUnit and UnitMined may be called concurrently from
/// worker threads for distinct units.
class MiningCheckpointSink {
 public:
  virtual ~MiningCheckpointSink() = default;

  /// Announces the unit count (0 when unknown up front, e.g. Apriori's
  /// level count).
  virtual void BeginRun(size_t num_units) = 0;

  /// Patterns of `unit` restored from a snapshot, or nullptr if the
  /// unit must be mined. The pointee stays valid until the next
  /// BeginRun.
  virtual const PatternBuffer* RestoredUnit(size_t unit) = 0;

  /// Reports a freshly completed unit. Persistence errors are absorbed
  /// by the sink (checkpointing is best-effort; mining continues).
  virtual void UnitMined(size_t unit, const PatternBuffer& patterns) = 0;

  /// Forces a snapshot of all completed units now (e.g. just before a
  /// limit breach truncates the run).
  virtual Status Flush() = 0;
};

/// Mining parameters. `min_support` is relative (paper's s); an itemset
/// is frequent iff |D(I)| >= ceil(min_support * |D|) and |D(I)| > 0.
struct MinerOptions {
  double min_support = 0.05;
  /// Maximum itemset length; 0 = unbounded (full exploration).
  size_t max_length = 0;
  /// Worker threads for the mining phase (FP-growth parallelizes over
  /// top-level conditional trees, Apriori over candidate evaluation;
  /// ECLAT over root items). 1 = sequential, the paper's configuration.
  size_t num_threads = 1;
  /// Optional cancellation token / resource governor (non-owning; must
  /// outlive the Mine call). When a limit trips, Mine returns OK with
  /// the patterns mined so far and guard->stopped() reports the breach;
  /// callers wanting fail-fast map guard->ToStatus() themselves (the
  /// DivergenceExplorer does this based on its on_limit mode).
  RunGuard* guard = nullptr;
  /// Optional per-stage accounting sink (non-owning; must outlive the
  /// Mine call). Miners record kStageMineBuild (structure construction:
  /// FP-tree / tid-lists / item bitmaps) and kStageMineGrow (the
  /// enumeration proper) into it. Only the coordinating thread touches
  /// the collector; workers report through aggregate numbers.
  obs::StageCollector* stages = nullptr;
  /// Optional checkpoint/resume sink (non-owning; must outlive the Mine
  /// call). When set, miners use their sharded unit decomposition even
  /// at num_threads == 1 so unit outputs are well defined; results are
  /// identical either way (the PR 1 sequential/parallel equivalence
  /// invariant).
  MiningCheckpointSink* checkpoint = nullptr;
  /// Kernel implementation for the hot loops (bitmap tallies, tid-list
  /// intersection). Resolved once per Mine call via
  /// fpm::ResolveKernel; every choice produces bit-identical output
  /// (enforced by tests/fpm/kernel_differential_test.cc), so this is a
  /// pure performance knob.
  fpm::KernelKind kernel = fpm::KernelKind::kAuto;
  /// Ignored: FP-growth has one array-backed tree layout. Kept only
  /// because the end-to-end benchmark sets it; deletion waits for the
  /// next benchmark-only change.
  bool use_arena = true;
};

/// Which mining algorithm backs a DivergenceExplorer run. kAuto defers
/// the choice to fpm::ChooseMiningPlan (dataset-shape heuristics); it
/// must be resolved to a concrete kind before MakeMiner.
enum class MinerKind {
  kFpGrowth,
  kApriori,
  kEclat,
  kAuto,
};

const char* MinerKindName(MinerKind kind);

/// Abstract outcome-augmented frequent-pattern miner.
class FrequentPatternMiner {
 public:
  virtual ~FrequentPatternMiner() = default;

  virtual std::string name() const = 0;

  /// Mines all frequent itemsets (including the empty itemset, first,
  /// which carries the whole-dataset tallies as its counts) into one
  /// buffer, in the miner's emission order.
  virtual Result<PatternBuffer> MineBuffer(
      const TransactionDatabase& db, const MinerOptions& options) const = 0;

  /// MineBuffer as one MinedPattern per row. Kept only for the
  /// end-to-end benchmark's traced path and tests; deletion waits for
  /// the next benchmark-only change.
  Result<std::vector<MinedPattern>> Mine(const TransactionDatabase& db,
                                         const MinerOptions& options) const;
};

/// Factory for the built-in miners.
std::unique_ptr<FrequentPatternMiner> MakeMiner(MinerKind kind);

/// Absolute support count implied by relative `min_support` over
/// `num_rows` (at least 1).
uint64_t MinCount(double min_support, size_t num_rows);

/// Sorts patterns into canonical order, (length, lexicographic items),
/// with CanonicalOrder. PatternTable::Create canonicalizes its input
/// itself; this is kept only for the end-to-end benchmark's traced path
/// and tests, and goes with the next benchmark-only change.
void SortPatterns(std::vector<MinedPattern>* patterns);

/// Per-shard mining control used inside the miner backends. Polls the
/// shared RunGuard's hard limits (cancel/deadline/memory) and enforces
/// the pattern budget *locally*: every shard may emit up to the full
/// budget, and the parallel merge truncates to the budget in sequential
/// emission order (EnforcePatternBudget), so budget-truncated output is
/// deterministic and identical between sequential and parallel runs.
class MineControl {
 public:
  explicit MineControl(RunGuard* guard)
      : guard_(guard),
        budget_(guard != nullptr ? guard->limits().max_patterns : 0) {}

  /// Call before emitting one non-empty pattern of `num_items` items
  /// into a PatternBuffer. Returns false when this shard must stop
  /// mining.
  bool Emit(size_t num_items) {
    return EmitBytes(PatternBuffer::RowBytes(num_items));
  }

  /// Call before emitting one output that holds `bytes`, for callers
  /// whose outputs are not PatternBuffer rows.
  bool EmitBytes(uint64_t bytes) {
    if (stop_) return false;
    if (guard_ == nullptr) {
      ++emitted_;
      return true;
    }
    if (budget_ != 0 && emitted_ >= budget_) {
      guard_->NotePatternBudgetBreach();
      stop_ = true;
      return false;
    }
    if (!guard_->Tick() || !guard_->AddMemory(bytes)) {
      stop_ = true;
      return false;
    }
    ++emitted_;
    return true;
  }

  /// Patterns emitted through this control so far (plain member read;
  /// each shard owns its control, so no synchronization is needed).
  uint64_t emitted() const { return emitted_; }

  /// Accounts `n` patterns restored from a checkpoint against the
  /// budget, so a resumed run truncates at the same total emission
  /// count as the uninterrupted one (used by Apriori, whose single
  /// control spans all levels).
  void RestorePriorEmissions(uint64_t n) { emitted_ += n; }

  /// Cheap hard-stop check for loop heads and recursion entries.
  bool stopped() {
    if (stop_) return true;
    if (guard_ != nullptr && guard_->hard_stopped()) stop_ = true;
    return stop_;
  }

  RunGuard* guard() const { return guard_; }

 private:
  RunGuard* guard_;
  uint64_t budget_ = 0;
  uint64_t emitted_ = 0;
  bool stop_ = false;
};

/// Truncates a merged pattern buffer (empty itemset at row 0) to
/// 1 + max_patterns rows, latching the budget breach on the guard.
/// No-op without a guard or budget. Used after parallel merges, where
/// each shard was individually capped at the full budget.
void EnforcePatternBudget(RunGuard* guard, PatternBuffer* patterns);

}  // namespace divexp

#endif  // DIVEXP_FPM_MINER_H_
