#include "fpm/fpgrowth.h"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <exception>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "obs/stage.h"
#include "obs/trace.h"
#include "util/failpoint.h"
#include "util/parallel.h"

namespace divexp {
namespace {

constexpr uint32_t kNil = 0xFFFFFFFFu;

template <typename T>
uint64_t CapacityBytes(const std::vector<T>& v) {
  return v.capacity() * sizeof(T);
}

OutcomeCounts OutcomeDelta(Outcome outcome) {
  OutcomeCounts delta;
  switch (outcome) {
    case Outcome::kTrue:
      delta.t = 1;
      break;
    case Outcome::kFalse:
      delta.f = 1;
      break;
    case Outcome::kBottom:
      delta.bot = 1;
      break;
  }
  return delta;
}

// Links are indices into FpTree::nodes (kNil = none). `rank` is the
// node's item rank in its own tree; every ancestor has a smaller rank.
struct FpNode {
  uint32_t parent;
  uint32_t first_child;
  uint32_t next_sibling;
  uint32_t next_same;  // header chain: next node of the same rank
  uint32_t rank;
  OutcomeCounts counts;
};

// An array-backed FP-tree (Grahne & Zhu's FPgrowth* layout). Node 0 is
// the root. Items are ranked by (support desc, id asc); index r of the
// rank arrays holds rank r's item id, (T, F, ⊥) totals and header-chain
// head. Reset keeps every buffer's capacity, so a tree reused across
// projections stops allocating once it has grown.
struct FpTree {
  std::vector<FpNode> nodes;
  std::vector<uint32_t> item;
  std::vector<OutcomeCounts> totals;
  std::vector<uint32_t> head;

  /// Empties the tree for `num_ranks` ranks; the caller fills item and
  /// totals.
  void Reset(size_t num_ranks) {
    nodes.clear();
    nodes.push_back(FpNode{kNil, kNil, kNil, kNil, kNil, {}});
    item.resize(num_ranks);
    totals.resize(num_ranks);
    head.assign(num_ranks, kNil);
  }

  /// Adds `delta` along the path of `n` strictly increasing ranks,
  /// creating the nodes it lacks.
  void Insert(const uint32_t* ranks, size_t n, const OutcomeCounts& delta) {
    uint32_t node = 0;
    for (size_t i = 0; i < n; ++i) {
      const uint32_t r = ranks[i];
      uint32_t child = nodes[node].first_child;
      while (child != kNil && nodes[child].rank != r) {
        child = nodes[child].next_sibling;
      }
      if (child == kNil) {
        child = static_cast<uint32_t>(nodes.size());
        nodes.push_back(
            FpNode{node, kNil, nodes[node].first_child, head[r], r, {}});
        nodes[node].first_child = child;
        head[r] = child;
      }
      nodes[child].counts += delta;
      node = child;
    }
  }

  /// Heap bytes the tree holds (capacities, not sizes).
  uint64_t MemoryBytes() const {
    return CapacityBytes(nodes) + CapacityBytes(item) +
           CapacityBytes(totals) + CapacityBytes(head);
  }
};

// Grow-scratch bytes held by the growers alive at once, and their high
// water; shared by concurrent growers.
class ScratchMeter {
 public:
  void Add(uint64_t bytes) {
    const uint64_t live =
        live_.fetch_add(bytes, std::memory_order_relaxed) + bytes;
    uint64_t peak = peak_.load(std::memory_order_relaxed);
    while (live > peak &&
           !peak_.compare_exchange_weak(peak, live,
                                        std::memory_order_relaxed)) {
    }
  }
  void Sub(uint64_t bytes) {
    live_.fetch_sub(bytes, std::memory_order_relaxed);
  }
  uint64_t peak() const { return peak_.load(std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> live_{0};
  std::atomic<uint64_t> peak_{0};
};

// Depth-first FP-growth over one top-level tree, confined to one
// thread. Every recursion depth reuses its own conditional tree; the
// tally, rank-map and path buffers are shared by all depths because a
// projection is complete before the recursion descends. All buffers are
// charged to the meter and the guard as their capacity grows and
// released when the grower is destroyed.
class Grower {
 public:
  Grower(const FpTree& top, uint64_t min_count, size_t max_length,
         MineControl* ctrl, ScratchMeter* meter, PatternBuffer* out)
      : min_count_(min_count),
        max_length_(max_length),
        ctrl_(ctrl),
        meter_(meter),
        out_(out) {
    // A pattern holds distinct top-level items, so no recursion runs
    // deeper than the top-level rank count.
    const size_t k = top.item.size();
    const size_t depth = max_length == 0 ? k : std::min(k, max_length);
    trees_.resize(depth + 1);
    suffixes_.resize(depth + 1);
    tally_.reserve(k);
    cond_rank_.reserve(k);
    frequent_.reserve(k);
    cond_path_.reserve(k);
    Charge(CapacityBytes(tally_) + CapacityBytes(cond_rank_) +
           CapacityBytes(frequent_) + CapacityBytes(cond_path_));
  }

  ~Grower() {
    meter_->Sub(bytes_);
    if (ctrl_->guard() != nullptr) ctrl_->guard()->SubMemory(bytes_);
  }

  Grower(const Grower&) = delete;
  Grower& operator=(const Grower&) = delete;

  /// Mines every rank of `tree` (whose patterns extend the depth-long
  /// suffix), least frequent first — the classic order.
  void MineTree(const FpTree& tree, size_t depth) {
    for (size_t hi = tree.item.size(); hi-- > 0;) {
      if (ctrl_->stopped()) return;
      MineRank(tree, depth, hi);
    }
  }

  /// Emits suffix ∪ {rank hi's item}, then projects its conditional
  /// tree and mines that.
  void MineRank(const FpTree& tree, size_t depth, size_t hi) {
    if (!Emit(tree.item[hi], tree.totals[hi], depth) || !CanExtend(depth)) {
      return;
    }
    FpTree& cond = trees_[depth + 1];
    if (Project(tree, hi, &cond)) MineTree(cond, depth + 1);
  }

 private:
  bool CanExtend(size_t depth) const {
    return max_length_ == 0 || depth + 1 < max_length_;
  }

  // Records scratch growth (capacities never shrink, so growth is
  // never negative); false once the guard's memory limit trips.
  bool Charge(uint64_t bytes) {
    bytes_ += bytes;
    meter_->Add(bytes);
    return ctrl_->guard() == nullptr || bytes == 0 ||
           ctrl_->guard()->AddMemory(bytes);
  }

  // Emits the depth-long suffix plus `item` (kept sorted, so emitted
  // patterns need no sort) and leaves it as the suffix of depth + 1.
  // The fail point fires once per attempted non-empty pattern.
  bool Emit(uint32_t item, const OutcomeCounts& counts, size_t depth) {
    DIVEXP_FAILPOINT("fpm.fpgrowth.grow");
    if (!ctrl_->Emit(depth + 1)) return false;
    const Itemset& suffix = suffixes_[depth];
    Itemset& pattern = suffixes_[depth + 1];
    const auto split = std::upper_bound(suffix.begin(), suffix.end(), item);
    pattern.assign(suffix.begin(), split);
    pattern.push_back(item);
    pattern.insert(pattern.end(), split, suffix.end());
    out_->Append(pattern, counts);
    return true;
  }

  // Builds rank hi's conditional tree of `tree` into `cond`. False when
  // no item of the projection is frequent or the guard stops the run.
  bool Project(const FpTree& tree, size_t hi, FpTree* cond) {
    // Conditional totals, indexed by rank in `tree`: every ancestor of
    // a rank-hi node has a smaller rank, so hi slots cover them all and
    // each extension's exact support is known before any tree is built.
    // The same walk records each prefix path (leaf to root), so the
    // build below does not walk the tree again.
    const uint64_t paths_before =
        CapacityBytes(paths_) + CapacityBytes(path_ends_);
    tally_.assign(hi, OutcomeCounts{});
    paths_.clear();
    path_ends_.clear();
    for (uint32_t n = tree.head[hi]; n != kNil; n = tree.nodes[n].next_same) {
      const OutcomeCounts& counts = tree.nodes[n].counts;
      for (uint32_t p = tree.nodes[n].parent; p != 0;
           p = tree.nodes[p].parent) {
        tally_[tree.nodes[p].rank] += counts;
        paths_.push_back(tree.nodes[p].rank);
      }
      path_ends_.push_back(static_cast<uint32_t>(paths_.size()));
    }
    if (!Charge(CapacityBytes(paths_) + CapacityBytes(path_ends_) -
                paths_before)) {
      return false;
    }
    frequent_.clear();
    for (uint32_t r = 0; r < hi; ++r) {
      if (tally_[r].total() >= min_count_) frequent_.push_back(r);
    }
    if (frequent_.empty()) return false;
    std::sort(frequent_.begin(), frequent_.end(),
              [&](uint32_t a, uint32_t b) {
                if (tally_[a].total() != tally_[b].total()) {
                  return tally_[a].total() > tally_[b].total();
                }
                return tree.item[a] < tree.item[b];
              });

    const uint64_t tree_before = cond->MemoryBytes();
    cond->Reset(frequent_.size());
    cond_rank_.assign(hi, kNil);
    for (size_t i = 0; i < frequent_.size(); ++i) {
      const uint32_t r = frequent_[i];
      cond_rank_[r] = static_cast<uint32_t>(i);
      cond->item[i] = tree.item[r];
      cond->totals[i] = tally_[r];
    }
    // Each recorded path is read root first, so its conditional ranks
    // come out nearly ascending: the sort's cheap case.
    uint32_t begin = 0;
    size_t path = 0;
    for (uint32_t n = tree.head[hi]; n != kNil; n = tree.nodes[n].next_same) {
      const uint32_t end = path_ends_[path++];
      cond_path_.clear();
      for (uint32_t j = end; j-- > begin;) {
        const uint32_t r = cond_rank_[paths_[j]];
        if (r != kNil) cond_path_.push_back(r);
      }
      begin = end;
      std::sort(cond_path_.begin(), cond_path_.end());
      cond->Insert(cond_path_.data(), cond_path_.size(), tree.nodes[n].counts);
    }
    return Charge(cond->MemoryBytes() - tree_before);
  }

  const uint64_t min_count_;
  const size_t max_length_;
  MineControl* const ctrl_;
  ScratchMeter* const meter_;
  PatternBuffer* const out_;
  uint64_t bytes_ = 0;
  // trees_[d] is the conditional tree at depth d (trees_[0] unused);
  // suffixes_[d] is the sorted d-item suffix its patterns extend.
  std::vector<FpTree> trees_;
  std::vector<Itemset> suffixes_;
  std::vector<OutcomeCounts> tally_;
  std::vector<uint32_t> cond_rank_;
  std::vector<uint32_t> frequent_;
  std::vector<uint32_t> cond_path_;
  // Prefix paths recorded by the tally walk: ranks leaf to root, and
  // each path's end offset.
  std::vector<uint32_t> paths_;
  std::vector<uint32_t> path_ends_;
};

}  // namespace

Result<PatternBuffer> FpGrowthMiner::MineBuffer(
    const TransactionDatabase& db, const MinerOptions& options) const {
  if (options.min_support <= 0.0 || options.min_support > 1.0) {
    return Status::InvalidArgument("min_support must be in (0, 1]");
  }
  const size_t n = db.num_rows();
  const uint64_t min_count = MinCount(options.min_support, n);
  RunGuard* guard = options.guard;

  PatternBuffer out;
  out.Append(ItemSpan(), db.totals());
  if (n == 0) return out;

  // Stage accounting: build covers both data passes (tallies + tree
  // insertion), grow covers the enumeration. Truncated runs record
  // whatever the timers saw so far (the RAII destructors fire on every
  // return path).
  FpTree tree;
  obs::StageTimer build_timer(options.stages, obs::kStageMineBuild);
  obs::ScopedSpan build_span(obs::kStageMineBuild);
  const uint64_t build_checks0 =
      guard != nullptr ? guard->check_count() : 0;
  auto close_build = [&]() {
    build_timer.SetPeakBytes(tree.MemoryBytes());
    if (guard != nullptr) {
      build_timer.AddGuardChecks(guard->check_count() - build_checks0);
    }
    build_timer.Finish();
    build_span.End();
  };

  // Pass 1: global item tallies.
  std::vector<OutcomeCounts> item_totals(db.num_items());
  for (size_t r = 0; r < n; ++r) {
    const OutcomeCounts delta = OutcomeDelta(db.outcome(r));
    const uint32_t* row = db.row(r);
    for (size_t a = 0; a < db.num_attributes(); ++a) {
      item_totals[row[a]] += delta;
    }
  }
  build_timer.AddItems(n);
  std::vector<uint32_t> frequent;
  for (uint32_t id = 0; id < db.num_items(); ++id) {
    if (item_totals[id].total() >= min_count) frequent.push_back(id);
  }
  if (frequent.empty()) {
    close_build();
    return out;
  }
  std::sort(frequent.begin(), frequent.end(), [&](uint32_t a, uint32_t b) {
    if (item_totals[a].total() != item_totals[b].total()) {
      return item_totals[a].total() > item_totals[b].total();
    }
    return a < b;
  });
  std::vector<uint32_t> rank_of(db.num_items(), kNil);
  tree.Reset(frequent.size());
  for (size_t i = 0; i < frequent.size(); ++i) {
    rank_of[frequent[i]] = static_cast<uint32_t>(i);
    tree.item[i] = frequent[i];
    tree.totals[i] = item_totals[frequent[i]];
  }

  // Pass 2: build the FP-tree with outcome deltas on every node.
  std::vector<uint32_t> path(db.num_attributes());
  for (size_t r = 0; r < n; ++r) {
    if (guard != nullptr && !guard->Tick()) {
      close_build();
      return out;
    }
    const uint32_t* row = db.row(r);
    size_t len = 0;
    for (size_t a = 0; a < db.num_attributes(); ++a) {
      const uint32_t rank = rank_of[row[a]];
      if (rank != kNil) path[len++] = rank;
    }
    std::sort(path.begin(), path.begin() + len);
    tree.Insert(path.data(), len, OutcomeDelta(db.outcome(r)));
  }

  build_timer.AddItems(n);
  // Top-level tree only; the grow scratch is reported by mine.grow.
  obs::MetricsRegistry::Default()
      .GetCounter("fpm.kernel.arena.bytes")
      ->Add(CapacityBytes(tree.nodes));
  const uint64_t tree_bytes = tree.MemoryBytes();
  if (guard != nullptr && !guard->AddMemory(tree_bytes)) {
    guard->SubMemory(tree_bytes);
    close_build();
    return out;
  }
  close_build();

  obs::StageTimer grow_timer(options.stages, obs::kStageMineGrow);
  obs::ScopedSpan grow_span(obs::kStageMineGrow);
  const uint64_t grow_checks0 =
      guard != nullptr ? guard->check_count() : 0;
  // With a guard, its high water covers the tree, every live grower's
  // scratch and the emitted patterns; without one, the tree and the
  // growers' live scratch are all that is counted.
  ScratchMeter meter;
  auto close_grow = [&]() {
    grow_timer.AddItems(out.size() - 1);  // non-empty patterns emitted
    if (guard != nullptr) {
      grow_timer.SetPeakBytes(guard->peak_memory_bytes());
      grow_timer.AddGuardChecks(guard->check_count() - grow_checks0);
    } else {
      grow_timer.SetPeakBytes(tree_bytes + meter.peak());
    }
    grow_timer.Finish();
    grow_span.End();
  };

  MiningCheckpointSink* sink = options.checkpoint;
  if (options.num_threads <= 1 && sink == nullptr) {
    MineControl ctrl(guard);
    try {
      Grower grower(tree, min_count, options.max_length, &ctrl, &meter, &out);
      grower.MineTree(tree, 0);
    } catch (const std::exception& e) {
      if (guard != nullptr) guard->SubMemory(tree_bytes);
      return Status::Internal(std::string("fpgrowth worker failed: ") +
                              e.what());
    }
    if (guard != nullptr) guard->SubMemory(tree_bytes);
    close_grow();
    return out;
  }

  // Sharded mode (parallel, or any run with a checkpoint sink):
  // top-level conditional trees are independent; mine each top-level
  // rank into its own buffer with its own scratch, then concatenate in
  // the sequential order so output is identical to the single-thread
  // run. Each shard gets its own MineControl (full pattern budget); the
  // post-merge truncation keeps the budget semantics deterministic.
  // Units restored from a checkpoint are spliced into their slots
  // unmined; only units that ran to completion are reported back.
  const size_t num_ranks = tree.item.size();
  if (sink != nullptr) sink->BeginRun(num_ranks);
  std::vector<PatternBuffer> partial(num_ranks);
  try {
    ParallelFor(options.num_threads, num_ranks, [&](size_t i) {
      if (sink != nullptr) {
        const PatternBuffer* restored = sink->RestoredUnit(i);
        if (restored != nullptr) {
          partial[i] = *restored;
          return;
        }
      }
      // Sequential order iterates ranks descending; slot i handles that
      // position.
      MineControl ctrl(guard);
      Grower grower(tree, min_count, options.max_length, &ctrl, &meter,
                    &partial[i]);
      grower.MineRank(tree, 0, num_ranks - 1 - i);
      if (sink != nullptr && !ctrl.stopped()) {
        sink->UnitMined(i, partial[i]);
      }
    });
  } catch (const std::exception& e) {
    if (guard != nullptr) guard->SubMemory(tree_bytes);
    return Status::Internal(std::string("fpgrowth worker failed: ") +
                            e.what());
  }
  if (guard != nullptr) guard->SubMemory(tree_bytes);
  for (PatternBuffer& chunk : partial) {
    out.Append(chunk);
    chunk.Release();
  }
  EnforcePatternBudget(guard, &out);
  close_grow();
  return out;
}

}  // namespace divexp
