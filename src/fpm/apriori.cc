#include "fpm/apriori.h"

#include <exception>
#include <string>
#include <unordered_set>

#include "fpm/bitmap.h"
#include "fpm/kernels/kernels.h"
#include "obs/metrics.h"
#include "obs/stage.h"
#include "obs/trace.h"
#include "util/failpoint.h"
#include "util/parallel.h"

namespace divexp {
namespace {

struct LevelEntry {
  Itemset items;
  Bitmap rows;
};

OutcomeCounts ToCounts(const fpm::KernelTally& kt) {
  OutcomeCounts c;
  c.t = kt.t;
  c.f = kt.f;
  c.bot = kt.support - kt.t - kt.f;
  return c;
}

// All k-subsets of `candidate` (size k+1) must be frequent.
bool AllSubsetsFrequent(
    const Itemset& candidate,
    const std::unordered_set<Itemset, ItemsetHash>& frequent) {
  Itemset sub(candidate.begin() + 1, candidate.end());
  // Drop each position in turn; dropping position p means sub holds
  // all items except candidate[p].
  for (size_t p = 0; p < candidate.size(); ++p) {
    if (frequent.find(sub) == frequent.end()) return false;
    if (p + 1 < candidate.size()) sub[p] = candidate[p];
  }
  return true;
}

}  // namespace

Result<PatternBuffer> AprioriMiner::MineBuffer(
    const TransactionDatabase& db, const MinerOptions& options) const {
  if (options.min_support <= 0.0 || options.min_support > 1.0) {
    return Status::InvalidArgument("min_support must be in (0, 1]");
  }
  const size_t n = db.num_rows();
  const uint64_t min_count = MinCount(options.min_support, n);
  RunGuard* guard = options.guard;
  // One kernel table for the whole run; every choice is bit-identical
  // (kernel differential suite), so this only affects speed.
  const fpm::KernelOps& ops = fpm::ResolveKernel(options.kernel);
  obs::Counter* tally_calls =
      obs::MetricsRegistry::Default().GetCounter("fpm.kernel.tally.calls");
  // All emissions happen on the calling thread (workers only count
  // supports), so a single MineControl keeps budget-truncated output
  // deterministic regardless of num_threads.
  MineControl ctrl(guard);
  // Approximate footprint of one row bitmap.
  const uint64_t bm_bytes = sizeof(Bitmap) + ((n + 63) / 64) * 8;

  PatternBuffer out;
  out.Append(ItemSpan(), db.totals());
  if (n == 0) return out;

  // Stage accounting: build covers the vertical bitmap scan, grow the
  // level-wise candidate loop (including singleton emission).
  obs::StageTimer build_timer(options.stages, obs::kStageMineBuild);
  obs::ScopedSpan build_span(obs::kStageMineBuild);
  const uint64_t build_checks0 =
      guard != nullptr ? guard->check_count() : 0;
  auto close_build = [&](uint64_t bytes) {
    build_timer.SetPeakBytes(bytes);
    if (guard != nullptr) {
      build_timer.AddGuardChecks(guard->check_count() - build_checks0);
    }
    build_timer.Finish();
    build_span.End();
  };

  // Single data scan: vertical bitmaps for every item + outcome masks.
  Bitmap t_mask(n);
  Bitmap f_mask(n);
  for (size_t r = 0; r < n; ++r) {
    if (db.outcome(r) == Outcome::kTrue) t_mask.Set(r);
    if (db.outcome(r) == Outcome::kFalse) f_mask.Set(r);
  }
  std::vector<Bitmap> item_rows(db.num_items(), Bitmap(n));
  const uint64_t item_rows_bytes = db.num_items() * bm_bytes;
  if (guard != nullptr && !guard->AddMemory(item_rows_bytes)) {
    guard->SubMemory(item_rows_bytes);
    close_build(item_rows_bytes);
    return out;
  }
  for (size_t r = 0; r < n; ++r) {
    if (guard != nullptr && !guard->Tick()) {
      guard->SubMemory(item_rows_bytes);
      close_build(item_rows_bytes);
      return out;
    }
    const uint32_t* row = db.row(r);
    for (size_t a = 0; a < db.num_attributes(); ++a) {
      item_rows[row[a]].Set(r);
    }
  }
  build_timer.AddItems(n);
  close_build(item_rows_bytes);

  obs::StageTimer grow_timer(options.stages, obs::kStageMineGrow);
  obs::ScopedSpan grow_span(obs::kStageMineGrow);
  const uint64_t grow_checks0 =
      guard != nullptr ? guard->check_count() : 0;

  // Units for checkpoint/resume are whole levels (1-based; unit 1 =
  // the singletons). Restored levels splice their patterns into `out`
  // verbatim; the topmost restored level's row bitmaps are rebuilt by
  // intersecting the singleton bitmaps, and mining continues from the
  // next level. Restored emissions count against the single control's
  // budget so a resumed run truncates at the same point.
  MiningCheckpointSink* sink = options.checkpoint;
  if (sink != nullptr) sink->BeginRun(0);  // level count emerges later

  std::vector<LevelEntry> level;
  size_t k = 0;  // last completed level
  if (sink != nullptr) {
    const PatternBuffer* top = nullptr;
    while (const PatternBuffer* restored = sink->RestoredUnit(k + 1)) {
      ++k;
      ctrl.RestorePriorEmissions(restored->size());
      out.Append(*restored);
      top = restored;
    }
    if (top != nullptr) {
      // Only the topmost restored level continues mining; rebuild its
      // row bitmaps from the singleton bitmaps.
      for (size_t p = 0; p < top->size(); ++p) {
        const ItemSpan items = top->row_items(p);
        LevelEntry e;
        e.items.assign(items.begin(), items.end());
        e.rows = item_rows[items[0]];
        for (size_t j = 1; j < items.size(); ++j) {
          Bitmap joined(n);
          joined.AssignAnd(e.rows, item_rows[items[j]]);
          e.rows = std::move(joined);
        }
        level.push_back(std::move(e));
      }
    }
  }
  if (k == 0) {
    PatternBuffer singleton_patterns;
    bool complete = true;
    for (uint32_t id = 0; id < db.num_items(); ++id) {
      const fpm::KernelTally kt = ops.tally(
          item_rows[id].words(), t_mask.words(), f_mask.words(), n);
      tally_calls->Increment();
      if (kt.support < min_count) continue;
      if (!ctrl.Emit(1)) {
        complete = false;
        break;
      }
      LevelEntry e;
      e.items = Itemset{id};
      e.rows = std::move(item_rows[id]);
      if (sink != nullptr) singleton_patterns.Append(e.items, ToCounts(kt));
      out.Append(e.items, ToCounts(kt));
      level.push_back(std::move(e));
    }
    k = 1;
    if (sink != nullptr && complete && !ctrl.stopped()) {
      sink->UnitMined(1, singleton_patterns);
    }
  }
  // The singleton bitmaps (or their level-k joins) now live in `level`;
  // drop the item-indexed vector and re-account the survivors as the
  // live level.
  item_rows.clear();
  uint64_t live_level_bytes = level.size() * bm_bytes;
  if (guard != nullptr) {
    guard->SubMemory(item_rows_bytes);
    if (!guard->AddMemory(live_level_bytes)) {
      guard->SubMemory(live_level_bytes);
      return out;
    }
  }

  while (!level.empty() && !ctrl.stopped() &&
         (options.max_length == 0 || k < options.max_length)) {
    DIVEXP_FAILPOINT_STATUS("fpm.apriori.level");
    std::unordered_set<Itemset, ItemsetHash> frequent;
    frequent.reserve(level.size());
    for (const LevelEntry& e : level) frequent.insert(e.items);

    // Candidate generation is cheap and sequential; entries are in
    // sorted order, so itemsets sharing a (k-1)-prefix are adjacent.
    struct Candidate {
      Itemset items;
      size_t left = 0;
      size_t right = 0;
    };
    std::vector<Candidate> candidates;
    for (size_t i = 0; i < level.size() && !ctrl.stopped(); ++i) {
      if (guard != nullptr) guard->Tick();
      for (size_t j = i + 1; j < level.size(); ++j) {
        const Itemset& a = level[i].items;
        const Itemset& b = level[j].items;
        if (!std::equal(a.begin(), a.end() - 1, b.begin())) break;
        // Items of one attribute never co-occur in a transaction.
        if (db.attribute_of(a.back()) == db.attribute_of(b.back())) {
          continue;
        }
        Itemset candidate = a;
        candidate.push_back(b.back());
        if (k >= 2 && !AllSubsetsFrequent(candidate, frequent)) continue;
        candidates.push_back(Candidate{std::move(candidate), i, j});
      }
    }

    if (guard != nullptr &&
        !guard->AddMemory(candidates.size() * bm_bytes)) {
      guard->SubMemory(candidates.size() * bm_bytes);
      break;
    }
    grow_timer.SetPeakBytes(live_level_bytes +
                            candidates.size() * bm_bytes);

    // Support counting (bitmap AND + popcounts) is the expensive part
    // and is embarrassingly parallel across candidates.
    std::vector<LevelEntry> evaluated(candidates.size());
    std::vector<OutcomeCounts> counts(candidates.size());
    std::vector<char> survives(candidates.size(), 0);
    try {
      ParallelFor(options.num_threads, candidates.size(), [&](size_t c) {
        if (guard != nullptr && !guard->Tick()) return;
        LevelEntry& e = evaluated[c];
        // Fused AND + (support, T, F) popcounts: one pass over the
        // words instead of the old AssignAnd + Count + two AndCounts
        // (five passes) — this loop is Apriori's entire hot path.
        e.rows = Bitmap(n);
        const fpm::KernelTally kt = ops.and_assign_tally(
            e.rows.mutable_words(), level[candidates[c].left].rows.words(),
            level[candidates[c].right].rows.words(), t_mask.words(),
            f_mask.words(), n);
        tally_calls->Increment();
        if (kt.support < min_count) return;
        e.items = std::move(candidates[c].items);
        counts[c] = ToCounts(kt);
        survives[c] = 1;
      });
    } catch (const std::exception& e) {
      if (guard != nullptr) {
        guard->SubMemory(live_level_bytes + candidates.size() * bm_bytes);
      }
      return Status::Internal(std::string("apriori worker failed: ") +
                              e.what());
    }

    // Emission stays on the calling thread: budget truncation is
    // deterministic even though counting was parallel.
    std::vector<LevelEntry> next;
    PatternBuffer next_patterns;
    bool complete = true;
    for (size_t c = 0; c < evaluated.size(); ++c) {
      if (!survives[c]) continue;
      if (!ctrl.Emit(evaluated[c].items.size())) {
        complete = false;
        break;
      }
      if (sink != nullptr) next_patterns.Append(evaluated[c].items, counts[c]);
      out.Append(evaluated[c].items, counts[c]);
      next.push_back(std::move(evaluated[c]));
    }
    if (guard != nullptr) {
      // Non-surviving candidate bitmaps and the replaced level die here.
      guard->SubMemory(live_level_bytes +
                       (candidates.size() - next.size()) * bm_bytes);
      live_level_bytes = next.size() * bm_bytes;
    }
    level = std::move(next);
    ++k;
    if (sink != nullptr && complete && !ctrl.stopped()) {
      sink->UnitMined(k, next_patterns);
    }
  }
  if (guard != nullptr) guard->SubMemory(live_level_bytes);
  grow_timer.AddItems(ctrl.emitted());
  if (guard != nullptr) {
    grow_timer.AddGuardChecks(guard->check_count() - grow_checks0);
  }
  return out;
}

}  // namespace divexp
