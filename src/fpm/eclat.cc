#include "fpm/eclat.h"

#include <algorithm>
#include <exception>
#include <string>

#include "fpm/kernels/kernels.h"
#include "obs/metrics.h"
#include "obs/stage.h"
#include "obs/trace.h"
#include "util/failpoint.h"
#include "util/parallel.h"

namespace divexp {
namespace {

using TidList = std::vector<uint32_t>;

struct EclatItem {
  uint32_t item = 0;
  TidList tids;
  OutcomeCounts counts;
};

OutcomeCounts TallyTids(const TransactionDatabase& db,
                        const TidList& tids) {
  OutcomeCounts c;
  for (uint32_t tid : tids) {
    switch (db.outcome(tid)) {
      case Outcome::kTrue:
        ++c.t;
        break;
      case Outcome::kFalse:
        ++c.f;
        break;
      case Outcome::kBottom:
        ++c.bot;
        break;
    }
  }
  return c;
}

// Kernel table plus the per-run counters, threaded through the
// recursion so workers touch only cached instrument pointers.
struct GrowContext {
  const fpm::KernelOps* ops = nullptr;
  obs::Counter* intersect_calls = nullptr;
  obs::Counter* intersect_pruned = nullptr;
};

uint64_t TidListBytes(const std::vector<EclatItem>& items) {
  uint64_t bytes = 0;
  for (const EclatItem& item : items) {
    bytes += sizeof(EclatItem) + item.tids.capacity() * sizeof(uint32_t);
  }
  return bytes;
}

void Grow(const TransactionDatabase& db, const GrowContext& ctx,
          Itemset* prefix, const std::vector<EclatItem>& siblings,
          uint64_t min_count, size_t max_length, MineControl* ctrl,
          PatternBuffer* out);

// One step of the depth-first extension: sibling i becomes the next
// prefix item, joined against the siblings after it. Siblings ascend
// by item id and follow every prefix item, so the prefix grows by
// push_back and stays sorted; it is restored before returning.
void GrowOne(const TransactionDatabase& db, const GrowContext& ctx,
             Itemset* prefix, const std::vector<EclatItem>& siblings,
             size_t i, uint64_t min_count, size_t max_length,
             MineControl* ctrl, PatternBuffer* out) {
  DIVEXP_FAILPOINT("fpm.eclat.grow");
  const EclatItem& head = siblings[i];
  if (!ctrl->Emit(prefix->size() + 1)) return;
  prefix->push_back(head.item);
  struct Pop {
    Itemset* prefix;
    ~Pop() { prefix->pop_back(); }
  } pop{prefix};
  out->Append(*prefix, head.counts);
  if (max_length != 0 && prefix->size() >= max_length) return;

  std::vector<EclatItem> next;
  for (size_t j = i + 1; j < siblings.size(); ++j) {
    if (ctrl->stopped()) return;
    const EclatItem& tail = siblings[j];
    if (db.attribute_of(head.item) == db.attribute_of(tail.item)) {
      continue;  // same-attribute items never co-occur
    }
    // Bounded intersection: the kernel bails out as soon as the
    // remaining overlap can no longer reach min_count (the single-item
    // support upper bound applied per step). A bailed-out result is
    // < min_count by construction and the child is dropped, so every
    // kernel produces the same surviving children.
    EclatItem child;
    child.tids.resize(std::min(head.tids.size(), tail.tids.size()));
    const size_t m = ctx.ops->intersect_bounded(
        head.tids.data(), head.tids.size(), tail.tids.data(),
        tail.tids.size(), child.tids.data(), min_count);
    ctx.intersect_calls->Increment();
    if (m < min_count) {
      ctx.intersect_pruned->Increment();
      continue;
    }
    child.tids.resize(m);
    child.item = tail.item;
    child.counts = TallyTids(db, child.tids);
    next.push_back(std::move(child));
  }
  if (next.empty()) return;
  RunGuard* guard = ctrl->guard();
  const uint64_t next_bytes = guard != nullptr ? TidListBytes(next) : 0;
  if (guard != nullptr && !guard->AddMemory(next_bytes)) {
    guard->SubMemory(next_bytes);
    return;
  }
  Grow(db, ctx, prefix, next, min_count, max_length, ctrl, out);
  if (guard != nullptr) guard->SubMemory(next_bytes);
}

// Depth-first extension of `prefix` (whose covered rows are implied by
// the tid-lists in `siblings`).
void Grow(const TransactionDatabase& db, const GrowContext& ctx,
          Itemset* prefix, const std::vector<EclatItem>& siblings,
          uint64_t min_count, size_t max_length, MineControl* ctrl,
          PatternBuffer* out) {
  for (size_t i = 0; i < siblings.size(); ++i) {
    if (ctrl->stopped()) return;
    GrowOne(db, ctx, prefix, siblings, i, min_count, max_length, ctrl,
            out);
  }
}

}  // namespace

Result<PatternBuffer> EclatMiner::MineBuffer(
    const TransactionDatabase& db, const MinerOptions& options) const {
  if (options.min_support <= 0.0 || options.min_support > 1.0) {
    return Status::InvalidArgument("min_support must be in (0, 1]");
  }
  const size_t n = db.num_rows();
  const uint64_t min_count = MinCount(options.min_support, n);
  RunGuard* guard = options.guard;
  GrowContext ctx;
  ctx.ops = &fpm::ResolveKernel(options.kernel);
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Default();
  ctx.intersect_calls = registry.GetCounter("fpm.kernel.intersect.calls");
  ctx.intersect_pruned =
      registry.GetCounter("fpm.kernel.intersect.pruned");

  PatternBuffer out;
  out.Append(ItemSpan(), db.totals());
  if (n == 0) return out;

  // Stage accounting: build covers the vertical scan + root tid-lists,
  // grow covers the depth-first enumeration.
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

  // One scan: vertical tid-lists (sorted by construction).
  std::vector<TidList> tids(db.num_items());
  for (size_t r = 0; r < n; ++r) {
    if (guard != nullptr && !guard->Tick()) {
      close_build(0);
      return out;
    }
    const uint32_t* row = db.row(r);
    for (size_t a = 0; a < db.num_attributes(); ++a) {
      tids[row[a]].push_back(static_cast<uint32_t>(r));
    }
  }
  build_timer.AddItems(n);
  std::vector<EclatItem> roots;
  for (uint32_t id = 0; id < db.num_items(); ++id) {
    if (tids[id].size() < min_count) continue;
    EclatItem item;
    item.item = id;
    item.counts = TallyTids(db, tids[id]);
    item.tids = std::move(tids[id]);
    roots.push_back(std::move(item));
  }
  tids.clear();
  const uint64_t root_bytes = TidListBytes(roots);
  if (guard != nullptr && !guard->AddMemory(root_bytes)) {
    guard->SubMemory(root_bytes);
    close_build(root_bytes);
    return out;
  }
  close_build(root_bytes);

  obs::StageTimer grow_timer(options.stages, obs::kStageMineGrow);
  obs::ScopedSpan grow_span(obs::kStageMineGrow);
  const uint64_t grow_checks0 =
      guard != nullptr ? guard->check_count() : 0;
  auto close_grow = [&]() {
    grow_timer.AddItems(out.size() - 1);  // non-empty patterns emitted
    if (guard != nullptr) {
      grow_timer.SetPeakBytes(guard->peak_memory_bytes());
      grow_timer.AddGuardChecks(guard->check_count() - grow_checks0);
    }
    grow_timer.Finish();
    grow_span.End();
  };

  MiningCheckpointSink* sink = options.checkpoint;
  if (options.num_threads <= 1 && sink == nullptr) {
    MineControl ctrl(guard);
    try {
      Itemset prefix;
      Grow(db, ctx, &prefix, roots, min_count, options.max_length, &ctrl,
           &out);
    } catch (const std::exception& e) {
      if (guard != nullptr) guard->SubMemory(root_bytes);
      return Status::Internal(std::string("eclat worker failed: ") +
                              e.what());
    }
    if (guard != nullptr) guard->SubMemory(root_bytes);
    close_grow();
    return out;
  }
  // Sharded mode (parallel, or any run with a checkpoint sink): each
  // root item's subtree is independent; concatenate in root order so
  // output matches the sequential run exactly. Each shard enforces the
  // pattern budget locally; the post-merge truncation keeps the budget
  // semantics deterministic. Restored units are spliced in unmined;
  // only units that ran to completion are reported back.
  if (sink != nullptr) sink->BeginRun(roots.size());
  std::vector<PatternBuffer> partial(roots.size());
  try {
    ParallelFor(options.num_threads, roots.size(), [&](size_t i) {
      if (sink != nullptr) {
        const PatternBuffer* restored = sink->RestoredUnit(i);
        if (restored != nullptr) {
          partial[i] = *restored;
          return;
        }
      }
      MineControl ctrl(guard);
      Itemset prefix;
      GrowOne(db, ctx, &prefix, roots, i, min_count, options.max_length,
              &ctrl, &partial[i]);
      if (sink != nullptr && !ctrl.stopped()) {
        sink->UnitMined(i, partial[i]);
      }
    });
  } catch (const std::exception& e) {
    if (guard != nullptr) guard->SubMemory(root_bytes);
    return Status::Internal(std::string("eclat worker failed: ") +
                            e.what());
  }
  if (guard != nullptr) guard->SubMemory(root_bytes);
  for (PatternBuffer& chunk : partial) {
    out.Append(chunk);
    chunk.Release();
  }
  EnforcePatternBudget(guard, &out);
  close_grow();
  return out;
}

}  // namespace divexp
