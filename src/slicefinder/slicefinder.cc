#include "slicefinder/slicefinder.h"

#include <algorithm>
#include <cmath>
#include <unordered_set>

#include "fpm/bitmap.h"
#include "fpm/miner.h"
#include "obs/trace.h"
#include "stats/alpha_investing.h"
#include "stats/descriptive.h"
#include "stats/welch.h"

namespace divexp {
namespace {

struct Candidate {
  Itemset items;
  Bitmap rows;
};

struct SliceStats {
  uint64_t n = 0;
  double mean = 0.0;
  double variance = 0.0;
};

// Mean/variance of loss inside the slice (rows in bitmap) and over its
// counterpart (everything else), via sums over the covered rows.
void ComputeStats(const Bitmap& rows, const std::vector<double>& loss,
                  double total_sum, double total_sq_sum, size_t total_n,
                  SliceStats* slice, SliceStats* rest) {
  double sum = 0.0;
  double sq = 0.0;
  uint64_t n = 0;
  for (size_t i : rows.ToIndices()) {
    sum += loss[i];
    sq += loss[i] * loss[i];
    ++n;
  }
  slice->n = n;
  if (n > 0) {
    slice->mean = sum / static_cast<double>(n);
    slice->variance =
        n > 1 ? (sq - sum * sum / static_cast<double>(n)) /
                    static_cast<double>(n - 1)
              : 0.0;
  }
  const uint64_t rn = static_cast<uint64_t>(total_n) - n;
  rest->n = rn;
  if (rn > 0) {
    const double rsum = total_sum - sum;
    const double rsq = total_sq_sum - sq;
    rest->mean = rsum / static_cast<double>(rn);
    rest->variance =
        rn > 1 ? (rsq - rsum * rsum / static_cast<double>(rn)) /
                     static_cast<double>(rn - 1)
               : 0.0;
  }
  // Guard tiny negative variances from cancellation.
  slice->variance = std::max(slice->variance, 0.0);
  rest->variance = std::max(rest->variance, 0.0);
}

}  // namespace

Result<std::vector<Slice>> SliceFinder::FindSlices(
    const EncodedDataset& dataset, const std::vector<double>& loss) {
  const size_t n = dataset.num_rows;
  last_breach_ = LimitBreach::kNone;
  if (loss.size() != n) {
    return Status::InvalidArgument("loss vector size != dataset rows");
  }
  if (n == 0) return std::vector<Slice>{};
  RunGuard* guard = options_.guard;
  MineControl ctrl(guard);
  const uint64_t bm_bytes = sizeof(Bitmap) + ((n + 63) / 64) * 8;

  obs::StageTimer stage(options_.stages, obs::kStageSliceFinder);
  obs::ScopedSpan span(obs::kStageSliceFinder);
  const uint64_t checks0 = guard != nullptr ? guard->check_count() : 0;
  uint64_t candidates_evaluated = 0;

  double total_sum = 0.0;
  double total_sq_sum = 0.0;
  for (double l : loss) {
    total_sum += l;
    total_sq_sum += l * l;
  }

  // Vertical bitmaps per item.
  const uint32_t num_items = dataset.catalog.num_items();
  std::vector<Bitmap> item_rows(num_items, Bitmap(n));
  for (size_t r = 0; r < n; ++r) {
    for (size_t a = 0; a < dataset.num_attributes; ++a) {
      item_rows[dataset.at(r, a)].Set(r);
    }
  }

  AlphaInvesting investor(AlphaInvestingOptions{options_.alpha,
                                                options_.alpha});
  std::vector<Slice> problematic;
  std::vector<Itemset> problematic_sets;
  // A candidate containing an already-problematic slice is dominated:
  // the search stopped at the smaller slice, so supersets reached via
  // sibling parents are skipped too.
  auto dominated = [&](const Itemset& items) {
    for (const Itemset& p : problematic_sets) {
      if (IsSubset(p, items)) return true;
    }
    return false;
  };
  std::vector<Candidate> frontier;
  for (uint32_t id = 0; id < num_items; ++id) {
    Candidate c;
    c.items = Itemset{id};
    c.rows = item_rows[id];
    frontier.push_back(std::move(c));
  }
  uint64_t frontier_bytes = frontier.size() * bm_bytes;
  if (guard != nullptr &&
      !guard->AddMemory((num_items + frontier.size()) * bm_bytes)) {
    guard->SubMemory((num_items + frontier.size()) * bm_bytes);
    last_breach_ = guard->breach();
    return std::vector<Slice>{};
  }

  std::unordered_set<Itemset, ItemsetHash> seen;
  for (size_t degree = 1;
       degree <= options_.max_degree && !frontier.empty(); ++degree) {
    std::vector<Candidate> next;
    uint64_t next_bytes = 0;
    stage.SetPeakBytes((num_items + frontier.size()) * bm_bytes);
    for (Candidate& cand : frontier) {
      if (ctrl.stopped() || (guard != nullptr && !guard->Tick())) break;
      ++candidates_evaluated;
      const uint64_t size = cand.rows.Count();
      if (size < options_.min_size) continue;
      if (dominated(cand.items)) continue;

      SliceStats slice_stats, rest_stats;
      ComputeStats(cand.rows, loss, total_sum, total_sq_sum, n,
                   &slice_stats, &rest_stats);
      const double effect =
          EffectSize(slice_stats.mean, slice_stats.variance,
                     rest_stats.mean, rest_stats.variance);
      const WelchResult welch = WelchTTest(
          slice_stats.mean, slice_stats.variance, slice_stats.n,
          rest_stats.mean, rest_stats.variance, rest_stats.n);

      const bool large_effect =
          effect >= options_.effect_size_threshold;
      // Significance: fixed alpha by default, or alpha-investing
      // sequential control. Only slices with a large enough effect
      // spend testing budget (matching the reference tool's order of
      // checks).
      const bool significant =
          options_.alpha_investing
              ? (large_effect && investor.Test(welch.p_value))
              : welch.p_value < options_.alpha;
      const bool is_problematic = large_effect && significant;
      if (is_problematic) {
        if (!ctrl.EmitBytes(sizeof(Slice) +
                            cand.items.size() * sizeof(uint32_t))) {
          break;
        }
        Slice s;
        s.items = cand.items;
        s.size = size;
        s.mean_loss = slice_stats.mean;
        s.effect_size = effect;
        s.p_value = welch.p_value;
        problematic_sets.push_back(s.items);
        problematic.push_back(std::move(s));
        // Key pruning rule: a problematic slice is NOT expanded — the
        // behavior that makes Slice Finder miss longer true sources
        // (paper §6.5).
        continue;
      }
      if (degree == options_.max_degree) continue;

      // Expand with every item on a new attribute.
      std::unordered_set<uint32_t> used_attrs;
      for (uint32_t id : cand.items) {
        used_attrs.insert(dataset.catalog.item(id).attribute);
      }
      for (uint32_t id = 0; id < num_items; ++id) {
        if (used_attrs.count(dataset.catalog.item(id).attribute) > 0) {
          continue;
        }
        Itemset items = With(cand.items, id);
        if (!seen.insert(items).second) continue;
        Candidate child;
        child.items = std::move(items);
        child.rows.AssignAnd(cand.rows, item_rows[id]);
        if (child.rows.Count() < options_.min_size) continue;
        if (guard != nullptr && !guard->AddMemory(bm_bytes)) {
          guard->SubMemory(bm_bytes);
          break;
        }
        next_bytes += bm_bytes;
        next.push_back(std::move(child));
      }
    }
    if (guard != nullptr) guard->SubMemory(frontier_bytes);
    frontier_bytes = next_bytes;
    frontier = std::move(next);
    if (ctrl.stopped()) break;
  }
  if (guard != nullptr) {
    guard->SubMemory(num_items * bm_bytes + frontier_bytes);
    last_breach_ = guard->breach();
  }
  stage.AddItems(candidates_evaluated);
  if (guard != nullptr) {
    stage.AddGuardChecks(guard->check_count() - checks0);
  }

  std::stable_sort(problematic.begin(), problematic.end(),
                   [](const Slice& a, const Slice& b) {
                     if (a.size != b.size) return a.size > b.size;
                     return a.effect_size > b.effect_size;
                   });
  if (options_.top_k != 0 && problematic.size() > options_.top_k) {
    problematic.resize(options_.top_k);
  }
  return problematic;
}

std::vector<double> ZeroOneLoss(const std::vector<int>& predictions,
                                const std::vector<int>& truths) {
  DIVEXP_CHECK(predictions.size() == truths.size());
  std::vector<double> loss(predictions.size());
  for (size_t i = 0; i < loss.size(); ++i) {
    loss[i] = predictions[i] != truths[i] ? 1.0 : 0.0;
  }
  return loss;
}

Result<std::vector<double>> LogLoss(const std::vector<double>& probas,
                                    const std::vector<int>& truths,
                                    double eps) {
  if (probas.size() != truths.size()) {
    return Status::InvalidArgument("probas and truths differ in length");
  }
  std::vector<double> loss(probas.size());
  for (size_t i = 0; i < loss.size(); ++i) {
    const double p =
        std::min(1.0 - eps, std::max(eps, probas[i]));
    loss[i] = truths[i] == 1 ? -std::log(p) : -std::log(1.0 - p);
  }
  return loss;
}

}  // namespace divexp
