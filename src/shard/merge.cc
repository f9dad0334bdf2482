#include "shard/merge.h"

#include <algorithm>
#include <unordered_set>
#include <utility>

#include "fpm/itemset.h"
#include "fpm/kernels/kernels.h"
#include "obs/metrics.h"
#include "util/failpoint.h"
#include "util/parallel.h"

namespace divexp {
namespace shard {
namespace {

using ItemsetSet = std::unordered_set<Itemset, ItemsetHash, ItemsetEq>;

}  // namespace

std::vector<ShardRange> MakeShardPlan(size_t num_rows, size_t num_shards) {
  std::vector<ShardRange> plan(num_shards);
  if (num_shards == 0) return plan;
  const size_t base = num_rows / num_shards;
  const size_t extra = num_rows % num_shards;
  size_t begin = 0;
  for (size_t i = 0; i < num_shards; ++i) {
    const size_t size = base + (i < extra ? 1 : 0);
    plan[i] = ShardRange{begin, begin + size};
    begin += size;
  }
  return plan;
}

Result<ShardMergeResult> MergeShardContributions(
    const EncodedDataset& dataset, const std::vector<Outcome>& outcomes,
    const std::vector<ShardRange>& plan,
    const std::vector<uint64_t>& expected_fingerprints,
    const std::vector<bool>& include_rows,
    const std::vector<ShardContribution>& contributions,
    const ShardMergeOptions& options) {
  DIVEXP_FAILPOINT_STATUS("shard.merge.verify");
  if (plan.size() != expected_fingerprints.size() ||
      plan.size() != include_rows.size()) {
    return Status::InvalidArgument(
        "shard plan, fingerprints and inclusion mask disagree in size");
  }
  if (outcomes.size() != dataset.num_rows) {
    return Status::InvalidArgument("outcomes length does not match dataset");
  }
  if (options.min_support <= 0.0 || options.min_support > 1.0) {
    return Status::InvalidArgument("min_support must be in (0, 1]");
  }

  // Phase 1: verify provenance, then union the candidate itemsets.
  // Duplicates collapse; per-shard tallies are deliberately discarded —
  // phase 2 recounts from the dataset, which keeps the merge exact no
  // matter how a contribution was produced (fresh mine, retry, stale
  // checkpoint).
  ItemsetSet candidate_set;
  for (const ShardContribution& c : contributions) {
    if (c.shard >= plan.size()) {
      return Status::InvalidArgument("contribution from unknown shard " +
                                     std::to_string(c.shard));
    }
    if (c.fingerprint != expected_fingerprints[c.shard]) {
      return Status::InvalidArgument(
          "shard " + std::to_string(c.shard) +
          " contribution fingerprint mismatch (contribution was mined "
          "from different data)");
    }
    for (size_t p = 0; p < c.patterns.size(); ++p) {
      const ItemSpan items = c.patterns.row_items(p);
      if (items.empty()) continue;  // rebuilt from totals below
      if (options.max_length != 0 && items.size() > options.max_length) {
        continue;
      }
      if (candidate_set.find(items) == candidate_set.end()) {
        candidate_set.emplace(items.begin(), items.end());
      }
    }
  }
  // Canonical verification order: the recount itself is
  // order-independent, but the closure check below needs every subset
  // before its supersets, and a fixed order keeps timing reproducible.
  std::vector<Itemset> candidates(candidate_set.begin(),
                                  candidate_set.end());
  std::sort(candidates.begin(), candidates.end(),
            [](const Itemset& a, const Itemset& b) {
              return CanonicalLess(a, b);
            });

  ShardMergeResult result;
  result.candidates = candidates.size();
  for (size_t i = 0; i < plan.size(); ++i) {
    if (include_rows[i]) result.covered_rows += plan[i].size();
  }

  // Phase 2: exact recount of every candidate over the covered rows,
  // vertically. The covered rows are renumbered densely (included
  // ranges in plan order, so a dropped shard leaves no hole) and each
  // frequent item gets one bitmap over them, next to the T and F
  // outcome masks; a candidate's tallies are then the fused AND +
  // popcount kernels Apriori uses. The kernel choice never changes a
  // tally (kernel differential suite).
  obs::StageTimer timer(options.stages, obs::kStageShardVerify);
  const size_t num_bits = result.covered_rows;
  const size_t num_words = (num_bits + 63) / 64;
  const size_t num_attributes = dataset.num_attributes;
  // Calls fn(row, bit) for every covered row and its dense index.
  auto for_each_covered_row = [&](auto&& fn) {
    size_t bit = 0;
    for (size_t i = 0; i < plan.size(); ++i) {
      if (!include_rows[i]) continue;
      for (size_t r = plan[i].begin; r < plan[i].end; ++r) fn(r, bit++);
    }
  };

  // Single-item supports over the covered rows feed the
  // SupportUpperBound pre-filter below: an itemset is at most as
  // frequent as its least frequent member, so candidates whose bound
  // is already below min_count skip the recount. Exact: a skipped
  // candidate's true count is <= its bound < min_count, so the
  // threshold filter would have discarded it anyway. The same bound
  // means only items with support >= min_count need a bitmap.
  const fpm::KernelOps& ops = fpm::ResolveKernel(options.kernel);
  auto set_bit = [](uint64_t* words, size_t bit) {
    words[bit >> 6] |= uint64_t{1} << (bit & 63);
  };
  std::vector<uint64_t> t_mask(num_words, 0);
  std::vector<uint64_t> f_mask(num_words, 0);
  std::vector<uint64_t> item_supports(dataset.catalog.num_items(), 0);
  for_each_covered_row([&](size_t r, size_t bit) {
    if (outcomes[r] == Outcome::kTrue) set_bit(t_mask.data(), bit);
    if (outcomes[r] == Outcome::kFalse) set_bit(f_mask.data(), bit);
    const uint32_t* row = dataset.cells.data() + r * num_attributes;
    for (size_t a = 0; a < num_attributes; ++a) ++item_supports[row[a]];
  });
  OutcomeCounts totals;
  totals.t = ops.popcount(t_mask.data(), num_bits);
  totals.f = ops.popcount(f_mask.data(), num_bits);
  totals.bot = num_bits - totals.t - totals.f;
  const uint64_t min_count =
      MinCount(options.min_support, result.covered_rows);

  constexpr size_t kNoBitmap = ~size_t{0};
  std::vector<size_t> bitmap_of(item_supports.size(), kNoBitmap);
  size_t num_bitmaps = 0;
  for (size_t id = 0; id < item_supports.size(); ++id) {
    if (item_supports[id] >= min_count) bitmap_of[id] = num_bitmaps++;
  }
  std::vector<uint64_t> item_rows(num_bitmaps * num_words, 0);
  for_each_covered_row([&](size_t r, size_t bit) {
    const uint32_t* row = dataset.cells.data() + r * num_attributes;
    for (size_t a = 0; a < num_attributes; ++a) {
      const size_t b = bitmap_of[row[a]];
      if (b != kNoBitmap) set_bit(item_rows.data() + b * num_words, bit);
    }
  });
  auto rows_of = [&](uint32_t id) {
    return item_rows.data() + bitmap_of[id] * num_words;
  };

  obs::Counter* ubound_skips = obs::MetricsRegistry::Default().GetCounter(
      "fpm.kernel.ubound.skips");
  const size_t num_chunks =
      ParallelChunkCount(options.num_threads, candidates.size());
  // One scratch intersection per worker, reused by its candidates (the
  // kernels allow dst to alias an input). Allocated here so the workers
  // never allocate.
  std::vector<uint64_t> scratch(num_chunks * num_words);
  timer.SetPeakBytes((item_rows.size() + t_mask.size() + f_mask.size() +
                      scratch.size()) *
                     sizeof(uint64_t));
  std::vector<OutcomeCounts> counts(candidates.size());
  ParallelForChunks(
      options.num_threads, candidates.size(),
      [&](size_t chunk, size_t begin, size_t end) {
        uint64_t* dst = scratch.data() + chunk * num_words;
        for (size_t ci = begin; ci < end; ++ci) {
          const Itemset& items = candidates[ci];
          if (fpm::SupportUpperBound(items.data(), items.size(),
                                     item_supports.data(),
                                     item_supports.size()) < min_count) {
            ubound_skips->Increment();
            continue;  // tally stays zero; filtered by the threshold below
          }
          // Surviving candidates hold only items with a bitmap.
          fpm::KernelTally kt;
          if (items.size() == 1) {
            kt = ops.tally(rows_of(items[0]), t_mask.data(), f_mask.data(),
                           num_bits);
          } else {
            kt = ops.and_assign_tally(dst, rows_of(items[0]),
                                      rows_of(items[1]), t_mask.data(),
                                      f_mask.data(), num_bits);
            for (size_t j = 2; j < items.size(); ++j) {
              kt = ops.and_assign_tally(dst, dst, rows_of(items[j]),
                                        t_mask.data(), f_mask.data(),
                                        num_bits);
            }
          }
          counts[ci].t = kt.t;
          counts[ci].f = kt.f;
          counts[ci].bot = kt.support - kt.t - kt.f;
        }
      });
  timer.AddItems(candidates.size());
  timer.Finish();

  // Keep candidates meeting the global threshold, then enforce
  // downward closure: with partial candidate sets (stale-checkpoint
  // degradation) a kept pattern could otherwise lack a sub-pattern,
  // which the analyses built on the table assume present. Candidates
  // are in canonical order, so closure is checked shortest-first and a
  // kept pattern's whole subset chain is kept.
  ItemsetSet kept;
  result.patterns.Append(ItemSpan(), totals);
  for (size_t ci = 0; ci < candidates.size(); ++ci) {
    if (counts[ci].total() < min_count) continue;
    const Itemset& items = candidates[ci];
    bool subsets_present = true;
    if (items.size() > 1) {
      for (size_t j = 0; j < items.size(); ++j) {
        if (kept.find(ItemsetSkipView{items, j}) == kept.end()) {
          subsets_present = false;
          break;
        }
      }
    }
    if (!subsets_present) continue;
    result.patterns.Append(items, counts[ci]);
    kept.insert(std::move(candidates[ci]));
  }
  obs::MetricsRegistry::Default()
      .GetCounter("shard.merge_candidates")
      ->Add(result.candidates);
  return result;
}

}  // namespace shard
}  // namespace divexp
