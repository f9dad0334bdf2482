// SON-style merge of per-shard mining results into one exact global
// pattern list. The (T, F, ⊥) outcome tallies of Alg. 1 are additive
// over horizontal row partitions, so the classic two-phase argument
// applies: any itemset frequent over the covered rows is locally
// frequent in at least one covered shard (pigeonhole on the per-shard
// MinCount thresholds), hence the union of per-shard results is a
// complete candidate set; phase 2 recounts every candidate exactly
// over the covered rows and keeps those meeting the global threshold.
// The recount is vertical: one bitmap per frequent item over the
// covered rows, and the fused AND + tally kernels per candidate.
// The recount makes the merge independent of shard scheduling, retry
// history and duplicate or partial contributions: the output depends
// only on (dataset, covered rows, candidate union).
#ifndef DIVEXP_SHARD_MERGE_H_
#define DIVEXP_SHARD_MERGE_H_

#include <cstdint>
#include <vector>

#include "data/encoder.h"
#include "fpm/miner.h"
#include "fpm/transactions.h"
#include "obs/stage.h"
#include "util/status.h"

namespace divexp {
namespace shard {

/// One shard's half-open row range [begin, end) in the global dataset.
struct ShardRange {
  size_t begin = 0;
  size_t end = 0;

  size_t size() const { return end - begin; }
};

/// Splits `num_rows` into `num_shards` contiguous ranges whose sizes
/// differ by at most one (the first `num_rows % num_shards` ranges are
/// one row larger). Ranges beyond the row count are empty.
std::vector<ShardRange> MakeShardPlan(size_t num_rows, size_t num_shards);

/// Candidate patterns one shard feeds into the merge, stamped with the
/// fingerprint of the shard data they were mined from. The merge
/// verifies the stamp against the fingerprint it derives from the
/// dataset itself and rejects mismatches — a contribution from the
/// wrong data must never silently bias the tallies.
struct ShardContribution {
  size_t shard = 0;
  uint64_t fingerprint = 0;
  PatternBuffer patterns;
};

struct ShardMergeOptions {
  /// Global relative support threshold (applied to the covered rows).
  double min_support = 0.05;
  /// Itemset length cap; 0 = unbounded. Longer candidates are ignored.
  size_t max_length = 0;
  /// Worker threads for the phase-2 recount.
  size_t num_threads = 1;
  /// Kernel table for the phase-2 bitmap tallies. Every choice yields
  /// the same tallies, so this only affects speed.
  fpm::KernelKind kernel = fpm::KernelKind::kAuto;
  /// Optional per-stage accounting (records obs::kStageShardVerify,
  /// with the recount's bitmap bytes as its peak).
  obs::StageCollector* stages = nullptr;
};

struct ShardMergeResult {
  /// Globally frequent patterns over the covered rows, with exact
  /// tallies, in canonical order; the empty itemset (whole covered
  /// population) is always present, first.
  PatternBuffer patterns;
  /// Rows the tallies describe (sum of the included shards' sizes).
  size_t covered_rows = 0;
  /// Distinct candidates verified in phase 2.
  uint64_t candidates = 0;
};

/// Merges shard contributions into the exact global pattern list over
/// the rows of the shards whose `include_rows` entry is true.
///
/// `plan` and `expected_fingerprints` describe every shard of the run
/// (`expected_fingerprints[i]` is the fingerprint of shard i's data, 0
/// for empty shards); `include_rows[i]` selects whether shard i's rows
/// enter the phase-2 recount. Contributions may come from any shard
/// (including excluded ones — their candidates are still verified over
/// the covered rows, which is how stale-checkpoint degradation stays
/// exact), may overlap, and may be partial; each must carry a
/// fingerprint matching its shard or the merge fails with
/// InvalidArgument.
///
/// The result is downward-closed: a candidate is kept only when all
/// its immediate sub-patterns are kept too (relevant only for partial
/// candidate sets; a complete SON union is closed by construction).
Result<ShardMergeResult> MergeShardContributions(
    const EncodedDataset& dataset, const std::vector<Outcome>& outcomes,
    const std::vector<ShardRange>& plan,
    const std::vector<uint64_t>& expected_fingerprints,
    const std::vector<bool>& include_rows,
    const std::vector<ShardContribution>& contributions,
    const ShardMergeOptions& options);

}  // namespace shard
}  // namespace divexp

#endif  // DIVEXP_SHARD_MERGE_H_
