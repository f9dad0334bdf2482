// Differential cross-miner harness: seeded-PRNG random tables with
// varying arity, NULL density and value skew, plus correlated tables (a
// duplicated column, a column that is a function of another, all rows
// identical), asserting that FP-growth, Apriori and Eclat emit
// byte-identical (itemset, support, outcome-tally) sets at several
// min-support levels and length caps (max_length ∈ {0, 1, 2, 3}),
// across every kernel implementation (scalar and the CPU's SIMD table),
// and that the parallel mining paths (num_threads ∈ {1, 2, 8})
// reproduce the sequential result exactly. The full kernel × miner ×
// threads matrix runs under TSan in CI, so the 8-thread SIMD
// configurations double as a race detector for the mining internals.
#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "fpm/miner.h"
#include "testing/miner_tables.h"

namespace divexp {
namespace {

using testing::MakeMinerTable;
using testing::MinerTable;
using testing::MinerTableSpec;

using PatternMap = std::map<Itemset, OutcomeCounts>;

PatternMap ToMap(const std::vector<MinedPattern>& patterns) {
  PatternMap out;
  for (const MinedPattern& p : patterns) {
    // A miner must never emit the same itemset twice.
    EXPECT_TRUE(out.emplace(p.items, p.counts).second)
        << "duplicate itemset emitted";
  }
  return out;
}

class DifferentialMinerTest
    : public ::testing::TestWithParam<MinerTableSpec> {};

TEST_P(DifferentialMinerTest, MinersAndThreadCountsAgree) {
  const MinerTableSpec& spec = GetParam();
  const MinerTable t = MakeMinerTable(spec);
  auto db = TransactionDatabase::Create(t.dataset, t.outcomes);
  ASSERT_TRUE(db.ok());

  for (double support : {0.02, 0.08, 0.25}) {
    for (size_t max_length : {size_t{0}, size_t{1}, size_t{2}, size_t{3}}) {
      // Sequential scalar-kernel FP-growth is the reference for this
      // support level and length cap.
      MinerOptions ref_opts;
      ref_opts.min_support = support;
      ref_opts.max_length = max_length;
      ref_opts.kernel = fpm::KernelKind::kScalar;
      auto reference = MakeMiner(MinerKind::kFpGrowth)->Mine(*db, ref_opts);
      ASSERT_TRUE(reference.ok());
      const PatternMap expected = ToMap(*reference);
      ASSERT_GE(expected.size(), 1u);  // at least the empty itemset
      if (max_length != 0) {
        for (const auto& [items, counts] : expected) {
          EXPECT_LE(items.size(), max_length);
        }
      }

      for (MinerKind kind :
           {MinerKind::kFpGrowth, MinerKind::kApriori, MinerKind::kEclat}) {
        for (fpm::KernelKind kernel :
             {fpm::KernelKind::kScalar, fpm::KernelKind::kSimd}) {
          for (size_t threads : {size_t{1}, size_t{2}, size_t{8}}) {
            MinerOptions opts = ref_opts;
            opts.num_threads = threads;
            opts.kernel = kernel;
            auto patterns = MakeMiner(kind)->Mine(*db, opts);
            ASSERT_TRUE(patterns.ok());
            EXPECT_EQ(ToMap(*patterns), expected)
                << spec.label << ": " << MinerKindName(kind)
                << " s=" << support << " max_length=" << max_length
                << " threads=" << threads
                << " kernel=" << fpm::KernelKindName(kernel)
                << " diverged from the reference";
          }
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Tables, DifferentialMinerTest,
    ::testing::ValuesIn(testing::MinerTableSpecs()),
    [](const ::testing::TestParamInfo<MinerTableSpec>& info) {
      return info.param.label;
    });

}  // namespace
}  // namespace divexp
