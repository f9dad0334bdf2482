// Seeded random tables for the miner tests: mixed arity, NULL density
// and value skew, plus correlated shapes (a duplicated column, a column
// that is a function of another, all rows identical) that produce
// support ties and FP-trees that are a single path.
#ifndef DIVEXP_TESTS_TESTING_MINER_TABLES_H_
#define DIVEXP_TESTS_TESTING_MINER_TABLES_H_

#include <algorithm>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "data/encoder.h"
#include "fpm/transactions.h"
#include "testing/test_data.h"
#include "util/random.h"

namespace divexp {
namespace testing {

/// How the last attribute (or every row) is tied to the rest.
enum class Correlation {
  kNone,
  /// The last column repeats column 0 (equal domains).
  kDuplicateColumn,
  /// The last column is column 0's value modulo its own domain.
  kFunctionOfColumn,
  /// Every row repeats row 0, so the top-level FP-tree is one path.
  kIdenticalRows,
};

struct MinerTableSpec {
  std::string label;
  uint64_t seed;
  size_t rows;
  /// Per-attribute domain sizes (mixed arity is the point).
  std::vector<int> domains;
  /// Probability that a cell takes the dedicated "missing" category
  /// (value 0) — the post-discretization representation of NULLs.
  double null_prob;
  /// Geometric skew toward low value indices; 0 = uniform.
  double skew;
  Correlation correlation = Correlation::kNone;
};

inline std::vector<MinerTableSpec> MinerTableSpecs() {
  return {
      {"uniform_small_arity", 11, 240, {2, 3, 3, 2, 4}, 0.0, 0.0},
      {"nulls_mixed_arity", 23, 320, {3, 5, 2, 4, 3, 2}, 0.25, 0.0},
      {"heavy_skew", 37, 400, {4, 4, 6, 3, 2}, 0.05, 0.6},
      {"wide_arity_sparse", 53, 300, {8, 2, 5, 7, 3}, 0.15, 0.35},
      {"duplicated_column", 61, 280, {4, 3, 5, 2, 4}, 0.1, 0.3,
       Correlation::kDuplicateColumn},
      {"function_of_column", 67, 300, {6, 3, 4, 2, 3}, 0.05, 0.2,
       Correlation::kFunctionOfColumn},
      {"identical_rows", 71, 120, {3, 4, 2, 5, 3, 2, 4}, 0.0, 0.0,
       Correlation::kIdenticalRows},
  };
}

struct MinerTable {
  EncodedDataset dataset;
  std::vector<Outcome> outcomes;
};

inline MinerTable MakeMinerTable(const MinerTableSpec& spec) {
  Rng rng(spec.seed);
  std::vector<std::vector<int>> cells(spec.rows,
                                      std::vector<int>(spec.domains.size()));
  std::vector<Outcome> outcomes(spec.rows);
  for (size_t r = 0; r < spec.rows; ++r) {
    for (size_t a = 0; a < spec.domains.size(); ++a) {
      const int domain = spec.domains[a];
      int v = 0;
      if (rng.Uniform() >= spec.null_prob) {
        // Geometric walk away from the sentinel: high skew piles the
        // mass on a few values, which is what stresses the miners'
        // header ordering / tid-list intersection differently.
        v = 1 + static_cast<int>(rng.Below(static_cast<uint64_t>(
                std::max(1, domain - 1))));
        while (v > 1 && rng.Uniform() < spec.skew) --v;
      }
      cells[r][a] = v;
    }
    // Outcome distribution correlated with the first attribute so the
    // tallies differ across itemsets (not just the supports).
    const double bias = cells[r][0] == 0 ? 0.55 : 0.25;
    const double u = rng.Uniform();
    outcomes[r] = u < bias         ? Outcome::kTrue
                  : u < bias + 0.3 ? Outcome::kFalse
                                   : Outcome::kBottom;
  }
  const size_t last = spec.domains.size() - 1;
  for (std::vector<int>& row : cells) {
    switch (spec.correlation) {
      case Correlation::kNone:
        break;
      case Correlation::kDuplicateColumn:
        row[last] = row[0];
        break;
      case Correlation::kFunctionOfColumn:
        row[last] = row[0] % spec.domains[last];
        break;
      case Correlation::kIdenticalRows:
        row = cells[0];
        break;
    }
  }
  MinerTable t;
  t.dataset = MakeEncoded(cells, spec.domains);
  t.outcomes = std::move(outcomes);
  return t;
}

}  // namespace testing
}  // namespace divexp

#endif  // DIVEXP_TESTS_TESTING_MINER_TABLES_H_
