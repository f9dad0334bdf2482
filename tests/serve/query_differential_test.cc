// Differential check of the table layout: every analysis run on the
// mmap'd artifact's TableView must be bit-identical to the same
// analysis on the in-memory PatternTable it was written from. Both
// runs share one implementation (core/), so this compares the two read
// surfaces — columns, links, lookup — not the algorithms; the
// from-definition oracles in tests/core check those. Exact double
// equality throughout: any drift is a bug, not tolerance noise.
#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <vector>

#include "core/corrective.h"
#include "core/lattice.h"
#include "core/shapley.h"
#include "recovery/atomic_file.h"
#include "serve/artifact.h"
#include "serve/server.h"
#include "testing/table_bytes.h"
#include "testing/test_explore.h"
#include "util/random.h"

namespace divexp {
namespace serve {
namespace {

using divexp::testing::ExploreForTest;
using divexp::testing::TableBytes;

std::string TempDir(const std::string& leaf) {
  const char* base = std::getenv("TMPDIR");
  std::string dir = std::string(base != nullptr ? base : "/tmp") +
                    "/divexp_query_diff_test/" + leaf;
  DIVEXP_CHECK_OK(recovery::EnsureDirectory(dir));
  return dir;
}

PatternTable MakeRandomTable(uint64_t seed, size_t rows = 160,
                             size_t attrs = 4, int domain = 2,
                             double support = 0.02) {
  Rng rng(seed);
  std::vector<std::vector<int>> cells(rows, std::vector<int>(attrs));
  std::string outcomes;
  for (size_t r = 0; r < rows; ++r) {
    for (size_t a = 0; a < attrs; ++a) {
      cells[r][a] = static_cast<int>(rng.Below(domain));
    }
    const double u = rng.Uniform();
    outcomes += (u < 0.35 ? 'T' : u < 0.8 ? 'F' : 'B');
  }
  return ExploreForTest(cells, std::vector<int>(attrs, domain), outcomes,
                        support);
}

/// The reference table plus the artifact written from it, mmap'd.
struct Harness {
  PatternTable table;
  std::unique_ptr<PatternTableArtifact> artifact;

  explicit Harness(uint64_t seed, const std::string& leaf)
      : table(MakeRandomTable(seed)) {
    const std::string path = TempDir(leaf) + "/table.dvt";
    DIVEXP_CHECK_OK(WritePatternTableArtifact(path, table));
    auto opened = PatternTableArtifact::Open(path);
    DIVEXP_CHECK_OK(opened.status());
    artifact = std::move(opened).value();
  }
};

TEST(QueryDifferentialTest, TopKMatchesPatternTableTopK) {
  for (uint64_t seed : {1u, 2u, 3u}) {
    Harness h(seed, "topk" + std::to_string(seed));
    for (size_t k : {size_t{1}, size_t{5}, size_t{10000}}) {
      for (bool descending : {true, false}) {
        for (double min_support : {0.0, 0.05}) {
          const std::vector<size_t> expected =
              h.table.TopK(k, descending, min_support, /*min_len=*/1,
                           /*max_len=*/2);
          TopKQuery query;
          query.k = k;
          query.descending = descending;
          query.min_support = min_support;
          query.max_len = 2;
          auto got = TopKRows(h.artifact->view(), query);
          ASSERT_TRUE(got.ok());
          EXPECT_EQ(*got, expected)
              << "k=" << k << " desc=" << descending
              << " min_support=" << min_support;
        }
      }
    }
  }
}

TEST(QueryDifferentialTest, UnboundedTopKMatchesRankForEveryKey) {
  Harness h(4, "rank");
  for (const auto key :
       {PatternTable::RankKey::kDivergence,
        PatternTable::RankKey::kSignificance,
        PatternTable::RankKey::kSupport}) {
    for (bool descending : {true, false}) {
      const std::vector<size_t> expected = h.table.Rank(key, descending);
      TopKQuery query;
      query.k = h.table.size() + 1;  // no truncation: Rank equivalence
      query.key = key;
      query.descending = descending;
      auto got = TopKRows(h.artifact->view(), query);
      ASSERT_TRUE(got.ok());
      EXPECT_EQ(*got, expected) << "desc=" << descending;
    }
  }
}

TEST(QueryDifferentialTest, ShapleyIsBitIdenticalForEveryRow) {
  for (uint64_t seed : {5u, 6u}) {
    Harness h(seed, "shapley" + std::to_string(seed));
    for (size_t i = 0; i < h.table.size(); ++i) {
      const Itemset& items = h.table.row(i).items;
      if (items.empty()) continue;
      auto expected = ShapleyContributions(h.table, items);
      ASSERT_TRUE(expected.ok());
      auto got = ShapleyContributions(h.artifact->view(), items);
      ASSERT_TRUE(got.ok());
      ASSERT_EQ(got->size(), expected->size());
      for (size_t j = 0; j < got->size(); ++j) {
        EXPECT_EQ((*got)[j].item, (*expected)[j].item);
        // Bit-identical, not approximately equal.
        EXPECT_EQ((*got)[j].contribution, (*expected)[j].contribution)
            << "row " << i << " item " << j;
      }
    }
  }
}

TEST(QueryDifferentialTest, BrowseMatchesBuildLattice) {
  Harness h(7, "browse");
  size_t targets = 0;
  for (size_t i = 0; i < h.table.size(); ++i) {
    const Itemset& target = h.table.row(i).items;
    if (target.size() < 2) continue;
    ++targets;
    auto expected = BuildLattice(h.table, target);
    ASSERT_TRUE(expected.ok());
    auto got = BuildLattice(h.artifact->view(), target);
    ASSERT_TRUE(got.ok());
    ASSERT_EQ(got->nodes.size(), expected->nodes.size());
    for (size_t n = 0; n < got->nodes.size(); ++n) {
      const LatticeNode& a = got->nodes[n];
      const LatticeNode& b = expected->nodes[n];
      EXPECT_EQ(a.items, b.items);
      EXPECT_EQ(a.level, b.level);
      EXPECT_EQ(a.divergence, b.divergence);
      EXPECT_EQ(a.t, b.t);
      EXPECT_EQ(a.frequent, b.frequent);
      EXPECT_EQ(a.corrective, b.corrective);
    }
    ASSERT_EQ(got->edges.size(), expected->edges.size());
    for (size_t e = 0; e < got->edges.size(); ++e) {
      EXPECT_EQ(got->edges[e].from, expected->edges[e].from);
      EXPECT_EQ(got->edges[e].to, expected->edges[e].to);
    }
  }
  ASSERT_GT(targets, 0u) << "test table has no multi-item patterns";
}

TEST(QueryDifferentialTest, CorrectiveMatchesFindCorrectiveItems) {
  Harness h(8, "corrective");
  for (double min_factor : {0.0, 0.01}) {
    for (size_t top_k : {size_t{0}, size_t{5}}) {
      CorrectiveOptions options;
      options.min_factor = min_factor;
      options.top_k = top_k;
      const std::vector<CorrectiveItem> expected =
          FindCorrectiveItems(h.table, options);
      auto got = ScanCorrectiveItems(h.artifact->view(), options);
      ASSERT_TRUE(got.ok());
      ASSERT_EQ(got->size(), expected.size())
          << "min_factor=" << min_factor << " k=" << top_k;
      for (size_t j = 0; j < got->size(); ++j) {
        EXPECT_EQ((*got)[j].base, expected[j].base);
        EXPECT_EQ((*got)[j].item, expected[j].item);
        EXPECT_EQ((*got)[j].base_divergence,
                  expected[j].base_divergence);
        EXPECT_EQ((*got)[j].with_divergence,
                  expected[j].with_divergence);
        EXPECT_EQ((*got)[j].factor, expected[j].factor);
        EXPECT_EQ((*got)[j].t, expected[j].t);
      }
    }
  }
}

TEST(QueryDifferentialTest, ErrorMessagesMatchTheCoreImplementations) {
  Harness h(10, "errors");
  // Two items of the same attribute never co-occur, so this itemset is
  // guaranteed infrequent whatever the seed produced.
  const Itemset missing{0, 1};
  ASSERT_FALSE(h.table.Contains(missing));
  auto core_shapley = ShapleyContributions(h.table, missing);
  auto core_lattice = BuildLattice(h.table, missing);
  const TableView& view = h.artifact->view();
  auto shapley = ShapleyContributions(view, missing);
  ASSERT_FALSE(shapley.ok());
  EXPECT_EQ(shapley.status().ToString(),
            core_shapley.status().ToString());
  auto browse = BuildLattice(view, missing);
  ASSERT_FALSE(browse.ok());
  EXPECT_EQ(browse.status().ToString(),
            core_lattice.status().ToString());
}

TEST(QueryDifferentialTest, CancelledGuardStopsEveryQuery) {
  Harness h(11, "guard");
  RunGuard guard;
  guard.RequestCancel();
  const TableView& view = h.artifact->view();
  EXPECT_EQ(TopKRows(view, TopKQuery{}, &guard).status().code(),
            StatusCode::kCancelled);
  EXPECT_EQ(ScanCorrectiveItems(view, CorrectiveOptions{}, &guard)
                .status()
                .code(),
            StatusCode::kCancelled);
  // Browse / Shapley need a valid multi-item target to reach the
  // guarded loops.
  for (size_t i = 0; i < h.table.size(); ++i) {
    const Itemset& items = h.table.row(i).items;
    if (items.size() < 2) continue;
    EXPECT_EQ(BuildLattice(view, items, &guard).status().code(),
              StatusCode::kCancelled);
    EXPECT_EQ(ShapleyContributions(view, items, &guard).status().code(),
              StatusCode::kCancelled);
    break;
  }
}

TEST(QueryDifferentialTest, BufferAndMappedArtifactsAnswerIdentically) {
  // The same bytes attached two ways — mmap'd from the file the writer
  // produced, and copied from SerializePatternTableArtifact in memory —
  // must give byte-identical responses to every verb.
  Harness h(12, "buffer");
  auto from_buffer = PatternTableArtifact::FromBuffer(TableBytes(h.table));
  ASSERT_TRUE(from_buffer.ok()) << from_buffer.status().ToString();
  ServingTable mapped;
  mapped.artifact = std::move(h.artifact);
  ServingTable buffered;
  buffered.artifact = std::move(from_buffer).value();
  QueryServiceOptions no_cache;
  no_cache.cache_enabled = false;
  QueryService mapped_service(&mapped, no_cache);
  QueryService buffered_service(&buffered, no_cache);

  std::vector<std::string> lines = {
      "stats", "topk k=5", "topk k=7 key=support order=asc",
      "topk k=3 key=significance min_support=0.1", "corrective k=5"};
  const TableView& view = mapped.view();
  for (size_t i = 1; i < view.size(); ++i) {
    std::string spec;
    const ItemSpan items = view.row_items(i);
    for (size_t j = 0; j < items.size(); ++j) {
      if (j) spec += ',';
      spec += view.catalog->ItemName(items[j]);
    }
    lines.push_back("shapley items=" + spec);
    lines.push_back("browse items=" + spec);
  }
  for (const std::string& line : lines) {
    const std::string response = mapped_service.HandleLine(line);
    EXPECT_NE(response.find("\"ok\":true"), std::string::npos)
        << line << " -> " << response;
    EXPECT_EQ(buffered_service.HandleLine(line), response) << line;
  }
}

}  // namespace
}  // namespace serve
}  // namespace divexp
