#include "core/lattice.h"

#include <gtest/gtest.h>

#include <cmath>

#include "testing/test_explore.h"

namespace divexp {
namespace {

using testing::ExploreForTest;
using testing::LongItemsetTable;

PatternTable MakeTable() {
  // Three binary attributes with a divergent a0=v1 branch corrected by
  // a2=v1.
  std::vector<std::vector<int>> rows;
  std::string outcomes;
  for (int a0 : {0, 1}) {
    for (int a1 : {0, 1}) {
      for (int a2 : {0, 1}) {
        for (int k = 0; k < 10; ++k) {
          rows.push_back({a0, a1, a2});
          double p = 0.2;
          if (a0 == 1) p = a2 == 1 ? 0.25 : 0.9;
          outcomes += (k < static_cast<int>(p * 10.0)) ? 'T' : 'F';
        }
      }
    }
  }
  return ExploreForTest(rows, {2, 2, 2}, outcomes, 0.01);
}

TEST(LatticeTest, NodeAndEdgeCounts) {
  const PatternTable table = MakeTable();
  // Target {a0=v1, a1=v0, a2=v1} = items {1, 2, 5}.
  auto lattice = BuildLattice(table, Itemset{1, 2, 5});
  ASSERT_TRUE(lattice.ok());
  EXPECT_EQ(lattice->nodes.size(), 8u);   // 2^3 subsets
  EXPECT_EQ(lattice->edges.size(), 12u);  // 3 * 2^2
}

TEST(LatticeTest, LevelsAreSubsetSizesInOrder) {
  const PatternTable table = MakeTable();
  auto lattice = BuildLattice(table, Itemset{1, 2, 5});
  ASSERT_TRUE(lattice.ok());
  size_t last_level = 0;
  for (const LatticeNode& node : lattice->nodes) {
    EXPECT_EQ(node.level, node.items.size());
    EXPECT_GE(node.level, last_level);
    last_level = node.level;
  }
  EXPECT_TRUE(lattice->nodes.front().items.empty());
  EXPECT_EQ(lattice->nodes.back().items, (Itemset{1, 2, 5}));
}

TEST(LatticeTest, EdgesConnectDirectSubsets) {
  const PatternTable table = MakeTable();
  auto lattice = BuildLattice(table, Itemset{1, 2, 5});
  ASSERT_TRUE(lattice.ok());
  for (const LatticeEdge& e : lattice->edges) {
    const LatticeNode& from = lattice->nodes[e.from];
    const LatticeNode& to = lattice->nodes[e.to];
    EXPECT_EQ(from.level + 1, to.level);
    EXPECT_TRUE(IsSubset(from.items, to.items));
  }
}

TEST(LatticeTest, DivergenceMatchesTable) {
  const PatternTable table = MakeTable();
  auto lattice = BuildLattice(table, Itemset{1, 2, 5});
  ASSERT_TRUE(lattice.ok());
  for (const LatticeNode& node : lattice->nodes) {
    EXPECT_NEAR(node.divergence, *table.Divergence(node.items), 1e-12);
  }
}

TEST(LatticeTest, CorrectiveNodesFlagged) {
  const PatternTable table = MakeTable();
  auto lattice = BuildLattice(table, Itemset{1, 2, 5});
  ASSERT_TRUE(lattice.ok());
  // {a0=v1, a2=v1} (items {1, 5}) must be corrective: |Δ| drops vs
  // {a0=v1}.
  bool found = false;
  for (const LatticeNode& node : lattice->nodes) {
    if (node.items == Itemset({1, 5})) {
      EXPECT_TRUE(node.corrective);
      found = true;
    }
    if (node.items == Itemset({1})) {
      EXPECT_FALSE(node.corrective);  // parent is the root (Δ = 0)
    }
  }
  EXPECT_TRUE(found);
}

TEST(LatticeTest, TargetMustBeFrequent) {
  const PatternTable table = MakeTable();
  EXPECT_FALSE(BuildLattice(table, Itemset{0, 999}).ok());
}

TEST(LatticeRenderTest, DotContainsNodesEdgesAndShapes) {
  const PatternTable table = MakeTable();
  auto lattice = BuildLattice(table, Itemset{1, 2, 5});
  ASSERT_TRUE(lattice.ok());
  LatticeRenderOptions opts;
  opts.divergence_threshold = 0.15;
  const std::string dot = LatticeToDot(*lattice, table, opts);
  EXPECT_NE(dot.find("digraph lattice"), std::string::npos);
  EXPECT_NE(dot.find("->"), std::string::npos);
  EXPECT_NE(dot.find("diamond"), std::string::npos);  // corrective node
  EXPECT_NE(dot.find("box"), std::string::npos);      // divergent node
  EXPECT_NE(dot.find("a0=v1"), std::string::npos);
}

TEST(LatticeRenderTest, AsciiListsAllLevels) {
  const PatternTable table = MakeTable();
  auto lattice = BuildLattice(table, Itemset{1, 2, 5});
  ASSERT_TRUE(lattice.ok());
  const std::string ascii = LatticeToAscii(*lattice, table);
  for (int level = 0; level <= 3; ++level) {
    EXPECT_NE(ascii.find("level " + std::to_string(level) + ":"),
              std::string::npos);
  }
  EXPECT_NE(ascii.find("[corrective]"), std::string::npos);
  EXPECT_NE(ascii.find("[DIVERGENT]"), std::string::npos);
}

TEST(LatticeRenderTest, JsonIsWellFormedAndComplete) {
  const PatternTable table = MakeTable();
  auto lattice = BuildLattice(table, Itemset{1, 2, 5});
  ASSERT_TRUE(lattice.ok());
  const std::string json = LatticeToJson(*lattice, table);
  // Structural markers.
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
  EXPECT_NE(json.find("\"nodes\":["), std::string::npos);
  EXPECT_NE(json.find("\"edges\":["), std::string::npos);
  EXPECT_NE(json.find("\"corrective\":true"), std::string::npos);
  // One node object per subset (8), one edge object per cover pair (12).
  size_t node_count = 0, pos = 0;
  while ((pos = json.find("\"level\":", pos)) != std::string::npos) {
    ++node_count;
    ++pos;
  }
  EXPECT_EQ(node_count, 8u);
  size_t edge_count = 0;
  pos = 0;
  while ((pos = json.find("\"from\":", pos)) != std::string::npos) {
    ++edge_count;
    ++pos;
  }
  EXPECT_EQ(edge_count, 12u);
}

TEST(LatticeRenderTest, ThresholdNanDisablesHighlighting) {
  const PatternTable table = MakeTable();
  auto lattice = BuildLattice(table, Itemset{1, 2, 5});
  ASSERT_TRUE(lattice.ok());
  LatticeRenderOptions opts;
  opts.divergence_threshold = std::nan("");
  const std::string ascii = LatticeToAscii(*lattice, table, opts);
  EXPECT_EQ(ascii.find("[DIVERGENT]"), std::string::npos);
}

TEST(LatticeTest, RejectsTargetsBeyondTheSubsetCap) {
  // A 26-item target has 2^26 subsets; the lattice must refuse it with
  // a clean error instead of reaching ForEachSubset's 25-item CHECK.
  const PatternTable table = LongItemsetTable(26);
  const Itemset& target = table.row(1).items;
  auto lattice = BuildLattice(table, target);
  ASSERT_FALSE(lattice.ok());
  EXPECT_EQ(lattice.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(lattice.status().message().find("at most 24"),
            std::string::npos)
      << lattice.status().ToString();
}

}  // namespace
}  // namespace divexp
