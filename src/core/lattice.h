// Itemset-lattice extraction for visual exploration (paper §6.4,
// Fig. 11): the sub-lattice of all subsets of a pattern, annotated with
// divergence, significance, threshold highlighting and corrective-
// phenomenon markers, rendered to Graphviz DOT or ASCII.
#ifndef DIVEXP_CORE_LATTICE_H_
#define DIVEXP_CORE_LATTICE_H_

#include <algorithm>
#include <cmath>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/pattern.h"
#include "core/shapley.h"
#include "util/run_guard.h"
#include "util/status.h"

namespace divexp {

/// One lattice node (an itemset J ⊆ target).
struct LatticeNode {
  Itemset items;
  size_t level = 0;          ///< |items|
  double divergence = 0.0;
  double t = 0.0;
  bool frequent = true;
  /// True if some direct subset J' has |Δ(J)| < |Δ(J')|, i.e. the last
  /// added item acted correctively (Fig. 11's rhombus nodes).
  bool corrective = false;
};

/// Edge from a subset node to its (|J|+1)-item superset node.
struct LatticeEdge {
  size_t from = 0;
  size_t to = 0;
};

/// The sub-lattice below one target pattern.
struct Lattice {
  Itemset target;
  std::vector<LatticeNode> nodes;  ///< level order: root first
  std::vector<LatticeEdge> edges;
};

/// Rendering options.
struct LatticeRenderOptions {
  /// Highlight nodes with divergence >= threshold (Fig. 11's red
  /// squares). NaN disables highlighting.
  double divergence_threshold = 0.15;
  /// Decimal places for divergence labels.
  int digits = 2;
};

/// Builds the full subset lattice of `target` from any table read
/// surface (core/pattern.h). `target` must be in the table; on a
/// complete exploration all its subsets are then present too. The
/// 2^n subsets are enumerated, so targets beyond kMaxShapleyItems are
/// rejected with InvalidArgument, as Shapley rejects them.
template <typename Table>
Result<Lattice> BuildLattice(const Table& table, const Itemset& target,
                             RunGuard* guard = nullptr) {
  if (target.size() > kMaxShapleyItems) {
    return Status::InvalidArgument(
        "lattice accepts at most " + std::to_string(kMaxShapleyItems) +
        " items, got " + std::to_string(target.size()) +
        ": the lattice enumerates 2^n subsets");
  }
  if (!table.Find(ItemSpan(target)).has_value()) {
    return Status::NotFound("target itemset not frequent: " +
                            ItemsetDebugString(target));
  }
  Lattice lattice;
  lattice.target = target;

  std::vector<Itemset> subsets;
  ForEachSubset(target, [&](const Itemset& s) { subsets.push_back(s); });
  std::sort(subsets.begin(), subsets.end(),
            [](const Itemset& a, const Itemset& b) {
              if (a.size() != b.size()) return a.size() < b.size();
              return a < b;
            });

  std::unordered_map<Itemset, size_t, ItemsetHash, ItemsetEq> node_index;
  for (const Itemset& s : subsets) {
    if (guard != nullptr && !guard->Tick()) {
      return internal::GuardStopStatus(guard);
    }
    LatticeNode node;
    node.items = s;
    node.level = s.size();
    const auto idx = table.Find(ItemSpan(s));
    if (idx.has_value()) {
      node.divergence = table.divergence(*idx);
      node.t = table.t(*idx);
    } else {
      node.frequent = false;  // only on guard-truncated tables
    }
    node_index.emplace(s, lattice.nodes.size());
    lattice.nodes.push_back(std::move(node));
  }

  for (size_t i = 0; i < lattice.nodes.size(); ++i) {
    LatticeNode& node = lattice.nodes[i];
    if (node.items.empty()) continue;
    if (guard != nullptr && !guard->Tick()) {
      return internal::GuardStopStatus(guard);
    }
    for (size_t j = 0; j < node.items.size(); ++j) {
      // Parent = items \ {items[j]}, looked up through the transparent
      // hash without materializing the subset.
      const auto it =
          node_index.find(ItemsetSkipView{ItemSpan(node.items), j});
      DIVEXP_CHECK(it != node_index.end());
      lattice.edges.push_back(LatticeEdge{it->second, i});
      const LatticeNode& parent_node = lattice.nodes[it->second];
      if (std::fabs(node.divergence) < std::fabs(parent_node.divergence)) {
        node.corrective = true;
      }
    }
  }
  return lattice;
}

/// Graphviz DOT rendering (rhombus = corrective, red box = above the
/// divergence threshold).
std::string LatticeToDot(const Lattice& lattice, const PatternTable& table,
                         const LatticeRenderOptions& options = {});

/// Plain-text rendering, one level per block.
std::string LatticeToAscii(const Lattice& lattice,
                           const PatternTable& table,
                           const LatticeRenderOptions& options = {});

/// JSON rendering ({"nodes": [...], "edges": [...]}) for interactive
/// front ends (the paper's §6.4 lattice visualization).
std::string LatticeToJson(const Lattice& lattice,
                          const PatternTable& table,
                          const LatticeRenderOptions& options = {});

}  // namespace divexp

#endif  // DIVEXP_CORE_LATTICE_H_
