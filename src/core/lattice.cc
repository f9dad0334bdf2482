#include "core/lattice.h"

#include <cmath>
#include <sstream>

#include "util/string_util.h"

namespace divexp {

namespace {

std::string NodeLabel(const LatticeNode& node, const PatternTable& table,
                      int digits) {
  std::string name =
      node.items.empty() ? "{}" : table.ItemsetName(node.items);
  return name + "\\nΔ=" + FormatDouble(node.divergence, digits);
}

bool AboveThreshold(const LatticeNode& node, double threshold) {
  return !std::isnan(threshold) && node.divergence >= threshold;
}

}  // namespace

std::string LatticeToDot(const Lattice& lattice, const PatternTable& table,
                         const LatticeRenderOptions& options) {
  std::ostringstream os;
  os << "digraph lattice {\n";
  os << "  rankdir=TB;\n  node [fontsize=10];\n";
  for (size_t i = 0; i < lattice.nodes.size(); ++i) {
    const LatticeNode& node = lattice.nodes[i];
    os << "  n" << i << " [label=\""
       << NodeLabel(node, table, options.digits) << "\"";
    if (AboveThreshold(node, options.divergence_threshold)) {
      os << ", shape=box, style=filled, fillcolor=\"#e06060\"";
    } else if (node.corrective) {
      os << ", shape=diamond, style=filled, fillcolor=\"#a8d8ef\"";
    } else {
      os << ", shape=ellipse";
    }
    os << "];\n";
  }
  for (const LatticeEdge& e : lattice.edges) {
    os << "  n" << e.from << " -> n" << e.to << ";\n";
  }
  os << "}\n";
  return os.str();
}

std::string LatticeToAscii(const Lattice& lattice,
                           const PatternTable& table,
                           const LatticeRenderOptions& options) {
  std::ostringstream os;
  size_t level = SIZE_MAX;
  for (const LatticeNode& node : lattice.nodes) {
    if (node.level != level) {
      level = node.level;
      os << "level " << level << ":\n";
    }
    os << "  " << (node.items.empty() ? "{}" : table.ItemsetName(node.items))
       << "  Δ=" << FormatDouble(node.divergence, options.digits);
    if (AboveThreshold(node, options.divergence_threshold)) {
      os << "  [DIVERGENT]";
    }
    if (node.corrective) os << "  [corrective]";
    os << "\n";
  }
  return os.str();
}

std::string LatticeToJson(const Lattice& lattice,
                          const PatternTable& table,
                          const LatticeRenderOptions& options) {
  auto escape = [](const std::string& s) {
    std::string out;
    for (char ch : s) {
      if (ch == '"' || ch == '\\') out += '\\';
      out += ch;
    }
    return out;
  };
  std::ostringstream os;
  os << "{\"target\":\"" << escape(table.ItemsetName(lattice.target))
     << "\",\"nodes\":[";
  for (size_t i = 0; i < lattice.nodes.size(); ++i) {
    const LatticeNode& node = lattice.nodes[i];
    if (i) os << ",";
    os << "{\"id\":" << i << ",\"itemset\":\""
       << escape(node.items.empty() ? ""
                                    : table.ItemsetName(node.items))
       << "\",\"level\":" << node.level << ",\"divergence\":"
       << FormatDouble(node.divergence, 6) << ",\"t\":"
       << FormatDouble(node.t, 4) << ",\"corrective\":"
       << (node.corrective ? "true" : "false") << ",\"highlighted\":"
       << (AboveThreshold(node, options.divergence_threshold) ? "true"
                                                              : "false")
       << "}";
  }
  os << "],\"edges\":[";
  for (size_t i = 0; i < lattice.edges.size(); ++i) {
    if (i) os << ",";
    os << "{\"from\":" << lattice.edges[i].from
       << ",\"to\":" << lattice.edges[i].to << "}";
  }
  os << "]}";
  return os.str();
}

}  // namespace divexp
