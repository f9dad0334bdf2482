#include "core/report.h"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "util/string_util.h"

namespace divexp {
namespace {

std::string Bar(double value, double max_abs, size_t width) {
  if (max_abs <= 0.0) return "";
  const size_t len = static_cast<size_t>(
      std::round(std::fabs(value) / max_abs * static_cast<double>(width)));
  return std::string(len, value >= 0 ? '#' : '-');
}

}  // namespace

std::string FormatPatternRows(const PatternTable& table,
                              const std::vector<size_t>& indices,
                              const std::string& delta_label) {
  size_t name_width = 7;
  for (size_t i : indices) {
    name_width = std::max(
        name_width, ItemsetName(table.catalog(), table.row_items(i)).size());
  }
  std::ostringstream os;
  os << Pad("Itemset", name_width) << " | " << Pad("Sup", 5) << " | "
     << Pad(delta_label, 8) << " | " << Pad("t", 6) << "\n";
  for (size_t i : indices) {
    os << Pad(ItemsetName(table.catalog(), table.row_items(i)), name_width)
       << " | " << Pad(FormatDouble(table.support(i), 2), 5, true) << " | "
       << Pad(FormatDouble(table.divergence(i), 3), 8, true) << " | "
       << Pad(FormatDouble(table.t(i), 1), 6, true) << "\n";
  }
  return os.str();
}

std::string FormatContributions(
    const PatternTable& table,
    const std::vector<ItemContribution>& contributions) {
  std::vector<ItemContribution> sorted = contributions;
  std::stable_sort(sorted.begin(), sorted.end(),
                   [](const ItemContribution& a, const ItemContribution& b) {
                     return a.contribution > b.contribution;
                   });
  size_t name_width = 4;
  double max_abs = 0.0;
  for (const ItemContribution& c : sorted) {
    name_width =
        std::max(name_width, table.catalog().ItemName(c.item).size());
    max_abs = std::max(max_abs, std::fabs(c.contribution));
  }
  std::ostringstream os;
  for (const ItemContribution& c : sorted) {
    os << Pad(table.catalog().ItemName(c.item), name_width) << " "
       << Pad(FormatDouble(c.contribution, 3), 7, true) << " "
       << Bar(c.contribution, max_abs, 40) << "\n";
  }
  return os.str();
}

std::string FormatCorrectiveItems(const PatternTable& table,
                                  const std::vector<CorrectiveItem>& items,
                                  size_t top_k) {
  const size_t n =
      top_k == 0 ? items.size() : std::min(top_k, items.size());
  size_t name_width = 1;
  size_t item_width = 10;
  for (size_t i = 0; i < n; ++i) {
    name_width = std::max(name_width,
                          table.ItemsetName(items[i].base).size());
    item_width = std::max(item_width,
                          table.catalog().ItemName(items[i].item).size());
  }
  std::ostringstream os;
  os << Pad("I", name_width) << " | " << Pad("corr. item", item_width)
     << " | " << Pad("D(I)", 7) << " | " << Pad("D(I+a)", 7) << " | "
     << Pad("c_f", 6) << " | " << Pad("t", 5) << "\n";
  for (size_t i = 0; i < n; ++i) {
    const CorrectiveItem& c = items[i];
    os << Pad(table.ItemsetName(c.base), name_width) << " | "
       << Pad(table.catalog().ItemName(c.item), item_width) << " | "
       << Pad(FormatDouble(c.base_divergence, 3), 7, true) << " | "
       << Pad(FormatDouble(c.with_divergence, 3), 7, true) << " | "
       << Pad(FormatDouble(c.factor, 3), 6, true) << " | "
       << Pad(FormatDouble(c.t, 1), 5, true) << "\n";
  }
  return os.str();
}

std::string FormatGlobalDivergence(
    const PatternTable& table,
    const std::vector<GlobalItemDivergence>& items, size_t top_k) {
  std::vector<GlobalItemDivergence> sorted = items;
  std::stable_sort(sorted.begin(), sorted.end(),
                   [](const GlobalItemDivergence& a,
                      const GlobalItemDivergence& b) {
                     return a.global > b.global;
                   });
  if (top_k != 0 && sorted.size() > top_k) sorted.resize(top_k);
  size_t name_width = 4;
  double max_abs = 1e-12;
  for (const GlobalItemDivergence& g : sorted) {
    name_width =
        std::max(name_width, table.catalog().ItemName(g.item).size());
    max_abs = std::max(max_abs, std::fabs(g.global));
    max_abs = std::max(max_abs, std::fabs(g.individual));
  }
  std::ostringstream os;
  os << Pad("item", name_width) << " | " << Pad("global", 8) << " | "
     << Pad("individual", 10) << "\n";
  for (const GlobalItemDivergence& g : sorted) {
    os << Pad(table.catalog().ItemName(g.item), name_width) << " | "
       << Pad(FormatDouble(g.global, 4), 8, true) << " | "
       << Pad(FormatDouble(g.individual, 4), 10, true) << "  g:"
       << Pad(Bar(g.global, max_abs, 24), 24) << " i:"
       << Bar(g.individual, max_abs, 24) << "\n";
  }
  return os.str();
}

}  // namespace divexp
