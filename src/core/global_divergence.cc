#include "core/global_divergence.h"

#include <algorithm>
#include <vector>

#include "obs/stage.h"
#include "obs/trace.h"
#include "stats/special.h"
#include "util/parallel.h"

namespace divexp {
namespace {

// Π_{b in attrs(K)} m_b for the attributes of the items of K.
long double DomainProduct(const ItemCatalog& catalog, ItemSpan k) {
  long double prod = 1.0L;
  for (uint32_t id : k) {
    prod *= static_cast<long double>(
        catalog.domain_size(catalog.item(id).attribute));
  }
  return prod;
}

// The pre-index reference path: one temporary itemset + hash lookup per
// (pattern, item). Kept verbatim for A/B benchmarking and as the oracle
// of the differential tests.
void AccumulateGlobalReference(const PatternTable& table,
                               const std::vector<long double>& fact,
                               size_t num_attrs,
                               std::vector<GlobalItemDivergence>* out) {
  for (size_t i = 0; i < table.size(); ++i) {
    const ItemSpan items = table.row_items(i);
    if (items.empty()) continue;
    const Itemset k(items.begin(), items.end());
    const size_t b = k.size() - 1;  // |B| = |J| for J = K \ {α}
    // Π over B ∪ attr(α) equals the product over all attributes of K.
    const long double denom =
        fact[num_attrs] * DomainProduct(table.catalog(), items);
    const long double weight =
        fact[b] * fact[num_attrs - b - 1] / denom;
    for (uint32_t alpha : k) {
      const Itemset j = Without(k, alpha);
      const Result<double> dj = table.Divergence(j);
      // Subsets of frequent itemsets are frequent; missing J would mean
      // a corrupt table.
      DIVEXP_CHECK(dj.ok());
      (*out)[alpha].global += static_cast<double>(
          weight * (table.divergence(i) - *dj));
    }
  }
}

}  // namespace

std::vector<GlobalItemDivergence> ComputeGlobalItemDivergence(
    const PatternTable& table, const GlobalDivergenceOptions& options) {
  obs::ScopedSpan span(obs::kStageGlobal);
  const ItemCatalog& catalog = table.catalog();
  const size_t num_attrs = catalog.num_attributes();
  const std::vector<long double> fact = Factorials(num_attrs);

  std::vector<GlobalItemDivergence> out(catalog.num_items());
  for (uint32_t id = 0; id < catalog.num_items(); ++id) {
    out[id].item = id;
    if (auto idx = table.Find(ItemSpan(&id, 1)); idx.has_value()) {
      out[id].individual = table.divergence(*idx);
    }
  }
  if (!options.use_lattice_index) {
    AccumulateGlobalReference(table, fact, num_attrs, &out);
    return out;
  }

  // One pass over all frequent patterns: pattern K contributes its
  // marginal Δ(K) − Δ(K \ {α}) to every item α ∈ K, with the Eq. 8
  // weight determined by |K| and the domain sizes of K's attributes.
  // K \ {α} is read straight off the lattice links — no itemset is
  // materialized, no hash is computed. Each chunk accumulates into its
  // own per-item slots; the reduction below runs in chunk order, so the
  // result is deterministic for a fixed thread count.
  const size_t chunks =
      ParallelChunkCount(options.num_threads, table.size());
  std::vector<std::vector<double>> acc(
      chunks, std::vector<double>(catalog.num_items(), 0.0));
  ParallelForChunks(
      options.num_threads, table.size(),
      [&](size_t chunk, size_t begin, size_t end) {
        std::vector<double>& slots = acc[chunk];
        for (size_t i = begin; i < end; ++i) {
          const ItemSpan k = table.row_items(i);
          if (k.empty()) continue;
          const double dk = table.divergence(i);
          const size_t b = k.size() - 1;
          const long double denom =
              fact[num_attrs] * DomainProduct(catalog, k);
          const long double weight =
              fact[b] * fact[num_attrs - b - 1] / denom;
          const std::span<const uint32_t> links = table.row_links(i);
          for (size_t j = 0; j < k.size(); ++j) {
            // kNoLink: the subset was dropped by a guard truncation —
            // skip the contribution (the reference path would abort).
            if (links[j] == PatternTable::kNoLink) continue;
            const double dj = table.divergence(links[j]);
            slots[k[j]] += static_cast<double>(weight * (dk - dj));
          }
        }
      });
  for (size_t chunk = 0; chunk < chunks; ++chunk) {
    for (uint32_t id = 0; id < catalog.num_items(); ++id) {
      out[id].global += acc[chunk][id];
    }
  }
  return out;
}

Result<double> GlobalItemsetDivergence(const PatternTable& table,
                                       const Itemset& itemset) {
  if (itemset.empty()) {
    return Status::InvalidArgument("itemset must be non-empty");
  }
  if (!table.Contains(itemset)) {
    return Status::NotFound("itemset not frequent: " +
                            ItemsetDebugString(itemset));
  }
  const ItemCatalog& catalog = table.catalog();
  const size_t num_attrs = catalog.num_attributes();
  const std::vector<long double> fact = Factorials(num_attrs);
  const size_t i_len = itemset.size();

  long double total = 0.0L;
  for (size_t i = 0; i < table.size(); ++i) {
    const ItemSpan k = table.row_items(i);
    if (k.size() < i_len ||
        !std::includes(k.begin(), k.end(), itemset.begin(), itemset.end())) {
      continue;
    }
    const size_t b = k.size() - i_len;  // |B| = |J|
    const long double denom =
        fact[num_attrs] * DomainProduct(catalog, k);
    const long double weight =
        fact[b] * fact[num_attrs - b - i_len] / denom;
    // Resolve J = K \ I by chasing one lattice link per item of I
    // instead of materializing J and hashing it.
    size_t cur = i;
    bool resolved = true;
    for (uint32_t alpha : itemset) {
      const ItemSpan cur_items = table.row_items(cur);
      const auto pos = std::lower_bound(cur_items.begin(),
                                        cur_items.end(), alpha);
      DIVEXP_CHECK(pos != cur_items.end() && *pos == alpha);
      const uint32_t link = table.row_links(
          cur)[static_cast<size_t>(pos - cur_items.begin())];
      if (link == PatternTable::kNoLink) {
        resolved = false;  // guard-truncated table dropped the subset
        break;
      }
      cur = link;
    }
    if (!resolved) {
      return Status::NotFound("subset dropped by truncation under " +
                              ItemsetDebugString(Itemset(k.begin(), k.end())));
    }
    total += weight * (table.divergence(i) - table.divergence(cur));
  }
  return static_cast<double>(total);
}

}  // namespace divexp
