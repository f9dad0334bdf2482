// Itemset value type: a sorted vector of item ids with hashing and
// subset utilities, plus allocation-free lookup views for the pattern
// table's hot paths.
#ifndef DIVEXP_FPM_ITEMSET_H_
#define DIVEXP_FPM_ITEMSET_H_

#include <algorithm>
#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <vector>

namespace divexp {

/// An itemset is a strictly increasing vector of item ids. The empty
/// vector is the empty itemset (the whole dataset).
using Itemset = std::vector<uint32_t>;

/// Non-owning view of an itemset (or any sorted id sequence). Lets a
/// table answer subset queries without materializing an Itemset — the
/// key enabler of the allocation-free post-pass.
using ItemSpan = std::span<const uint32_t>;

/// View of `items` with the element at position `skip` masked out:
/// the immediate subset K \ {items[skip]} without copying. Hashes and
/// compares equal to the materialized subset.
struct ItemsetSkipView {
  ItemSpan items;
  size_t skip = 0;

  size_t size() const { return items.empty() ? 0 : items.size() - 1; }
};

/// Returns a sorted, deduplicated copy of `items`.
Itemset MakeItemset(std::vector<uint32_t> items);

/// True if `sub` ⊆ `super` (both sorted).
bool IsSubset(const Itemset& sub, const Itemset& super);

/// Sorted union of two itemsets.
Itemset Union(const Itemset& a, const Itemset& b);

/// `a` with the single item `alpha` removed (must be present).
Itemset Without(const Itemset& a, uint32_t alpha);

/// `a` with `alpha` inserted in order (must be absent).
Itemset With(const Itemset& a, uint32_t alpha);

/// Enumerates all subsets of `items` (including empty and full),
/// invoking `fn` on each. Intended for |items| <= ~25.
void ForEachSubset(const Itemset& items,
                   const std::function<void(const Itemset&)>& fn);

/// Test hook: process-wide count of Itemset materializations performed
/// by the helpers above (MakeItemset / Union / Without / With). The
/// allocation-free post-pass asserts a zero delta across its hot loops.
/// Thread-safe (relaxed atomic); monotonically increasing.
uint64_t ItemsetAllocCount();

namespace internal {
/// Bumps the materialization counter (called by the itemset helpers).
void BumpItemsetAlloc();
}  // namespace internal

/// FNV-1a style hash for itemsets, usable in unordered containers.
/// Transparent: hashes Itemset, ItemSpan and ItemsetSkipView to the
/// same value for the same id sequence, enabling heterogeneous lookup
/// without materializing a key.
struct ItemsetHash {
  using is_transparent = void;

  size_t operator()(ItemSpan items) const {
    uint64_t h = 1469598103934665603ULL;
    for (uint32_t id : items) {
      h ^= id + 0x9E3779B97F4A7C15ULL + (h << 6) + (h >> 2);
    }
    return static_cast<size_t>(h);
  }
  size_t operator()(const Itemset& items) const {
    return (*this)(ItemSpan(items));
  }
  size_t operator()(const ItemsetSkipView& view) const {
    uint64_t h = 1469598103934665603ULL;
    for (size_t i = 0; i < view.items.size(); ++i) {
      if (i == view.skip) continue;
      h ^= view.items[i] + 0x9E3779B97F4A7C15ULL + (h << 6) + (h >> 2);
    }
    return static_cast<size_t>(h);
  }
};

/// Transparent equality companion to ItemsetHash.
struct ItemsetEq {
  using is_transparent = void;

  bool operator()(ItemSpan a, ItemSpan b) const {
    return a.size() == b.size() &&
           std::equal(a.begin(), a.end(), b.begin());
  }
  bool operator()(const Itemset& a, const Itemset& b) const {
    return a == b;
  }
  bool operator()(const Itemset& a, ItemSpan b) const {
    return (*this)(ItemSpan(a), b);
  }
  bool operator()(ItemSpan a, const Itemset& b) const {
    return (*this)(a, ItemSpan(b));
  }
  bool operator()(ItemSpan a, const ItemsetSkipView& b) const {
    if (a.size() != b.size()) return false;
    size_t ai = 0;
    for (size_t i = 0; i < b.items.size(); ++i) {
      if (i == b.skip) continue;
      if (a[ai++] != b.items[i]) return false;
    }
    return true;
  }
  bool operator()(const ItemsetSkipView& a, ItemSpan b) const {
    return (*this)(b, a);
  }
};

/// Renders "{3, 7, 12}" for debugging.
std::string ItemsetDebugString(const Itemset& items);

}  // namespace divexp

#endif  // DIVEXP_FPM_ITEMSET_H_
