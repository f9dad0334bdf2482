// One flat, columnar buffer of mined patterns, in emission order. The
// miners append rows to it; PatternTable::Create (core/pattern.h) reads
// it in canonical order and gathers it into the table's columns. The
// columns have the types of core/table_columns.h:
//
//   column   type  per row
//   items    u32   |I| item ids; row i owns [offsets[i], offsets[i+1])
//   offsets  u64   1, plus a final sentinel
//   tallies  u64   kTalliesPerRow: (t, f, bot)
//
// No row owns a heap object, so emitting a pattern allocates nothing
// beyond the columns' amortized growth.
//
// CanonicalOrder computes the canonical row order — ascending itemset
// length, then lexicographic items — without comparing rows: a counting
// sort by length, then an LSD radix sort of each length group by item
// position, the item id being the digit. CanonicalFind is the binary
// search that canonical order allows.
#ifndef DIVEXP_FPM_PATTERN_BUFFER_H_
#define DIVEXP_FPM_PATTERN_BUFFER_H_

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "fpm/itemset.h"
#include "fpm/transactions.h"
#include "util/status.h"

namespace divexp {

/// Outcome tallies per row: (t, f, bot).
inline constexpr size_t kTalliesPerRow = 3;

/// One mined frequent itemset with its outcome tallies: a by-value copy
/// of one PatternBuffer row.
struct MinedPattern {
  Itemset items;
  OutcomeCounts counts;
};

class PatternBuffer {
 public:
  PatternBuffer() = default;
  explicit PatternBuffer(const std::vector<MinedPattern>& patterns) {
    Reserve(patterns.size(), 0);
    for (const MinedPattern& p : patterns) Append(p.items, p.counts);
  }

  /// Bytes one row of `num_items` items holds: its items, its offset
  /// and its tallies. MineControl charges this per emitted pattern.
  static constexpr uint64_t RowBytes(size_t num_items) {
    return num_items * sizeof(uint32_t) + sizeof(uint64_t) +
           kTalliesPerRow * sizeof(uint64_t);
  }

  size_t size() const { return offsets_.empty() ? 0 : offsets_.size() - 1; }
  bool empty() const { return size() == 0; }

  ItemSpan row_items(size_t i) const {
    return ItemSpan(items_).subspan(offsets_[i],
                                    offsets_[i + 1] - offsets_[i]);
  }
  OutcomeCounts counts(size_t i) const {
    const uint64_t* t = tallies_.data() + kTalliesPerRow * i;
    return OutcomeCounts{t[0], t[1], t[2]};
  }

  void Reserve(size_t rows, size_t items) {
    items_.reserve(items);
    offsets_.reserve(rows + 1);
    tallies_.reserve(kTalliesPerRow * rows);
  }

  /// Appends one row.
  void Append(ItemSpan items, const OutcomeCounts& counts) {
    if (offsets_.empty()) offsets_.push_back(0);
    items_.insert(items_.end(), items.begin(), items.end());
    offsets_.push_back(items_.size());
    tallies_.insert(tallies_.end(), {counts.t, counts.f, counts.bot});
  }

  /// Appends every row of `other`, in order.
  void Append(const PatternBuffer& other) {
    if (other.empty()) return;
    if (offsets_.empty()) offsets_.push_back(0);
    const uint64_t base = items_.size();
    items_.insert(items_.end(), other.items_.begin(), other.items_.end());
    for (size_t i = 1; i < other.offsets_.size(); ++i) {
      offsets_.push_back(base + other.offsets_[i]);
    }
    tallies_.insert(tallies_.end(), other.tallies_.begin(),
                    other.tallies_.end());
  }

  /// Keeps the first `rows` rows.
  void Truncate(size_t rows) {
    if (rows >= size()) return;
    items_.resize(offsets_[rows]);
    offsets_.resize(rows + 1);
    tallies_.resize(kTalliesPerRow * rows);
  }

  /// Drops every row and frees the columns.
  void Release() {
    std::vector<uint32_t>().swap(items_);
    std::vector<uint64_t>().swap(offsets_);
    std::vector<uint64_t>().swap(tallies_);
  }

  /// One MinedPattern per row, in order.
  std::vector<MinedPattern> ToPatterns() const {
    std::vector<MinedPattern> out(size());
    for (size_t i = 0; i < out.size(); ++i) {
      const ItemSpan items = row_items(i);
      out[i].items.assign(items.begin(), items.end());
      out[i].counts = counts(i);
    }
    return out;
  }

 private:
  std::vector<uint32_t> items_;
  /// Empty until the first row, then size() + 1 entries from 0.
  std::vector<uint64_t> offsets_;
  std::vector<uint64_t> tallies_;
};

/// True when itemset `a` orders strictly before `b` canonically: shorter
/// first, then lexicographically.
inline bool CanonicalLess(ItemSpan a, ItemSpan b) {
  if (a.size() != b.size()) return a.size() < b.size();
  return std::lexicographical_compare(a.begin(), a.end(), b.begin(),
                                      b.end());
}

/// Row index of itemset `q` among rows 0..num_rows-1 whose itemsets
/// (`items_of(i)`) are in canonical order: a binary search, O(log n ·
/// |q|), with no allocation and no side index.
template <typename ItemsOf>
std::optional<size_t> CanonicalFind(size_t num_rows, const ItemsOf& items_of,
                                    ItemSpan q) {
  size_t lo = 0;
  size_t hi = num_rows;
  while (lo < hi) {
    const size_t mid = lo + (hi - lo) / 2;
    if (CanonicalLess(items_of(mid), q)) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  if (lo >= num_rows || !std::ranges::equal(items_of(lo), q)) {
    return std::nullopt;
  }
  return lo;
}

/// Row ids 0..num_rows-1 in canonical order of their itemsets
/// (`items_of(i)` returns row i's ItemSpan, sorted ascending); equal
/// itemsets keep their input order. num_rows must fit a u32 row id.
///
/// Input already in canonical order is detected in one linear pass.
/// Otherwise rows are counting-sorted by length, and each length group
/// of L items is LSD-radix-sorted by position L-1 down to 0, one stable
/// counting pass per position with the item id as the digit, skipping
/// a pass whose digit is constant over the group. Each pass costs
/// O(group + largest id). A group's rows are first packed into 64-bit
/// keys of bit_width(largest id) bits per item, so the passes stream
/// over keys instead of reading each row's items. A group whose L item
/// ids do not fit one key, one too small to pay for a counting array,
/// or any group once ids pass 2^16, is sorted by comparison instead.
template <typename ItemsOf>
std::vector<uint32_t> CanonicalOrder(size_t num_rows,
                                     const ItemsOf& items_of) {
  DIVEXP_CHECK(num_rows <= UINT32_MAX);
  std::vector<uint32_t> order(num_rows);
  size_t max_len = 0;
  uint32_t max_item = 0;
  bool sorted = true;
  for (size_t i = 0; i < num_rows; ++i) {
    const ItemSpan items = items_of(i);
    max_len = std::max(max_len, items.size());
    for (const uint32_t item : items) max_item = std::max(max_item, item);
    if (sorted && i > 0 && CanonicalLess(items, items_of(i - 1))) {
      sorted = false;
    }
    order[i] = static_cast<uint32_t>(i);
  }
  if (sorted) return order;

  // Counting sort by length: group_begin[L] is where length L starts.
  std::vector<size_t> group_begin(max_len + 2, 0);
  for (size_t i = 0; i < num_rows; ++i) {
    ++group_begin[items_of(i).size() + 1];
  }
  for (size_t len = 1; len < group_begin.size(); ++len) {
    group_begin[len] += group_begin[len - 1];
  }
  std::vector<size_t> next(group_begin.begin(), group_begin.end() - 1);
  for (size_t i = 0; i < num_rows; ++i) {
    order[next[items_of(i).size()]++] = static_cast<uint32_t>(i);
  }

  constexpr size_t kMaxDigits = size_t{1} << 16;
  const size_t digits = size_t{max_item} + 1;
  const int bits = std::bit_width(max_item | 1u);
  const uint64_t item_mask = (uint64_t{1} << bits) - 1;
  std::vector<uint32_t> count(std::min(digits, kMaxDigits));
  // Turns count into bucket starts; false when one bucket holds all m
  // rows, so the pass would keep their order.
  const auto starts = [&count](size_t m) {
    uint32_t sum = 0;
    for (uint32_t& c : count) {
      if (c == m) return false;
      const uint32_t here = c;
      c = sum;
      sum += here;
    }
    return true;
  };
  // A packed key holds a row's items, item 0 most significant, `bits`
  // each: its digit at position pos is item pos, so the passes read
  // the keys in order instead of each row's items.
  struct Packed {
    uint64_t key;
    uint32_t row;
  };
  std::vector<Packed> packed;
  std::vector<Packed> packed_scratch;
  const auto less = [&](uint32_t a, uint32_t b) {
    return CanonicalLess(items_of(a), items_of(b));
  };
  for (size_t len = 1; len <= max_len; ++len) {
    uint32_t* group = order.data() + group_begin[len];
    const size_t m = group_begin[len + 1] - group_begin[len];
    if (m < 2) continue;
    if (len * bits > 64 || m * 8 < digits || digits > kMaxDigits) {
      std::stable_sort(group, group + m, less);
      continue;
    }
    packed.resize(m);
    packed_scratch.resize(m);
    for (size_t k = 0; k < m; ++k) {
      uint64_t key = 0;
      for (const uint32_t item : items_of(group[k])) {
        key = key << bits | item;
      }
      packed[k] = Packed{key, group[k]};
    }
    Packed* from = packed.data();
    Packed* to = packed_scratch.data();
    for (size_t pos = len; pos-- > 0;) {
      const int shift = static_cast<int>(len - 1 - pos) * bits;
      std::fill(count.begin(), count.end(), 0);
      for (size_t k = 0; k < m; ++k) {
        ++count[from[k].key >> shift & item_mask];
      }
      if (!starts(m)) continue;
      for (size_t k = 0; k < m; ++k) {
        to[count[from[k].key >> shift & item_mask]++] = from[k];
      }
      std::swap(from, to);
    }
    for (size_t k = 0; k < m; ++k) group[k] = from[k].row;
  }
  return order;
}

/// CanonicalOrder of a buffer's rows.
inline std::vector<uint32_t> CanonicalOrder(const PatternBuffer& buffer) {
  return CanonicalOrder(buffer.size(),
                        [&buffer](size_t i) { return buffer.row_items(i); });
}

}  // namespace divexp

#endif  // DIVEXP_FPM_PATTERN_BUFFER_H_
