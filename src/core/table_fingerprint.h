// Logical-content fingerprint of a pattern table: FNV-1a over the
// catalog, the dataset row count, the global statistics and every row's
// (items, tallies, stats), in row order. Subset links are derived state
// and excluded. The serving artifact stamps it in its header and keys
// its result cache under it, so the in-memory table it was written
// from and every copy of the artifact hash alike.
#ifndef DIVEXP_CORE_TABLE_FINGERPRINT_H_
#define DIVEXP_CORE_TABLE_FINGERPRINT_H_

#include <cstdint>
#include <cstring>

#include "data/encoder.h"
#include "fpm/itemset.h"

namespace divexp {
namespace internal {

inline constexpr uint64_t kFnvOffset = 0xcbf29ce484222325ull;
inline constexpr uint64_t kFnvPrime = 0x100000001b3ull;

inline uint64_t FnvMix(uint64_t hash, uint64_t v) {
  for (size_t i = 0; i < 8; ++i) {
    hash ^= (v >> (8 * i)) & 0xFF;
    hash *= kFnvPrime;
  }
  return hash;
}

inline uint64_t FnvMixDouble(uint64_t hash, double v) {
  uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  return FnvMix(hash, bits);
}

/// The fingerprint state after the catalog and the global statistics.
uint64_t FingerprintPrefix(const ItemCatalog& catalog,
                           uint64_t num_dataset_rows, double global_rate,
                           double global_mean, double global_variance);

}  // namespace internal

/// Fingerprint of any table read surface (core/pattern.h) with its
/// catalog and global statistics.
template <typename Table>
uint64_t TableFingerprint(const Table& table, const ItemCatalog& catalog,
                          uint64_t num_dataset_rows, double global_rate,
                          double global_mean, double global_variance) {
  using internal::FnvMix;
  using internal::FnvMixDouble;
  uint64_t hash =
      internal::FingerprintPrefix(catalog, num_dataset_rows, global_rate,
                                  global_mean, global_variance);
  hash = FnvMix(hash, table.size());
  for (size_t i = 0; i < table.size(); ++i) {
    const ItemSpan items = table.row_items(i);
    hash = FnvMix(hash, items.size());
    for (const uint32_t item : items) hash = FnvMix(hash, item);
    const auto counts = table.counts(i);
    hash = FnvMix(hash, counts.t);
    hash = FnvMix(hash, counts.f);
    hash = FnvMix(hash, counts.bot);
    hash = FnvMixDouble(hash, table.support(i));
    hash = FnvMixDouble(hash, table.rate(i));
    hash = FnvMixDouble(hash, table.divergence(i));
    hash = FnvMixDouble(hash, table.t(i));
  }
  return hash;
}

}  // namespace divexp

#endif  // DIVEXP_CORE_TABLE_FINGERPRINT_H_
