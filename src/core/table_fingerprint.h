// Logical-content fingerprint of a pattern table. The catalog, the
// dataset row count and the global statistics are hashed first (FNV-1a;
// they are small), and that value seeds four independent 64-bit lanes.
// Then the counted columns, items, item_offsets and tallies
// (core/table_columns.h), are hashed 8 bytes at a time, each column as
// its byte length followed by its bytes, words dealt round-robin to the
// lanes; a column's last partial word is zero-padded. The lanes are
// folded and the result avalanched. Every step is injective in the
// word it takes, so one changed byte in a hashed column always changes
// the fingerprint. Derived state (links, an artifact's stats) is not hashed.
//
// The serving artifact stamps the fingerprint in its header and keys
// its result cache under it, so the in-memory table it was written
// from and every copy of the artifact hash alike: both hand the same
// column bytes to this function.
#ifndef DIVEXP_CORE_TABLE_FINGERPRINT_H_
#define DIVEXP_CORE_TABLE_FINGERPRINT_H_

#include <cstdint>

#include "core/table_columns.h"
#include "data/encoder.h"

namespace divexp {

/// Fingerprint of a table's columns with its catalog and global
/// statistics. PatternTable::columns() and serve::TableView (a
/// TableColumns) of the same table give the same value.
uint64_t TableFingerprint(const TableColumns& columns,
                          const ItemCatalog& catalog,
                          uint64_t num_dataset_rows, double global_rate,
                          double global_mean, double global_variance);

}  // namespace divexp

#endif  // DIVEXP_CORE_TABLE_FINGERPRINT_H_
