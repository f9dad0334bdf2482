#include "core/table_fingerprint.h"

#include <string_view>

namespace divexp {
namespace internal {
namespace {

uint64_t FnvMixBytes(uint64_t hash, std::string_view bytes) {
  hash = FnvMix(hash, bytes.size());
  for (const char c : bytes) {
    hash ^= static_cast<uint8_t>(c);
    hash *= kFnvPrime;
  }
  return hash;
}

}  // namespace

uint64_t FingerprintPrefix(const ItemCatalog& catalog,
                           uint64_t num_dataset_rows, double global_rate,
                           double global_mean, double global_variance) {
  uint64_t hash = FnvMix(kFnvOffset, catalog.num_attributes());
  for (uint32_t a = 0; a < catalog.num_attributes(); ++a) {
    hash = FnvMixBytes(hash, catalog.attribute_name(a));
    const uint32_t domain = catalog.domain_size(a);
    const uint32_t first = catalog.first_item(a);
    hash = FnvMix(hash, domain);
    for (uint32_t j = 0; j < domain; ++j) {
      hash = FnvMixBytes(hash, catalog.item(first + j).value);
    }
  }
  hash = FnvMix(hash, num_dataset_rows);
  hash = FnvMixDouble(hash, global_rate);
  hash = FnvMixDouble(hash, global_mean);
  hash = FnvMixDouble(hash, global_variance);
  return hash;
}

}  // namespace internal
}  // namespace divexp
