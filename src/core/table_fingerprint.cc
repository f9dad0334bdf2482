#include "core/table_fingerprint.h"

#include <bit>
#include <cstring>
#include <span>
#include <string_view>

namespace divexp {
namespace {

constexpr uint64_t kFnvOffset = 0xcbf29ce484222325ull;
constexpr uint64_t kFnvPrime = 0x100000001b3ull;

// xxHash64's primes: odd, so multiplying by one is a bijection.
constexpr uint64_t kPrime1 = 0x9E3779B185EBCA87ull;
constexpr uint64_t kPrime2 = 0xC2B2AE3D27D4EB4Full;
constexpr uint64_t kPrime3 = 0x165667B19E3779F9ull;
constexpr uint64_t kPrime4 = 0x85EBCA77C2B2AE63ull;
constexpr uint64_t kPrime5 = 0x27D4EB2F165667C5ull;

uint64_t FnvMix(uint64_t hash, uint64_t v) {
  for (size_t i = 0; i < 8; ++i) {
    hash ^= (v >> (8 * i)) & 0xFF;
    hash *= kFnvPrime;
  }
  return hash;
}

uint64_t FnvMixDouble(uint64_t hash, double v) {
  return FnvMix(hash, std::bit_cast<uint64_t>(v));
}

uint64_t FnvMixBytes(uint64_t hash, std::string_view bytes) {
  hash = FnvMix(hash, bytes.size());
  for (const char c : bytes) {
    hash ^= static_cast<uint8_t>(c);
    hash *= kFnvPrime;
  }
  return hash;
}

/// The catalog, the dataset row count and the global statistics.
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

// Injective in `word` for a fixed `lane`, and in `lane` for a fixed
// `word`.
uint64_t Round(uint64_t lane, uint64_t word) {
  return std::rotl(lane + word * kPrime2, 31) * kPrime1;
}

uint64_t LoadWord(const unsigned char* p) {
  uint64_t word;
  std::memcpy(&word, p, sizeof(word));
  return word;
}

/// Four independent lanes, so consecutive words do not wait on each
/// other's multiplies.
class WordHasher {
 public:
  explicit WordHasher(uint64_t seed)
      : lane_{seed + kPrime1 + kPrime2, seed + kPrime2, seed,
              seed - kPrime1} {}

  template <typename T>
  void Column(std::span<const T> column) {
    const auto* p = reinterpret_cast<const unsigned char*>(column.data());
    const size_t bytes = column.size_bytes();
    lane_[0] = Round(lane_[0], bytes);
    const size_t words = bytes / 8;
    uint64_t a = lane_[0], b = lane_[1], c = lane_[2], d = lane_[3];
    size_t w = 0;
    for (; w + 4 <= words; w += 4, p += 32) {
      a = Round(a, LoadWord(p));
      b = Round(b, LoadWord(p + 8));
      c = Round(c, LoadWord(p + 16));
      d = Round(d, LoadWord(p + 24));
    }
    lane_[0] = a;
    lane_[1] = b;
    lane_[2] = c;
    lane_[3] = d;
    for (; w < words; ++w, p += 8) {
      lane_[w % 4] = Round(lane_[w % 4], LoadWord(p));
    }
    if (const size_t tail = bytes % 8; tail != 0) {
      uint64_t last = 0;
      std::memcpy(&last, p, tail);
      lane_[w % 4] = Round(lane_[w % 4], last);
    }
  }

  uint64_t Finish() const {
    uint64_t h = kPrime5;
    for (const uint64_t lane : lane_) {
      h = (h ^ Round(0, lane)) * kPrime1 + kPrime4;
    }
    h ^= h >> 33;
    h *= kPrime2;
    h ^= h >> 29;
    h *= kPrime3;
    h ^= h >> 32;
    return h;
  }

 private:
  uint64_t lane_[4];
};

}  // namespace

uint64_t TableFingerprint(const TableColumns& columns,
                          const ItemCatalog& catalog,
                          uint64_t num_dataset_rows, double global_rate,
                          double global_mean, double global_variance) {
  WordHasher hasher(FingerprintPrefix(catalog, num_dataset_rows,
                                      global_rate, global_mean,
                                      global_variance));
  hasher.Column(columns.items);
  hasher.Column(columns.item_offsets);
  hasher.Column(columns.tallies);
  hasher.Column(columns.stats);
  return hasher.Finish();
}

}  // namespace divexp
