#include "recovery/crc32.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "util/random.h"

namespace divexp {
namespace recovery {
namespace {

// CRC32 from its definition: one bit at a time, no tables.
uint32_t BitwiseCrc32(const unsigned char* data, size_t size) {
  uint32_t crc = 0xFFFFFFFFu;
  for (size_t i = 0; i < size; ++i) {
    crc ^= data[i];
    for (int k = 0; k < 8; ++k) {
      crc = (crc >> 1) ^ (0xEDB88320u & (0u - (crc & 1u)));
    }
  }
  return ~crc;
}

std::vector<unsigned char> RandomBytes(size_t size, uint64_t seed) {
  Rng rng(seed);
  std::vector<unsigned char> bytes(size);
  for (unsigned char& b : bytes) {
    b = static_cast<unsigned char>(rng.Below(256));
  }
  return bytes;
}

TEST(Crc32Test, CheckValueAndEmptyBuffer) {
  EXPECT_EQ(Crc32(std::string_view("123456789")), 0xCBF43926u);
  EXPECT_EQ(Crc32(nullptr, 0), 0u);
  EXPECT_EQ(Crc32(std::string_view()), 0u);
}

TEST(Crc32Test, EveryAlignmentAndLengthMatchesBitwiseDefinition) {
  const std::vector<unsigned char> bytes = RandomBytes(1024 + 8, 7);
  for (size_t align = 0; align < 8; ++align) {
    for (size_t len = 0; len <= 1024; ++len) {
      const unsigned char* p = bytes.data() + align;
      ASSERT_EQ(Crc32(p, len), BitwiseCrc32(p, len))
          << "align=" << align << " len=" << len;
    }
  }
}

TEST(Crc32Test, ChunkedUpdatesEqualOneShot) {
  const std::vector<unsigned char> bytes = RandomBytes(5000, 11);
  const uint32_t whole = Crc32(bytes.data(), bytes.size());
  Rng rng(13);
  for (int trial = 0; trial < 50; ++trial) {
    uint32_t crc = 0;
    size_t pos = 0;
    while (pos < bytes.size()) {
      const size_t chunk =
          std::min<size_t>(bytes.size() - pos, rng.Below(40));
      crc = Crc32Update(crc, bytes.data() + pos, chunk);
      pos += chunk;
    }
    EXPECT_EQ(crc, whole);
  }
}

}  // namespace
}  // namespace recovery
}  // namespace divexp
