// CRC32 (IEEE 802.3, reflected, polynomial 0xEDB88320) used to
// integrity-check snapshot payloads, serving artifacts and shard
// messages. Table-driven (slicing-by-8), no hardware dependency;
// matches zlib's crc32() so files can be checked with standard tooling.
#ifndef DIVEXP_RECOVERY_CRC32_H_
#define DIVEXP_RECOVERY_CRC32_H_

#include <cstddef>
#include <cstdint>
#include <string_view>

namespace divexp {
namespace recovery {

/// Extends a running checksum with `size` bytes. Start with crc=0.
uint32_t Crc32Update(uint32_t crc, const void* data, size_t size);

/// One-shot checksum of a buffer.
inline uint32_t Crc32(const void* data, size_t size) {
  return Crc32Update(0, data, size);
}

inline uint32_t Crc32(std::string_view data) {
  return Crc32Update(0, data.data(), data.size());
}

}  // namespace recovery
}  // namespace divexp

#endif  // DIVEXP_RECOVERY_CRC32_H_
