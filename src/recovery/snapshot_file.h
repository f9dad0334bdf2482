// Checksummed, versioned snapshot container.
//
// On-disk layout (all integers little-endian):
//
//   offset  size  field
//   0       8     magic        0x44564558534E4150 ("DVEXSNAP")
//   8       4     version      kSnapshotVersion
//   12      4     kind         SnapshotKind
//   16      8     payload_size bytes of payload that follow
//   24      4     payload_crc  CRC32 (IEEE) of the payload bytes
//   28      n     payload      kind-specific serialization
//
// Writes go through WriteFileAtomic, so a snapshot file is either a
// complete previous version or a complete new version — never torn.
// Loads verify magic, version, kind, size, and CRC before any payload
// byte is interpreted; every validation failure is a descriptive
// Status error, never UB (ByteReader bounds-checks each read).
#ifndef DIVEXP_RECOVERY_SNAPSHOT_FILE_H_
#define DIVEXP_RECOVERY_SNAPSHOT_FILE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "recovery/atomic_file.h"
#include "util/status.h"

namespace divexp {
namespace recovery {

inline constexpr uint64_t kSnapshotMagic = 0x44564558534E4150ull;
inline constexpr uint32_t kSnapshotVersion = 1;

/// What the payload contains. Stored in the envelope so one kind of
/// snapshot can never be misread as another.
enum class SnapshotKind : uint32_t {
  kMiningState = 1,
  // 2 was the retired pattern-table snapshot (pattern tables are now
  // only written as serving artifacts, serve/artifact.h). Never reuse
  // it: files of that kind may still exist and must not parse as
  // anything else.
  /// Shard-worker input spec (src/shard/worker/protocol.h): the slice,
  /// outcomes and attempt parameters handed to a `divexp shard-worker`
  /// process.
  kWorkerSpec = 3,
};

/// Appends little-endian scalars / length-prefixed buffers to a string.
class ByteWriter {
 public:
  void PutU8(uint8_t v) { out_.push_back(static_cast<char>(v)); }
  void PutU32(uint32_t v) { PutLE(v); }
  void PutU64(uint64_t v) { PutLE(v); }
  void PutI64(int64_t v) { PutLE(static_cast<uint64_t>(v)); }
  void PutF64(double v);
  /// u64 length prefix + raw bytes.
  void PutBytes(std::string_view bytes);
  void PutString(const std::string& s) { PutBytes(s); }

  template <typename T>
  void PutU32Vector(const std::vector<T>& v) {
    static_assert(sizeof(T) == 4, "PutU32Vector wants 32-bit elements");
    PutU64(v.size());
    for (const T x : v) PutU32(static_cast<uint32_t>(x));
  }

  const std::string& data() const { return out_; }
  std::string Take() { return std::move(out_); }

 private:
  template <typename T>
  void PutLE(T v) {
    for (size_t i = 0; i < sizeof(T); ++i) {
      out_.push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
    }
  }

  std::string out_;
};

/// Bounds-checked little-endian reader over a payload buffer. Every
/// accessor returns OutOfRange instead of reading past the end, which
/// is what makes corrupt-snapshot handling crash-free by construction.
class ByteReader {
 public:
  explicit ByteReader(std::string_view data) : data_(data) {}

  Result<uint8_t> GetU8();
  Result<uint32_t> GetU32();
  Result<uint64_t> GetU64();
  Result<int64_t> GetI64();
  Result<double> GetF64();
  /// Reads a u64 length prefix, then that many bytes (still
  /// bounds-checked against the remaining buffer before allocating).
  Result<std::string> GetBytes();

  template <typename T>
  Status GetU32Vector(std::vector<T>* out) {
    static_assert(sizeof(T) == 4, "GetU32Vector wants 32-bit elements");
    DIVEXP_ASSIGN_OR_RETURN(const uint64_t n, GetU64());
    if (n > remaining() / 4) {
      return Status::OutOfRange("vector length " + std::to_string(n) +
                                " exceeds remaining payload");
    }
    out->clear();
    out->reserve(n);
    for (uint64_t i = 0; i < n; ++i) {
      DIVEXP_ASSIGN_OR_RETURN(const uint32_t v, GetU32());
      out->push_back(static_cast<T>(v));
    }
    return Status::OK();
  }

  size_t remaining() const { return data_.size() - pos_; }
  bool empty() const { return remaining() == 0; }

 private:
  Status Need(size_t n);

  std::string_view data_;
  size_t pos_ = 0;
};

/// Wraps `payload` in the envelope and writes it atomically to `path`.
Status WriteSnapshotFile(const std::string& path, SnapshotKind kind,
                         std::string_view payload);

/// Streaming envelope writer: the payload arrives in chunks, so peak
/// memory is O(chunk) instead of O(payload) + O(file). A placeholder
/// header is written first; Commit() patches in the real payload size
/// and CRC (accumulated incrementally across Append calls), then
/// performs the atomic rename. The resulting file is byte-identical to
/// WriteSnapshotFile(path, kind, concat(chunks)) — chunk boundaries
/// leave no trace — so the buffered writer doubles as its differential
/// oracle. Not thread-safe.
class SnapshotFileWriter {
 public:
  /// Opens the temp file and writes the placeholder header. Fires
  /// io.snapshot.write (and, underneath, io.atomic.begin).
  static Result<std::unique_ptr<SnapshotFileWriter>> Create(
      const std::string& path, SnapshotKind kind);

  ~SnapshotFileWriter();

  /// Appends payload bytes, extending the running CRC.
  Status Append(std::string_view chunk);

  /// Patches the header with the final payload size + CRC and renames
  /// the temp file over the destination.
  Status Commit();

  /// Payload bytes appended so far (the file adds kSnapshotHeaderSize).
  uint64_t payload_size() const { return payload_size_; }

 private:
  SnapshotFileWriter(SnapshotKind kind,
                     std::unique_ptr<AtomicFileWriter> file)
      : kind_(kind), file_(std::move(file)) {}

  SnapshotKind kind_;
  std::unique_ptr<AtomicFileWriter> file_;
  uint64_t payload_size_ = 0;
  uint32_t crc_ = 0;
};

/// Reads `path`, verifies the envelope (magic/version/kind/size/CRC),
/// and returns the payload bytes.
Result<std::string> ReadSnapshotFile(const std::string& path,
                                     SnapshotKind expected_kind);

/// Envelope size in bytes; exposed for corrupt-snapshot tests that
/// target specific offset classes.
inline constexpr size_t kSnapshotHeaderSize = 8 + 4 + 4 + 8 + 4;

}  // namespace recovery
}  // namespace divexp

#endif  // DIVEXP_RECOVERY_SNAPSHOT_FILE_H_
