// Zero-copy pattern-table artifact (format v3).
//
// The artifact is the one binary format of a pattern table (CSV in
// core/table_io.h is the human export): a relocatable, offset-based
// columnar image that is served straight out of an mmap. Opening one
// costs O(header + catalog) regardless of row count — no per-row
// allocation, no decode pass — so a query daemon can map a
// multi-gigabyte table in milliseconds. Its bytes are also the
// canonical image the bit-identity tests compare: catalog, globals,
// rows, subset links and kNoLink holes all round-trip exactly.
//
// On-disk layout (host-endian, guarded by an endianness tag):
//
//   offset  size  field
//   0       8     magic          kArtifactMagic ("DVEXPTBL")
//   8       4     version        kArtifactVersion
//   12      4     endian_tag     kArtifactEndianTag (0x01020304)
//   16      8     file_size      total bytes, must equal the file
//   24      8     fingerprint    TableFingerprint of the logical table
//                                (the word-wise hash since v2; v1
//                                files, whose fingerprint was byte-wise
//                                FNV-1a, fail the version check)
//   32      8     num_rows
//   40      8     num_dataset_rows
//   48      8     global_rate    f(D)
//   56      8     global_mean    Beta posterior mean of f(D)
//   64      8     global_variance
//   72      4     section_count  kArtifactSectionCount
//   76      4     section_table_crc  CRC32 of the section table bytes
//   80      4     header_crc     CRC32 of header bytes [0, 80)
//   84      4     reserved       0
//   88      6x32  section table  {id, pad, offset, size, crc, pad}
//   ...           sections, each 64-byte aligned (file-relative offsets)
//
// Sections (fixed ids and order):
//   1 items         u32[total_items]   concatenated row itemsets
//   2 item_offsets  u64[num_rows + 1]
//   3 tallies       u64[3 * num_rows]  (t, f, bot) per row
//   4 stats         f64[4 * num_rows]  (support, rate, divergence, t)
//   5 subset_links  u32[total_items]   lattice links, kNoLink = absent;
//                                      delimited by item_offsets
//   6 catalog       ByteWriter blob: per attribute, name + value labels
//
// v3 dropped v2's link_offsets section, a copy of item_offsets.
//
// Rows are stored in canonical order (length, then lexicographic items
// — the order PatternTable::Create establishes), so lookup is a binary
// search over the offset arrays and the artifact needs no hash index.
//
// Validation is two-tier: kHeader (the default for Open) verifies the
// envelope CRCs plus O(1) structural arithmetic and parses the catalog;
// kFull additionally checksums every section and walks all rows
// (monotone offsets, sorted items, in-range links, canonical order,
// fingerprint recompute). Envelope corruption is rejected by both tiers
// at open. Payload corruption (section bytes) is rejected at open only
// by kFull; a kHeader open may attach to it, but serving stays safe —
// TableView clamps every row span and the core analyses validate
// offsets, link values, and item ids per row, so detected corruption
// becomes a clean Status and undetected corruption at worst a wrong
// value, never UB (fuzzed at both tiers in
// tests/serve/artifact_test.cc, rerun under ASan/UBSan in CI).
#ifndef DIVEXP_SERVE_ARTIFACT_H_
#define DIVEXP_SERVE_ARTIFACT_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/pattern.h"
#include "serve/table_view.h"
#include "util/status.h"

namespace divexp {
namespace serve {

inline constexpr uint64_t kArtifactMagic = 0x4C42545058455644ull;
inline constexpr uint32_t kArtifactVersion = 3;
inline constexpr uint32_t kArtifactEndianTag = 0x01020304u;
inline constexpr size_t kArtifactHeaderSize = 88;
inline constexpr size_t kArtifactSectionCount = 6;
inline constexpr size_t kArtifactSectionEntrySize = 32;
inline constexpr size_t kArtifactAlignment = 64;

/// Section ids, in file order.
enum class ArtifactSection : uint32_t {
  kItems = 1,
  kItemOffsets = 2,
  kTallies = 3,
  kStats = 4,
  kSubsetLinks = 5,
  kCatalog = 6,
};

/// "items", "item_offsets", ... for dumps and error messages.
const char* ArtifactSectionName(ArtifactSection id);

/// One parsed section-table entry.
struct ArtifactSectionInfo {
  ArtifactSection id = ArtifactSection::kItems;
  uint64_t offset = 0;  ///< file-relative, kArtifactAlignment-aligned
  uint64_t size = 0;    ///< payload bytes (padding excluded)
  uint32_t crc = 0;     ///< CRC32 of the payload bytes
};

/// Parsed header + section table, exposed for divexp-dump-table.
struct ArtifactInfo {
  uint32_t version = 0;
  uint64_t file_size = 0;
  uint64_t fingerprint = 0;
  uint64_t num_rows = 0;
  uint64_t num_dataset_rows = 0;
  double global_rate = 0.0;
  double global_mean = 0.0;
  double global_variance = 0.0;
  std::vector<ArtifactSectionInfo> sections;
};

/// core/table_fingerprint.h's TableFingerprint of an in-memory table:
/// the value an artifact written from it carries in its header.
uint64_t TableFingerprint(const PatternTable& table);

/// Serializes `table` into artifact bytes. Rows must be in canonical
/// order with the empty itemset first (every PatternTable is);
/// InvalidArgument otherwise — the binary-search contract would
/// silently break. Deterministic: equal tables give equal bytes.
Result<std::string> SerializePatternTableArtifact(const PatternTable& table);

/// SerializePatternTableArtifact + an atomic write to `path`.
Status WritePatternTableArtifact(const std::string& path,
                                 const PatternTable& table,
                                 uint64_t* bytes_written = nullptr);

/// How much of an artifact to verify when attaching to it.
enum class ArtifactValidation {
  /// Envelope CRCs + O(1) structural arithmetic + catalog parse. The
  /// O(ms) default: open cost is independent of the row count. Payload
  /// corruption may go undetected until a query touches it — the
  /// serving paths then fail with a clean Status (never UB); run
  /// ValidateFully() (or open with kFull) to prove integrity up front.
  kHeader,
  /// kHeader plus every section CRC and an O(rows) structural walk,
  /// ending in a fingerprint recompute.
  kFull,
};

/// A pattern-table artifact attached read-only. Owns the mapping (or
/// the aligned copy) and the parsed catalog; view() spans alias that
/// storage directly, so the object must outlive every query against it.
/// Immutable after construction — safe to share across server threads.
class PatternTableArtifact {
 public:
  /// Maps `path` with mmap(PROT_READ, MAP_PRIVATE) and validates.
  static Result<std::unique_ptr<PatternTableArtifact>> Open(
      const std::string& path,
      ArtifactValidation validation = ArtifactValidation::kHeader);

  /// Takes ownership of in-memory artifact bytes, copying them into
  /// 8-byte-aligned storage (the portable fallback when mmap is
  /// unavailable; also what the byte-flip fuzz tests drive).
  static Result<std::unique_ptr<PatternTableArtifact>> FromBuffer(
      std::string bytes,
      ArtifactValidation validation = ArtifactValidation::kHeader);

  ~PatternTableArtifact();

  PatternTableArtifact(const PatternTableArtifact&) = delete;
  PatternTableArtifact& operator=(const PatternTableArtifact&) = delete;

  const TableView& view() const { return view_; }
  const ArtifactInfo& info() const { return info_; }
  uint64_t fingerprint() const { return info_.fingerprint; }

  /// The kFull tier, runnable after a kHeader open (divexp-dump-table
  /// --verify, optional daemon startup check).
  Status ValidateFully() const;

 private:
  PatternTableArtifact() = default;

  /// Parses base_/size_ into view_/info_ at the requested tier.
  Status Attach(ArtifactValidation validation);

  const uint8_t* base_ = nullptr;
  size_t size_ = 0;
  void* map_ = nullptr;  ///< mmap ownership (Open)
  size_t map_len_ = 0;
  std::vector<uint64_t> buffer_;  ///< aligned-copy ownership (FromBuffer)
  ItemCatalog catalog_;
  TableView view_;
  ArtifactInfo info_;
};

/// An opened table file. The artifact is its only backing; the wrapper
/// keeps the serving surface (QueryService, divexp serve) stable.
struct ServingTable {
  std::unique_ptr<PatternTableArtifact> artifact;

  const TableView& view() const { return artifact->view(); }
};

/// PatternTableArtifact::Open, counted in serve.open.mmap. Any other
/// file — a retired table snapshot included — is InvalidArgument.
Result<ServingTable> OpenServingTable(
    const std::string& path,
    ArtifactValidation validation = ArtifactValidation::kHeader);

}  // namespace serve
}  // namespace divexp

#endif  // DIVEXP_SERVE_ARTIFACT_H_
