#include "serve/artifact.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>

#include "core/table_fingerprint.h"
#include "obs/metrics.h"
#include "recovery/atomic_file.h"
#include "recovery/crc32.h"
#include "recovery/snapshot_file.h"

namespace divexp {
namespace serve {
namespace {

size_t AlignUp(size_t n) {
  return (n + kArtifactAlignment - 1) & ~(kArtifactAlignment - 1);
}

void AppendRaw(std::string* out, const void* data, size_t size) {
  if (size == 0) return;  // empty vectors may hand out a null data()
  out->append(static_cast<const char*>(data), size);
}

void PatchU32(std::string* out, size_t offset, uint32_t v) {
  std::memcpy(out->data() + offset, &v, sizeof(v));
}

void PatchU64(std::string* out, size_t offset, uint64_t v) {
  std::memcpy(out->data() + offset, &v, sizeof(v));
}

void PatchF64(std::string* out, size_t offset, double v) {
  std::memcpy(out->data() + offset, &v, sizeof(v));
}

/// The writer-side contract is canonical order, which makes the view's
/// binary search correct and puts the empty itemset at row 0.
/// PatternTable::Create establishes it for every table it builds; only
/// a default-constructed table has no rows.
Status CheckNotEmpty(const PatternTable& table) {
  if (table.size() == 0) {
    return Status::InvalidArgument(
        "pattern table is empty; even a trivial table carries the "
        "empty itemset");
  }
  return Status::OK();
}

/// Catalog section payload: per attribute (in id order) its name and
/// value labels; AddAttribute replay reproduces the item-id assignment.
std::string SerializeCatalog(const ItemCatalog& catalog) {
  recovery::ByteWriter w;
  w.PutU64(catalog.num_attributes());
  for (uint32_t a = 0; a < catalog.num_attributes(); ++a) {
    w.PutString(catalog.attribute_name(a));
    const uint32_t first = catalog.first_item(a);
    const uint32_t domain = catalog.domain_size(a);
    w.PutU64(domain);
    for (uint32_t j = 0; j < domain; ++j) {
      w.PutString(catalog.item(first + j).value);
    }
  }
  return w.Take();
}

Result<ItemCatalog> ParseCatalog(std::string_view payload) {
  recovery::ByteReader r(payload);
  ItemCatalog catalog;
  DIVEXP_ASSIGN_OR_RETURN(const uint64_t num_attrs, r.GetU64());
  for (uint64_t a = 0; a < num_attrs; ++a) {
    DIVEXP_ASSIGN_OR_RETURN(std::string name, r.GetBytes());
    DIVEXP_ASSIGN_OR_RETURN(const uint64_t domain, r.GetU64());
    if (domain > r.remaining() / 8) {
      return Status::OutOfRange("artifact catalog attribute '" + name +
                                "' claims " + std::to_string(domain) +
                                " values, more than the section holds");
    }
    std::vector<std::string> values;
    values.reserve(domain);
    for (uint64_t j = 0; j < domain; ++j) {
      DIVEXP_ASSIGN_OR_RETURN(std::string value, r.GetBytes());
      values.push_back(std::move(value));
    }
    catalog.AddAttribute(std::move(name), values);
  }
  if (!r.empty()) {
    return Status::InvalidArgument(
        "artifact catalog section has " + std::to_string(r.remaining()) +
        " trailing bytes");
  }
  return catalog;
}

Status SectionError(ArtifactSection id, const std::string& what) {
  return Status::InvalidArgument("artifact section '" +
                                 std::string(ArtifactSectionName(id)) +
                                 "' " + what);
}

}  // namespace

const char* ArtifactSectionName(ArtifactSection id) {
  switch (id) {
    case ArtifactSection::kItems:
      return "items";
    case ArtifactSection::kItemOffsets:
      return "item_offsets";
    case ArtifactSection::kTallies:
      return "tallies";
    case ArtifactSection::kStats:
      return "stats";
    case ArtifactSection::kSubsetLinks:
      return "subset_links";
    case ArtifactSection::kCatalog:
      return "catalog";
  }
  return "unknown";
}

uint64_t TableFingerprint(const PatternTable& table) {
  return divexp::TableFingerprint(table.columns(), table.catalog(),
                                  table.num_dataset_rows(),
                                  table.global_rate(), table.global_mean(),
                                  table.global_variance());
}

Result<std::string> SerializePatternTableArtifact(const PatternTable& table) {
  DIVEXP_RETURN_NOT_OK(CheckNotEmpty(table));
  const size_t n = table.size();

  const TableColumns columns = table.columns();
  const std::string catalog_blob = SerializeCatalog(table.catalog());

  struct SectionPayload {
    ArtifactSection id;
    const void* data;
    size_t size;
  };
  // The table already stores the artifact's columns: each section is
  // one contiguous copy.
  const SectionPayload sections[kArtifactSectionCount] = {
      {ArtifactSection::kItems, columns.items.data(),
       columns.items.size_bytes()},
      {ArtifactSection::kItemOffsets, columns.item_offsets.data(),
       columns.item_offsets.size_bytes()},
      {ArtifactSection::kTallies, columns.tallies.data(),
       columns.tallies.size_bytes()},
      {ArtifactSection::kStats, columns.stats.data(),
       columns.stats.size_bytes()},
      {ArtifactSection::kSubsetLinks, columns.subset_links.data(),
       columns.subset_links.size_bytes()},
      {ArtifactSection::kCatalog, catalog_blob.data(),
       catalog_blob.size()},
  };

  size_t file_size =
      kArtifactHeaderSize + kArtifactSectionCount * kArtifactSectionEntrySize;
  for (const SectionPayload& section : sections) {
    file_size = AlignUp(file_size) + section.size;
  }
  std::string out;
  out.reserve(file_size);
  out.resize(kArtifactHeaderSize +
                 kArtifactSectionCount * kArtifactSectionEntrySize,
             '\0');
  for (size_t s = 0; s < kArtifactSectionCount; ++s) {
    out.resize(AlignUp(out.size()), '\0');
    const size_t entry =
        kArtifactHeaderSize + s * kArtifactSectionEntrySize;
    PatchU32(&out, entry, static_cast<uint32_t>(sections[s].id));
    PatchU64(&out, entry + 8, out.size());
    PatchU64(&out, entry + 16, sections[s].size);
    PatchU32(&out, entry + 24,
             recovery::Crc32(sections[s].data, sections[s].size));
    AppendRaw(&out, sections[s].data, sections[s].size);
  }

  PatchU64(&out, 0, kArtifactMagic);
  PatchU32(&out, 8, kArtifactVersion);
  PatchU32(&out, 12, kArtifactEndianTag);
  PatchU64(&out, 16, out.size());
  PatchU64(&out, 24, TableFingerprint(table));
  PatchU64(&out, 32, n);
  PatchU64(&out, 40, table.num_dataset_rows());
  PatchF64(&out, 48, table.global_rate());
  PatchF64(&out, 56, table.global_mean());
  PatchF64(&out, 64, table.global_variance());
  PatchU32(&out, 72, kArtifactSectionCount);
  PatchU32(&out, 76,
           recovery::Crc32(out.data() + kArtifactHeaderSize,
                           kArtifactSectionCount *
                               kArtifactSectionEntrySize));
  PatchU32(&out, 80, recovery::Crc32(out.data(), 80));
  return out;
}

Status WritePatternTableArtifact(const std::string& path,
                                 const PatternTable& table,
                                 uint64_t* bytes_written) {
  DIVEXP_ASSIGN_OR_RETURN(const std::string out,
                          SerializePatternTableArtifact(table));
  DIVEXP_RETURN_NOT_OK(recovery::WriteFileAtomic(path, out));
  if (bytes_written != nullptr) *bytes_written = out.size();
  return Status::OK();
}

PatternTableArtifact::~PatternTableArtifact() {
  if (map_ != nullptr) ::munmap(map_, map_len_);
}

Status PatternTableArtifact::Attach(ArtifactValidation validation) {
  constexpr size_t kMinSize =
      kArtifactHeaderSize + kArtifactSectionCount * kArtifactSectionEntrySize;
  if (size_ < kMinSize) {
    return Status::InvalidArgument(
        "artifact is " + std::to_string(size_) +
        " bytes, smaller than the " + std::to_string(kMinSize) +
        "-byte header + section table");
  }
  const auto rd_u32 = [&](size_t off) {
    uint32_t v = 0;
    std::memcpy(&v, base_ + off, sizeof(v));
    return v;
  };
  const auto rd_u64 = [&](size_t off) {
    uint64_t v = 0;
    std::memcpy(&v, base_ + off, sizeof(v));
    return v;
  };
  const auto rd_f64 = [&](size_t off) {
    double v = 0;
    std::memcpy(&v, base_ + off, sizeof(v));
    return v;
  };

  const uint64_t magic = rd_u64(0);
  if (magic != kArtifactMagic) {
    uint64_t swapped = 0;
    for (size_t i = 0; i < 8; ++i) {
      swapped = (swapped << 8) | ((magic >> (8 * i)) & 0xFF);
    }
    if (swapped == kArtifactMagic) {
      return Status::InvalidArgument(
          "artifact was written on a host of the opposite endianness; "
          "rewrite it on this host with divexp --save-artifact");
    }
    return Status::InvalidArgument(
        "not a pattern-table artifact (bad magic)");
  }
  info_.version = rd_u32(8);
  if (info_.version != kArtifactVersion) {
    return Status::InvalidArgument(
        "artifact version " + std::to_string(info_.version) +
        " is not supported (this build reads version " +
        std::to_string(kArtifactVersion) + ")");
  }
  if (rd_u32(12) != kArtifactEndianTag) {
    return Status::InvalidArgument(
        "artifact endianness tag mismatch; the file was written on a "
        "host with a different byte order");
  }
  if (rd_u32(80) != recovery::Crc32(base_, 80)) {
    return Status::InvalidArgument("artifact header CRC mismatch");
  }
  // The reserved word sits after the header CRC, so it is validated
  // explicitly; a future format revision can repurpose it behind a
  // version bump without colliding with older files carrying noise
  // there.
  if (rd_u32(84) != 0) {
    return Status::InvalidArgument(
        "artifact reserved header field is not zero");
  }
  info_.file_size = rd_u64(16);
  if (info_.file_size != size_) {
    return Status::InvalidArgument(
        "artifact header claims " + std::to_string(info_.file_size) +
        " bytes but the file holds " + std::to_string(size_));
  }
  info_.fingerprint = rd_u64(24);
  info_.num_rows = rd_u64(32);
  info_.num_dataset_rows = rd_u64(40);
  info_.global_rate = rd_f64(48);
  info_.global_mean = rd_f64(56);
  info_.global_variance = rd_f64(64);
  if (rd_u32(72) != kArtifactSectionCount) {
    return Status::InvalidArgument(
        "artifact declares " + std::to_string(rd_u32(72)) +
        " sections, format v" + std::to_string(kArtifactVersion) +
        " has " +
        std::to_string(kArtifactSectionCount));
  }
  if (rd_u32(76) !=
      recovery::Crc32(base_ + kArtifactHeaderSize,
                      kArtifactSectionCount * kArtifactSectionEntrySize)) {
    return Status::InvalidArgument("artifact section-table CRC mismatch");
  }

  info_.sections.clear();
  info_.sections.reserve(kArtifactSectionCount);
  for (size_t s = 0; s < kArtifactSectionCount; ++s) {
    const size_t entry =
        kArtifactHeaderSize + s * kArtifactSectionEntrySize;
    ArtifactSectionInfo sec;
    const uint32_t id = rd_u32(entry);
    if (id != s + 1) {
      return Status::InvalidArgument(
          "artifact section " + std::to_string(s) + " has id " +
          std::to_string(id) + ", expected " + std::to_string(s + 1));
    }
    sec.id = static_cast<ArtifactSection>(id);
    sec.offset = rd_u64(entry + 8);
    sec.size = rd_u64(entry + 16);
    sec.crc = rd_u32(entry + 24);
    if (sec.offset % kArtifactAlignment != 0) {
      return SectionError(sec.id, "offset " + std::to_string(sec.offset) +
                                      " is not 64-byte aligned");
    }
    if (sec.offset < kMinSize || sec.offset > size_ ||
        sec.size > size_ - sec.offset) {
      return SectionError(sec.id, "extends past the end of the file");
    }
    info_.sections.push_back(sec);
  }

  // O(1) structural arithmetic: every section size must agree with the
  // header's row count before any span is formed.
  const uint64_t n = info_.num_rows;
  if (n > size_ / 8) {
    return Status::InvalidArgument(
        "artifact claims " + std::to_string(n) +
        " rows, more than the file could hold");
  }
  const ArtifactSectionInfo& sec_items = info_.sections[0];
  const ArtifactSectionInfo& sec_ioff = info_.sections[1];
  const ArtifactSectionInfo& sec_tallies = info_.sections[2];
  const ArtifactSectionInfo& sec_stats = info_.sections[3];
  const ArtifactSectionInfo& sec_links = info_.sections[4];
  const ArtifactSectionInfo& sec_catalog = info_.sections[5];
  if (sec_items.size % 4 != 0) {
    return SectionError(sec_items.id, "size is not a multiple of 4");
  }
  const uint64_t total_items = sec_items.size / 4;
  if (sec_ioff.size != (n + 1) * 8) {
    return SectionError(sec_ioff.id,
                        "size disagrees with the header row count");
  }
  if (sec_tallies.size != n * 24) {
    return SectionError(sec_tallies.id,
                        "size disagrees with the header row count");
  }
  if (sec_stats.size != n * 32) {
    return SectionError(sec_stats.id,
                        "size disagrees with the header row count");
  }
  if (sec_links.size != sec_items.size) {
    return SectionError(sec_links.id,
                        "size disagrees with the items section");
  }

  view_ = TableView{};
  view_.items = std::span<const uint32_t>(
      reinterpret_cast<const uint32_t*>(base_ + sec_items.offset),
      total_items);
  view_.item_offsets = std::span<const uint64_t>(
      reinterpret_cast<const uint64_t*>(base_ + sec_ioff.offset), n + 1);
  view_.tallies = std::span<const uint64_t>(
      reinterpret_cast<const uint64_t*>(base_ + sec_tallies.offset),
      3 * n);
  view_.stats = std::span<const double>(
      reinterpret_cast<const double*>(base_ + sec_stats.offset), 4 * n);
  view_.subset_links = std::span<const uint32_t>(
      reinterpret_cast<const uint32_t*>(base_ + sec_links.offset),
      total_items);

  // Endpoint checks are O(1); interior offset entries are only proven
  // monotone in the full tier. A header-tier open therefore hands out a
  // view whose interior offsets are untrusted — TableView's accessors
  // clamp every span and the core analyses' row_ok/link checks turn
  // interior corruption into clean errors (see core/pattern.h).
  if (view_.item_offsets.front() != 0 ||
      view_.item_offsets.back() != total_items) {
    return SectionError(sec_ioff.id,
                        "does not span the items section exactly");
  }

  // The catalog is parsed (and CRC-checked) even at the header tier:
  // it is O(attributes), and every query path needs item names.
  const std::string_view catalog_bytes(
      reinterpret_cast<const char*>(base_ + sec_catalog.offset),
      sec_catalog.size);
  if (recovery::Crc32(catalog_bytes) != sec_catalog.crc) {
    return SectionError(sec_catalog.id, "CRC mismatch");
  }
  DIVEXP_ASSIGN_OR_RETURN(catalog_, ParseCatalog(catalog_bytes));

  view_.catalog = &catalog_;
  view_.num_dataset_rows = info_.num_dataset_rows;
  view_.global_rate = info_.global_rate;
  view_.global_mean = info_.global_mean;
  view_.global_variance = info_.global_variance;
  view_.fingerprint = info_.fingerprint;

  if (validation == ArtifactValidation::kFull) {
    DIVEXP_RETURN_NOT_OK(ValidateFully());
  }
  return Status::OK();
}

Status PatternTableArtifact::ValidateFully() const {
  for (const ArtifactSectionInfo& sec : info_.sections) {
    if (recovery::Crc32(base_ + sec.offset, sec.size) != sec.crc) {
      return SectionError(sec.id, "CRC mismatch");
    }
  }
  const size_t n = view_.size();
  const uint64_t total_items = view_.items.size();
  const uint32_t num_items =
      view_.catalog != nullptr ? view_.catalog->num_items() : 0;
  for (size_t i = 0; i < n; ++i) {
    const uint64_t begin = view_.item_offsets[i];
    const uint64_t end = view_.item_offsets[i + 1];
    if (begin > end || end > total_items) {
      return Status::InvalidArgument(
          "artifact item offsets are not monotone at row " +
          std::to_string(i));
    }
    const ItemSpan items = view_.row_items(i);
    for (size_t j = 0; j < items.size(); ++j) {
      if (items[j] >= num_items) {
        return Status::InvalidArgument(
            "artifact row " + std::to_string(i) + " references item " +
            std::to_string(items[j]) + " outside the catalog");
      }
      if (j > 0 && items[j - 1] >= items[j]) {
        return Status::InvalidArgument(
            "artifact row " + std::to_string(i) +
            " items are not strictly increasing");
      }
    }
    if (i == 0 && !items.empty()) {
      return Status::InvalidArgument(
          "artifact row 0 is not the empty itemset");
    }
    if (i > 0 && !CanonicalLess(view_.row_items(i - 1), items)) {
      return Status::InvalidArgument(
          "artifact rows are not in canonical order at row " +
          std::to_string(i));
    }
  }
  for (const uint32_t link : view_.subset_links) {
    if (link != PatternTable::kNoLink && link >= n) {
      return Status::InvalidArgument(
          "artifact subset link " + std::to_string(link) +
          " points past the last row");
    }
  }
  const uint64_t recomputed = divexp::TableFingerprint(
      view_, *view_.catalog, view_.num_dataset_rows, view_.global_rate,
      view_.global_mean, view_.global_variance);
  if (recomputed != info_.fingerprint) {
    return Status::InvalidArgument(
        "artifact fingerprint mismatch: header says " +
        std::to_string(info_.fingerprint) + ", content hashes to " +
        std::to_string(recomputed));
  }
  return Status::OK();
}

Result<std::unique_ptr<PatternTableArtifact>> PatternTableArtifact::Open(
    const std::string& path, ArtifactValidation validation) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    return Status::NotFound("cannot open artifact '" + path +
                            "': " + std::strerror(errno));
  }
  struct stat st;
  if (::fstat(fd, &st) != 0) {
    const Status status = Status::IOError(
        "cannot stat artifact '" + path + "': " + std::strerror(errno));
    ::close(fd);
    return status;
  }
  const size_t size = static_cast<size_t>(st.st_size);
  if (size == 0) {
    ::close(fd);
    return Status::InvalidArgument("artifact '" + path + "' is empty");
  }
  void* map = ::mmap(nullptr, size, PROT_READ, MAP_PRIVATE, fd, 0);
  ::close(fd);
  if (map == MAP_FAILED) {
    return Status::IOError("cannot mmap artifact '" + path +
                           "': " + std::strerror(errno));
  }
  std::unique_ptr<PatternTableArtifact> artifact(
      new PatternTableArtifact());
  artifact->map_ = map;
  artifact->map_len_ = size;
  artifact->base_ = static_cast<const uint8_t*>(map);
  artifact->size_ = size;
  DIVEXP_RETURN_NOT_OK(artifact->Attach(validation));
  return artifact;
}

Result<std::unique_ptr<PatternTableArtifact>>
PatternTableArtifact::FromBuffer(std::string bytes,
                                 ArtifactValidation validation) {
  std::unique_ptr<PatternTableArtifact> artifact(
      new PatternTableArtifact());
  // Copy into u64 storage: the columnar sections are reinterpreted in
  // place, so the base must be 8-byte aligned (a std::string's is not
  // guaranteed to be).
  artifact->buffer_.resize(bytes.size() / 8 + 1, 0);
  std::memcpy(artifact->buffer_.data(), bytes.data(), bytes.size());
  artifact->base_ =
      reinterpret_cast<const uint8_t*>(artifact->buffer_.data());
  artifact->size_ = bytes.size();
  DIVEXP_RETURN_NOT_OK(artifact->Attach(validation));
  return artifact;
}

Result<ServingTable> OpenServingTable(const std::string& path,
                                      ArtifactValidation validation) {
  ServingTable table;
  DIVEXP_ASSIGN_OR_RETURN(table.artifact,
                          PatternTableArtifact::Open(path, validation));
  obs::MetricsRegistry::Default().GetCounter("serve.open.mmap")->Add(1);
  return table;
}

}  // namespace serve
}  // namespace divexp
