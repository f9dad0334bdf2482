// Artifact format tests: round-trip fidelity, degenerate tables, the
// serialization contract (deterministic, canonical order, every column
// and kNoLink hole in the bytes), and the robustness suite —
// truncation and byte-flip fuzzing over every section must produce a
// clean Status, never UB (CI reruns this binary under ASan+UBSan).
#include "serve/artifact.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <span>
#include <string>
#include <vector>

#include "core/table_fingerprint.h"
#include "recovery/atomic_file.h"
#include "recovery/crc32.h"
#include "recovery/snapshot_file.h"
#include "serve/server.h"
#include "testing/table_bytes.h"
#include "testing/test_explore.h"

namespace divexp {
namespace serve {
namespace {

using divexp::testing::ExploreForTest;
using divexp::testing::RandomTableForTest;
using divexp::testing::ScratchDir;
using divexp::testing::TableBytes;

void ExpectViewMatchesTable(const TableView& view,
                            const PatternTable& table) {
  ASSERT_EQ(view.size(), table.size());
  EXPECT_EQ(view.num_dataset_rows, table.num_dataset_rows());
  EXPECT_EQ(view.global_rate, table.global_rate());
  EXPECT_EQ(view.global_mean, table.global_mean());
  EXPECT_EQ(view.global_variance, table.global_variance());
  for (size_t i = 0; i < table.size(); ++i) {
    const PatternRow& row = table.row(i);
    const ItemSpan items = view.row_items(i);
    ASSERT_EQ(items.size(), row.items.size()) << "row " << i;
    EXPECT_TRUE(std::equal(items.begin(), items.end(),
                           row.items.begin()))
        << "row " << i;
    EXPECT_EQ(view.counts(i), row.counts);
    EXPECT_EQ(view.support(i), row.support);
    EXPECT_EQ(view.rate(i), row.rate);
    EXPECT_EQ(view.divergence(i), row.divergence);
    EXPECT_EQ(view.t(i), row.t);
    const std::span<const uint32_t> links = view.row_links(i);
    const std::span<const uint32_t> expected = table.row_links(i);
    ASSERT_EQ(links.size(), expected.size()) << "row " << i;
    EXPECT_TRUE(std::equal(links.begin(), links.end(), expected.begin()))
        << "row " << i;
    // The catalog survived: item names resolve identically.
    for (const uint32_t item : row.items) {
      EXPECT_EQ(view.catalog->ItemName(item), table.ItemsetName({item}));
    }
  }
}

TEST(ArtifactTest, RoundTripPreservesEveryColumn) {
  const PatternTable table = RandomTableForTest(1, 150);
  const std::string path = ScratchDir("artifact/roundtrip") + "/table.dvt";
  uint64_t bytes = 0;
  ASSERT_TRUE(WritePatternTableArtifact(path, table, &bytes).ok());
  EXPECT_GT(bytes, kArtifactHeaderSize);

  auto artifact = PatternTableArtifact::Open(path);
  ASSERT_TRUE(artifact.ok()) << artifact.status().ToString();
  ExpectViewMatchesTable((*artifact)->view(), table);
  EXPECT_EQ((*artifact)->fingerprint(), TableFingerprint(table));
  EXPECT_TRUE((*artifact)->ValidateFully().ok());

  // The in-memory serialization is exactly what the writer put on disk.
  auto on_disk = recovery::ReadFileToString(path);
  ASSERT_TRUE(on_disk.ok());
  EXPECT_EQ(on_disk->size(), bytes);
  EXPECT_EQ(TableBytes(table), *on_disk);

  const ArtifactInfo& info = (*artifact)->info();
  EXPECT_EQ(info.version, kArtifactVersion);
  EXPECT_EQ(info.num_rows, table.size());
  ASSERT_EQ(info.sections.size(), kArtifactSectionCount);
  for (const ArtifactSectionInfo& s : info.sections) {
    EXPECT_EQ(s.offset % kArtifactAlignment, 0u);
  }
}

TEST(ArtifactTest, FingerprintAgreesBetweenTableAndArtifact) {
  const PatternTable table = RandomTableForTest(2, 150);
  const uint64_t expected = TableFingerprint(table);

  auto bytes = TableBytes(table);
  auto artifact = PatternTableArtifact::FromBuffer(bytes);
  ASSERT_TRUE(artifact.ok());
  const TableView& view = (*artifact)->view();
  EXPECT_EQ(divexp::TableFingerprint(view, *view.catalog,
                                     view.num_dataset_rows, view.global_rate,
                                     view.global_mean, view.global_variance),
            expected);
  EXPECT_EQ((*artifact)->view().fingerprint, expected);
}

TEST(ArtifactTest, FingerprintDistinguishesTables) {
  EXPECT_NE(TableFingerprint(RandomTableForTest(3, 150)),
            TableFingerprint(RandomTableForTest(4, 150)));
}

TEST(ArtifactTest, EmptyTableOnlyEmptyItemsetRoundTrips) {
  // min_support 0.99 over an even 50/50 attribute: nothing but the
  // empty itemset survives.
  std::vector<std::vector<int>> cells;
  std::string outcomes;
  for (int i = 0; i < 100; ++i) {
    cells.push_back({i % 2});
    outcomes += (i % 3 == 0 ? 'T' : 'F');
  }
  const PatternTable table = ExploreForTest(cells, {2}, outcomes, 0.99);
  ASSERT_EQ(table.size(), 1u);

  auto bytes = TableBytes(table);
  auto artifact = PatternTableArtifact::FromBuffer(
      bytes, ArtifactValidation::kFull);
  ASSERT_TRUE(artifact.ok()) << artifact.status().ToString();
  ExpectViewMatchesTable((*artifact)->view(), table);
  EXPECT_FALSE((*artifact)->view().Find(Itemset{0}).has_value());
}

TEST(ArtifactTest, SinglePatternTableRoundTrips) {
  // A constant attribute: exactly one frequent item.
  std::vector<std::vector<int>> cells(80, std::vector<int>{0});
  std::string outcomes(80, 'T');
  for (size_t i = 0; i < 40; ++i) outcomes[i] = 'F';
  const PatternTable table = ExploreForTest(cells, {1}, outcomes, 0.5);
  ASSERT_EQ(table.size(), 2u);

  auto bytes = TableBytes(table);
  auto artifact = PatternTableArtifact::FromBuffer(
      bytes, ArtifactValidation::kFull);
  ASSERT_TRUE(artifact.ok()) << artifact.status().ToString();
  ExpectViewMatchesTable((*artifact)->view(), table);
  EXPECT_EQ((*artifact)->view().Find(Itemset{0}), 1u);
}

TEST(ArtifactTest, EveryTruncationFailsCleanly) {
  const std::string bytes = TableBytes(RandomTableForTest(5, 150));
  // Every short prefix must yield a Status, not UB. Dense coverage over
  // the header + section table, strided through the payload.
  for (size_t len = 0; len < bytes.size(); len = len < 512 ? len + 1 : len + 97) {
    auto artifact = PatternTableArtifact::FromBuffer(
        bytes.substr(0, len), ArtifactValidation::kFull);
    EXPECT_FALSE(artifact.ok()) << "prefix length " << len;
  }
  auto full = PatternTableArtifact::FromBuffer(bytes,
                                               ArtifactValidation::kFull);
  EXPECT_TRUE(full.ok()) << full.status().ToString();
}

/// First item of attribute 0 as an "attr=value" spec the line protocol
/// accepts — the catalog section is intact in every corruption case
/// below, so name resolution itself is trustworthy.
std::string FirstItemSpec(const ItemCatalog& catalog) {
  return catalog.attribute_name(0) + "=" + catalog.item(0).value;
}

/// Serves a fixed query mix over a header-tier-attached artifact. The
/// explicit assertions are deliberately weak (every response is a
/// well-formed envelope); the real teeth are the ASan/UBSan reruns in
/// CI — no request may read out of range, whatever the payload holds.
void ServeMixedQueries(std::unique_ptr<PatternTableArtifact> artifact,
                       const std::string& item_spec) {
  ServingTable table;
  table.artifact = std::move(artifact);
  QueryService service(&table);
  for (const std::string& line :
       {std::string("topk k=5"),
        std::string("topk k=5 key=support order=asc"),
        std::string("corrective k=5"), std::string("stats"),
        "browse items=" + item_spec, "shapley items=" + item_spec}) {
    const std::string response = service.HandleLine(line);
    EXPECT_NE(response.find("\"ok\":"), std::string::npos) << line;
  }
}

TEST(ArtifactTest, ByteFlipsInHeaderAndSectionTableAreCaughtOnOpen) {
  const std::string bytes = TableBytes(RandomTableForTest(6, 150));
  const size_t envelope =
      kArtifactHeaderSize + kArtifactSectionCount * kArtifactSectionEntrySize;
  for (size_t pos = 0; pos < envelope; ++pos) {
    std::string corrupt = bytes;
    corrupt[pos] ^= 0x40;
    auto artifact = PatternTableArtifact::FromBuffer(corrupt);
    EXPECT_FALSE(artifact.ok()) << "flipped envelope byte " << pos;
  }
}

TEST(ArtifactTest, ByteFlipsInEverySectionAreCaughtByFullValidation) {
  const PatternTable table = RandomTableForTest(7, 150);
  const std::string bytes = TableBytes(table);
  auto clean = PatternTableArtifact::FromBuffer(bytes);
  ASSERT_TRUE(clean.ok());
  for (const ArtifactSectionInfo& section : (*clean)->info().sections) {
    if (section.size == 0) continue;
    // Flip a few payload bytes per section (padding between sections is
    // not CRC-covered, so stay inside [offset, offset + size)).
    for (const uint64_t rel :
         {uint64_t{0}, section.size / 2, section.size - 1}) {
      std::string corrupt = bytes;
      corrupt[section.offset + rel] ^= 0x01;
      auto artifact = PatternTableArtifact::FromBuffer(
          corrupt, ArtifactValidation::kFull);
      EXPECT_FALSE(artifact.ok())
          << ArtifactSectionName(section.id) << " byte " << rel;
      // A header-tier open may accept the flip (payload CRCs are
      // deferred), but ValidateFully must then reject it — and serving
      // queries through the corrupted view must stay clean (the
      // ASan/UBSan CI rerun turns any out-of-range read into a failure).
      auto lazy = PatternTableArtifact::FromBuffer(corrupt);
      if (lazy.ok()) {
        EXPECT_FALSE((*lazy)->ValidateFully().ok())
            << ArtifactSectionName(section.id) << " byte " << rel;
        if (section.id != ArtifactSection::kCatalog) {
          const std::string spec =
              FirstItemSpec(*(*lazy)->view().catalog);
          ServeMixedQueries(std::move(*lazy), spec);
        }
      }
    }
  }
}

TEST(ArtifactTest, HeaderTierCorruptInteriorOffsetsServeCleanErrors) {
  const PatternTable table = RandomTableForTest(12, 150);
  const std::string bytes = TableBytes(table);
  auto clean = PatternTableArtifact::FromBuffer(bytes);
  ASSERT_TRUE(clean.ok());
  const ArtifactSectionInfo& ioff = (*clean)->info().sections[1];
  ASSERT_EQ(ioff.id, ArtifactSection::kItemOffsets);

  // The review scenario: item_offsets = [0, huge, ..., total_items].
  // Interior entries are not validated at the header tier, so the open
  // succeeds — but every query touching row 0 must answer a clean
  // corruption error, not subspan out of range.
  std::string corrupt = bytes;
  const uint64_t huge = 0x7fffffffffff0000ull;
  std::memcpy(corrupt.data() + ioff.offset + 8, &huge, sizeof(huge));
  auto artifact = PatternTableArtifact::FromBuffer(corrupt);
  ASSERT_TRUE(artifact.ok()) << artifact.status().ToString();
  EXPECT_FALSE((*artifact)->ValidateFully().ok());

  ServingTable serving;
  serving.artifact = std::move(*artifact);
  QueryService service(&serving);
  for (const char* line : {"topk k=5", "corrective k=5"}) {
    const std::string response = service.HandleLine(line);
    EXPECT_NE(response.find("\"ok\":false"), std::string::npos) << line;
    EXPECT_NE(response.find("corruption"), std::string::npos) << line;
  }
  // The rest of the mix must stay well-formed (ok or error, no UB).
  auto again = PatternTableArtifact::FromBuffer(corrupt);
  ASSERT_TRUE(again.ok());
  const std::string spec = FirstItemSpec(*(*again)->view().catalog);
  ServeMixedQueries(std::move(*again), spec);
}

TEST(ArtifactTest, HeaderTierCorruptLinkValuesServeCleanErrors) {
  const PatternTable table = RandomTableForTest(13, 150);
  const std::string bytes = TableBytes(table);
  auto clean = PatternTableArtifact::FromBuffer(bytes);
  ASSERT_TRUE(clean.ok());
  const ArtifactSectionInfo& links = (*clean)->info().sections[4];
  ASSERT_EQ(links.id, ArtifactSection::kSubsetLinks);
  ASSERT_GT(links.size, 0u);

  // Row 1's first subset link points far past the last row (but is not
  // kNoLink): Corrective indexes stats through link values, so it must
  // detect the corruption instead of reading out of range.
  std::string corrupt = bytes;
  const uint32_t bogus =
      static_cast<uint32_t>((*clean)->view().size()) + 1000;
  std::memcpy(corrupt.data() + links.offset, &bogus, sizeof(bogus));
  auto artifact = PatternTableArtifact::FromBuffer(corrupt);
  ASSERT_TRUE(artifact.ok()) << artifact.status().ToString();
  EXPECT_FALSE((*artifact)->ValidateFully().ok());

  ServingTable serving;
  serving.artifact = std::move(*artifact);
  QueryService service(&serving);
  const std::string response = service.HandleLine("corrective k=5");
  EXPECT_NE(response.find("\"ok\":false"), std::string::npos);
  EXPECT_NE(response.find("corruption"), std::string::npos);

  auto again = PatternTableArtifact::FromBuffer(corrupt);
  ASSERT_TRUE(again.ok());
  const std::string spec = FirstItemSpec(*(*again)->view().catalog);
  ServeMixedQueries(std::move(*again), spec);
}

TEST(ArtifactTest, HeaderTierCorruptItemIdsRenderPlaceholders) {
  const PatternTable table = RandomTableForTest(14, 150);
  const std::string bytes = TableBytes(table);
  auto clean = PatternTableArtifact::FromBuffer(bytes);
  ASSERT_TRUE(clean.ok());
  const ArtifactSectionInfo& items = (*clean)->info().sections[0];
  ASSERT_EQ(items.id, ArtifactSection::kItems);
  ASSERT_GT(items.size, 0u);

  // An item id far outside the catalog: name rendering must degrade to
  // a placeholder, not trip the catalog's bounds CHECK mid-response.
  std::string corrupt = bytes;
  const uint32_t bogus = 0x40000000u;
  std::memcpy(corrupt.data() + items.offset, &bogus, sizeof(bogus));
  auto artifact = PatternTableArtifact::FromBuffer(corrupt);
  ASSERT_TRUE(artifact.ok()) << artifact.status().ToString();
  EXPECT_FALSE((*artifact)->ValidateFully().ok());
  const std::string spec = FirstItemSpec(*(*artifact)->view().catalog);
  ServeMixedQueries(std::move(*artifact), spec);
}

TEST(ArtifactTest, WrongMagicAndByteSwappedMagicAreRejected) {
  std::string bytes = TableBytes(RandomTableForTest(8, 150));
  std::string garbage = bytes;
  garbage[0] = 'X';
  EXPECT_FALSE(PatternTableArtifact::FromBuffer(garbage).ok());

  // The same artifact written on an opposite-endian host: the magic
  // survives byte-swapped. The error must call out the endianness.
  std::string swapped = bytes;
  for (size_t i = 0; i < 4; ++i) std::swap(swapped[i], swapped[7 - i]);
  auto result = PatternTableArtifact::FromBuffer(swapped);
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().message().find("endian"), std::string::npos)
      << result.status().ToString();
}

TEST(ArtifactTest, EmptyAndMissingFilesAreRejected) {
  const std::string dir = ScratchDir("artifact/missing");
  EXPECT_FALSE(PatternTableArtifact::Open(dir + "/nope.dvt").ok());
  DIVEXP_CHECK_OK(recovery::WriteFileAtomic(dir + "/empty.dvt", ""));
  EXPECT_FALSE(PatternTableArtifact::Open(dir + "/empty.dvt").ok());
  EXPECT_FALSE(PatternTableArtifact::FromBuffer("").ok());
}

TEST(ArtifactTest, OpenServingTableMapsArtifactsAndRejectsGarbage) {
  const PatternTable table = RandomTableForTest(11, 150);
  const std::string dir = ScratchDir("artifact/open");
  ASSERT_TRUE(
      WritePatternTableArtifact(dir + "/table.dvt", table).ok());
  DIVEXP_CHECK_OK(
      recovery::WriteFileAtomic(dir + "/garbage.bin", "not a table"));

  auto opened = OpenServingTable(dir + "/table.dvt");
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  ASSERT_NE(opened->artifact, nullptr);
  EXPECT_EQ(opened->view().fingerprint, TableFingerprint(table));
  auto garbage = OpenServingTable(dir + "/garbage.bin");
  ASSERT_FALSE(garbage.ok());
  EXPECT_EQ(garbage.status().code(), StatusCode::kInvalidArgument);
}

TEST(ArtifactTest, OpenServingTableRejectsRetiredTableSnapshot) {
  // A well-formed file of the retired pattern-table snapshot kind
  // (envelope kind 2): one attribute and the empty-itemset row. The
  // artifact is the only binary table format, so this is refused.
  recovery::ByteWriter w;
  w.PutU64(1);  // attributes
  w.PutString("a");
  w.PutU64(2);
  w.PutString("x");
  w.PutString("y");
  w.PutU64(10);  // dataset rows
  w.PutF64(0.5);  // global rate, mean, variance
  w.PutF64(0.5);
  w.PutF64(0.02);
  w.PutU64(1);  // rows: the empty itemset
  w.PutU32Vector(std::vector<uint32_t>{});
  w.PutU64(5);  // t, f, bot
  w.PutU64(5);
  w.PutU64(0);
  w.PutF64(1.0);  // support, rate, divergence, t
  w.PutF64(0.5);
  w.PutF64(0.0);
  w.PutF64(0.0);
  w.PutU32Vector(std::vector<uint32_t>{});  // subset links
  w.PutU64(2);  // link offsets
  w.PutU64(0);
  w.PutU64(0);
  const std::string path = ScratchDir("artifact/retired") + "/table.snap";
  ASSERT_TRUE(recovery::WriteSnapshotFile(
                  path, static_cast<recovery::SnapshotKind>(2), w.data())
                  .ok());

  auto opened = OpenServingTable(path);
  ASSERT_FALSE(opened.ok());
  EXPECT_EQ(opened.status().code(), StatusCode::kInvalidArgument)
      << opened.status().ToString();
}

/// Two binary attributes: a0 = items {0, 1}, a1 = items {2, 3}.
ItemCatalog MakeTwoAttrCatalog(const std::string& first_label = "v0") {
  ItemCatalog catalog;
  catalog.AddAttribute("a0", {first_label, "v1"});
  catalog.AddAttribute("a1", {"v0", "v1"});
  return catalog;
}

/// A table of `mined`'s rows, which Create puts in canonical order.
PatternTable MakeHandTable(std::vector<MinedPattern> mined,
                           ItemCatalog catalog = MakeTwoAttrCatalog(),
                           size_t num_rows = 10) {
  auto table = PatternTable::Create(std::move(mined), std::move(catalog),
                                    num_rows);
  DIVEXP_CHECK_OK(table.status());
  return std::move(table).value();
}

/// Canonical rows: the empty itemset, two singletons and their pair.
std::vector<MinedPattern> CanonicalPatterns() {
  return {{Itemset{}, OutcomeCounts{5, 4, 1}},
          {Itemset{0}, OutcomeCounts{3, 2, 0}},
          {Itemset{2}, OutcomeCounts{4, 1, 1}},
          {Itemset{0, 2}, OutcomeCounts{2, 1, 0}}};
}

TEST(ArtifactTest, SerializationIsDeterministic) {
  // Two independent explorations of the same data serialize to the same
  // bytes, and serializing one table twice does too: the harnesses that
  // compare TableBytes across run modes depend on it.
  const std::string first = TableBytes(RandomTableForTest(15, 150));
  const PatternTable again = RandomTableForTest(15, 150);
  EXPECT_EQ(TableBytes(again), first);
  EXPECT_EQ(TableBytes(again), first);
  EXPECT_NE(TableBytes(RandomTableForTest(16, 150)), first);
}

TEST(ArtifactTest, SerializedBytesReflectTalliesCatalogAndDatasetSize) {
  // The bit-identity oracle is only as strict as the bytes: a change to
  // any logical column must change them.
  const std::string base =
      TableBytes(MakeHandTable(CanonicalPatterns()));

  std::vector<MinedPattern> bot_moved = CanonicalPatterns();
  bot_moved[2].counts = OutcomeCounts{4, 2, 0};  // same support, new rate
  EXPECT_NE(TableBytes(MakeHandTable(bot_moved)), base);

  std::vector<MinedPattern> global_moved = CanonicalPatterns();
  global_moved[0].counts = OutcomeCounts{6, 3, 1};  // new f(D)
  EXPECT_NE(TableBytes(MakeHandTable(global_moved)), base);

  EXPECT_NE(TableBytes(MakeHandTable(CanonicalPatterns(),
                                             MakeTwoAttrCatalog(), 20)),
            base);
  EXPECT_NE(TableBytes(MakeHandTable(
                CanonicalPatterns(), MakeTwoAttrCatalog("w0"))),
            base);
}

TEST(ArtifactTest, NoLinkHolesRoundTrip) {
  // {0} is absent (as after a miner's budget truncation), so {0, 2}
  // keeps a kNoLink hole where its subset {0} would be.
  const PatternTable table =
      MakeHandTable({{Itemset{}, OutcomeCounts{5, 4, 1}},
                     {Itemset{2}, OutcomeCounts{4, 1, 1}},
                     {Itemset{0, 2}, OutcomeCounts{2, 1, 0}}});
  ASSERT_EQ(table.row_links(2)[1], PatternTable::kNoLink);

  auto artifact = PatternTableArtifact::FromBuffer(
      TableBytes(table), ArtifactValidation::kFull);
  ASSERT_TRUE(artifact.ok()) << artifact.status().ToString();
  ExpectViewMatchesTable((*artifact)->view(), table);
  const std::span<const uint32_t> links = (*artifact)->view().row_links(2);
  ASSERT_EQ(links.size(), 2u);
  EXPECT_EQ(links[0], 1u);  // {0, 2} \ {0} = {2}
  EXPECT_EQ(links[1], PatternTable::kNoLink);

  // The hole is part of the bytes: the complete table differs.
  EXPECT_NE(TableBytes(MakeHandTable(CanonicalPatterns())),
            TableBytes(table));
}

TEST(ArtifactTest, NonCanonicalInputIsWrittenCanonically) {
  std::vector<MinedPattern> swapped = CanonicalPatterns();
  std::swap(swapped[1], swapped[2]);  // {2} before {0}
  std::vector<MinedPattern> root_last = CanonicalPatterns();
  std::rotate(root_last.begin(), root_last.begin() + 1, root_last.end());
  const std::string want = TableBytes(MakeHandTable(CanonicalPatterns()));

  const std::string dir = ScratchDir("artifact/noncanonical");
  for (const auto& mined : {swapped, root_last}) {
    // Create puts the rows in canonical order, so the artifact is the
    // canonical table's, byte for byte.
    const PatternTable table = MakeHandTable(mined);
    EXPECT_TRUE(table.row_items(0).empty());
    EXPECT_EQ(TableBytes(table), want);
    const std::string path = dir + "/table.dvt";
    ASSERT_TRUE(WritePatternTableArtifact(path, table).ok());
    auto read = recovery::ReadFileToString(path);
    ASSERT_TRUE(read.ok());
    EXPECT_EQ(*read, want);
  }
  // Only a default-constructed table, which has no rows, is refused.
  EXPECT_EQ(SerializePatternTableArtifact(PatternTable()).status().code(),
            StatusCode::kInvalidArgument);
}

// The fingerprint hashes the items, item_offsets, tallies and stats
// columns word by word: flipping any one byte of them changes it, while
// the subset links (derived state) do not enter it.
TEST(ArtifactTest, FingerprintCoversEveryHashedByteButNotLinks) {
  for (const PatternTable& table :
       {MakeHandTable(CanonicalPatterns()), RandomTableForTest(5, 60)}) {
    const TableColumns columns = table.columns();
    const auto fingerprint = [&](const TableColumns& c) {
      return divexp::TableFingerprint(
          c, table.catalog(), table.num_dataset_rows(), table.global_rate(),
          table.global_mean(), table.global_variance());
    };
    const uint64_t base = fingerprint(columns);
    EXPECT_EQ(base, TableFingerprint(table));

    // Flips byte b of a copy of `column` and hashes the columns with
    // the copy in its place.
    const auto flipped = [&](auto column, auto place, size_t b) {
      using T = typename decltype(column)::value_type;
      std::vector<T> copy(column.begin(), column.end());
      reinterpret_cast<unsigned char*>(copy.data())[b] ^= 0x01;
      TableColumns c = columns;
      place(&c, std::span<const T>(copy));
      return fingerprint(c);
    };
    const auto every_byte = [&](auto column, auto place, const char* name) {
      // Every byte of a small table's column; an even spread of a larger
      // one's.
      const size_t bytes = column.size_bytes();
      const size_t step = bytes <= 512 ? 1 : bytes / 97 + 1;
      for (size_t b = 0; b < bytes; b += step) {
        EXPECT_NE(flipped(column, place, b), base) << name << " byte " << b;
      }
      EXPECT_NE(flipped(column, place, bytes - 1), base) << name << " last";
    };
    every_byte(columns.items,
               [](TableColumns* c, std::span<const uint32_t> s) {
                 c->items = s;
               },
               "items");
    every_byte(columns.item_offsets,
               [](TableColumns* c, std::span<const uint64_t> s) {
                 c->item_offsets = s;
               },
               "item_offsets");
    every_byte(columns.tallies,
               [](TableColumns* c, std::span<const uint64_t> s) {
                 c->tallies = s;
               },
               "tallies");
    every_byte(columns.stats,
               [](TableColumns* c, std::span<const double> s) {
                 c->stats = s;
               },
               "stats");

    std::vector<uint32_t> links(columns.subset_links.begin(),
                                columns.subset_links.end());
    ASSERT_FALSE(links.empty());
    links[links.size() / 2] = PatternTable::kNoLink;
    TableColumns unlinked = columns;
    unlinked.subset_links = links;
    EXPECT_EQ(fingerprint(unlinked), base);
  }
}

/// Fails unless an artifact whose header claims `version` (with a
/// matching header CRC) is refused by version at both tiers.
void ExpectVersionRejected(uint32_t version) {
  std::string bytes = TableBytes(RandomTableForTest(6, 60));
  std::memcpy(bytes.data() + 8, &version, sizeof(version));
  const uint32_t crc = recovery::Crc32(bytes.data(), 80);
  std::memcpy(bytes.data() + 80, &crc, sizeof(crc));
  for (const ArtifactValidation tier :
       {ArtifactValidation::kHeader, ArtifactValidation::kFull}) {
    auto artifact = PatternTableArtifact::FromBuffer(bytes, tier);
    ASSERT_FALSE(artifact.ok());
    EXPECT_EQ(artifact.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(artifact.status().message().find(
                  "artifact version " + std::to_string(version) +
                  " is not supported"),
              std::string::npos)
        << artifact.status().ToString();
  }
}

// Version 1 artifacts carry the byte-wise FNV-1a fingerprint; this build
// rejects them by version rather than by a fingerprint mismatch.
TEST(ArtifactTest, VersionOneHeaderIsRejected) { ExpectVersionRejected(1); }

// Version 2 artifacts have a seventh section, link_offsets, and the
// catalog at id 7; this build rejects them by version rather than by
// the section table.
TEST(ArtifactTest, VersionTwoHeaderIsRejected) {
  EXPECT_EQ(kArtifactVersion, 3u);
  EXPECT_EQ(kArtifactSectionCount, 6u);
  ExpectVersionRejected(2);
}

TEST(ArtifactTest, FromBufferOwnsAnAlignedCopy) {
  const PatternTable table = RandomTableForTest(17, 150);
  std::string bytes = TableBytes(table);
  auto artifact = PatternTableArtifact::FromBuffer(bytes);
  ASSERT_TRUE(artifact.ok()) << artifact.status().ToString();

  // The caller's buffer is no longer needed once FromBuffer returns.
  std::fill(bytes.begin(), bytes.end(), '\0');
  bytes.clear();
  bytes.shrink_to_fit();
  const TableView& view = (*artifact)->view();
  EXPECT_EQ(reinterpret_cast<uintptr_t>(view.tallies.data()) %
                alignof(uint64_t),
            0u);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(view.stats.data()) %
                alignof(double),
            0u);
  ExpectViewMatchesTable(view, table);
  EXPECT_TRUE((*artifact)->ValidateFully().ok());
}

}  // namespace
}  // namespace serve
}  // namespace divexp
