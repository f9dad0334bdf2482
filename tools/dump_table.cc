// Inspector for pattern-table serving artifacts: prints the header, the
// section table with per-section CRCs, the table fingerprint and the
// top-k divergent rows — without ever deserializing the table.
//
// usage: divexp-dump-table FILE [--top=N] [--verify]
//   --top=N    rows to print (default 10, 0 = none)
//   --verify   full validation: every section CRC, a complete row
//              walk and a fingerprint recompute (exit 1 on mismatch)
#include <charconv>
#include <cinttypes>
#include <cstdio>
#include <string>
#include <vector>

#include "core/pattern.h"
#include "serve/artifact.h"
#include "util/string_util.h"

namespace divexp {
namespace {

int Run(int argc, char** argv) {
  std::string path;
  size_t top = 10;
  bool verify = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--verify") {
      verify = true;
    } else if (arg.rfind("--top=", 0) == 0) {
      const char* first = arg.c_str() + 6;
      const char* last = arg.c_str() + arg.size();
      const auto [end, ec] = std::from_chars(first, last, top);
      if (first == last || ec != std::errc() || end != last) {
        std::fprintf(stderr, "bad value for --top: '%s'\n", first);
        return 2;
      }
    } else if (path.empty() && arg.rfind("--", 0) != 0) {
      path = arg;
    } else {
      std::fprintf(stderr, "unknown argument '%s'\n", arg.c_str());
      return 2;
    }
  }
  if (path.empty()) {
    std::fprintf(stderr,
                 "usage: divexp-dump-table FILE [--top=N] [--verify]\n");
    return 2;
  }

  const serve::ArtifactValidation validation =
      verify ? serve::ArtifactValidation::kFull
             : serve::ArtifactValidation::kHeader;
  auto table = serve::OpenServingTable(path, validation);
  if (!table.ok()) {
    std::fprintf(stderr, "failed to open %s: %s\n", path.c_str(),
                 table.status().ToString().c_str());
    return 1;
  }
  const serve::TableView& view = table->view();

  const serve::ArtifactInfo& info = table->artifact->info();
  std::printf("artifact: %s\n", path.c_str());
  std::printf("  version:      %u\n", info.version);
  std::printf("  file size:    %" PRIu64 " bytes\n", info.file_size);
  std::printf("  fingerprint:  %016" PRIx64 "\n", info.fingerprint);
  std::printf("  rows:         %" PRIu64 " (+ empty-itemset row)\n",
              info.num_rows - 1);
  std::printf("  dataset rows: %" PRIu64 "\n", info.num_dataset_rows);
  std::printf("  global rate:  %.6f\n", info.global_rate);
  std::printf("  sections:\n");
  for (const serve::ArtifactSectionInfo& s : info.sections) {
    std::printf("    %-12s off=%-10" PRIu64 " size=%-10" PRIu64
                " crc=%08x\n",
                serve::ArtifactSectionName(
                    static_cast<serve::ArtifactSection>(s.id)),
                s.offset, s.size, s.crc);
  }
  if (verify) std::printf("  full validation: OK\n");

  if (top == 0) return 0;
  TopKQuery query;
  query.k = top;
  auto rows = TopKRows(view, query);
  if (!rows.ok()) {
    std::fprintf(stderr, "top-k failed: %s\n",
                 rows.status().ToString().c_str());
    return 1;
  }
  std::printf("top %zu rows by divergence:\n", rows->size());
  for (const size_t i : *rows) {
    std::printf("  %-50s sup=%.4f div=%+.4f t=%.2f\n",
                ItemsetName(*view.catalog, view.row_items(i)).c_str(),
                view.support(i), view.divergence(i), view.t(i));
  }
  return 0;
}

}  // namespace
}  // namespace divexp

int main(int argc, char** argv) { return divexp::Run(argc, argv); }
