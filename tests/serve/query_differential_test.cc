// The served read surface beyond equal answers: an infrequent itemset
// fails on the mmap'd artifact's TableView with the in-memory table's
// message, a cancelled guard stops every analysis, and an artifact
// attached from a buffer answers every verb as the mmap'd one does.
// That every analysis on the served artifact matches the in-memory
// table, for tables from every execution mode, is checked by the
// differential matrix (tests/matrix/matrix_test.cc).
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/corrective.h"
#include "core/lattice.h"
#include "core/shapley.h"
#include "serve/artifact.h"
#include "serve/server.h"
#include "testing/table_bytes.h"
#include "testing/test_explore.h"

namespace divexp {
namespace serve {
namespace {

using divexp::testing::TableBytes;

/// The reference table plus the artifact written from it, mmap'd.
struct Harness {
  PatternTable table;
  std::unique_ptr<PatternTableArtifact> artifact;

  explicit Harness(uint64_t seed, const std::string& leaf)
      : table(divexp::testing::RandomTableForTest(seed, 160, 4, 2, 0.02)) {
    const std::string path =
        divexp::testing::ScratchDir("serve/" + leaf) + "/table.dvt";
    DIVEXP_CHECK_OK(WritePatternTableArtifact(path, table));
    auto opened = PatternTableArtifact::Open(path);
    DIVEXP_CHECK_OK(opened.status());
    artifact = std::move(opened).value();
  }
};

TEST(QueryDifferentialTest, ErrorMessagesMatchTheCoreImplementations) {
  Harness h(10, "errors");
  // Two items of the same attribute never co-occur, so this itemset is
  // guaranteed infrequent whatever the seed produced.
  const Itemset missing{0, 1};
  ASSERT_FALSE(h.table.Contains(missing));
  auto core_shapley = ShapleyContributions(h.table, missing);
  auto core_lattice = BuildLattice(h.table, missing);
  const TableView& view = h.artifact->view();
  auto shapley = ShapleyContributions(view, missing);
  ASSERT_FALSE(shapley.ok());
  EXPECT_EQ(shapley.status().ToString(),
            core_shapley.status().ToString());
  auto browse = BuildLattice(view, missing);
  ASSERT_FALSE(browse.ok());
  EXPECT_EQ(browse.status().ToString(),
            core_lattice.status().ToString());
}

TEST(QueryDifferentialTest, CancelledGuardStopsEveryQuery) {
  Harness h(11, "guard");
  RunGuard guard;
  guard.RequestCancel();
  const TableView& view = h.artifact->view();
  EXPECT_EQ(TopKRows(view, TopKQuery{}, &guard).status().code(),
            StatusCode::kCancelled);
  EXPECT_EQ(ScanCorrectiveItems(view, CorrectiveOptions{}, &guard)
                .status()
                .code(),
            StatusCode::kCancelled);
  // Browse / Shapley need a valid multi-item target to reach the
  // guarded loops.
  for (size_t i = 0; i < h.table.size(); ++i) {
    const Itemset& items = h.table.row(i).items;
    if (items.size() < 2) continue;
    EXPECT_EQ(BuildLattice(view, items, &guard).status().code(),
              StatusCode::kCancelled);
    EXPECT_EQ(ShapleyContributions(view, items, &guard).status().code(),
              StatusCode::kCancelled);
    break;
  }
}

TEST(QueryDifferentialTest, BufferAndMappedArtifactsAnswerIdentically) {
  // The same bytes attached two ways — mmap'd from the file the writer
  // produced, and copied from SerializePatternTableArtifact in memory —
  // must give byte-identical responses to every verb.
  Harness h(12, "buffer");
  auto from_buffer = PatternTableArtifact::FromBuffer(TableBytes(h.table));
  ASSERT_TRUE(from_buffer.ok()) << from_buffer.status().ToString();
  ServingTable mapped;
  mapped.artifact = std::move(h.artifact);
  ServingTable buffered;
  buffered.artifact = std::move(from_buffer).value();
  QueryServiceOptions no_cache;
  no_cache.cache_enabled = false;
  QueryService mapped_service(&mapped, no_cache);
  QueryService buffered_service(&buffered, no_cache);

  std::vector<std::string> lines = {
      "stats", "topk k=5", "topk k=7 key=support order=asc",
      "topk k=3 key=significance min_support=0.1", "corrective k=5"};
  const TableView& view = mapped.view();
  for (size_t i = 1; i < view.size(); ++i) {
    std::string spec;
    const ItemSpan items = view.row_items(i);
    for (size_t j = 0; j < items.size(); ++j) {
      if (j) spec += ',';
      spec += view.catalog->ItemName(items[j]);
    }
    lines.push_back("shapley items=" + spec);
    lines.push_back("browse items=" + spec);
  }
  for (const std::string& line : lines) {
    const std::string response = mapped_service.HandleLine(line);
    EXPECT_NE(response.find("\"ok\":true"), std::string::npos)
        << line << " -> " << response;
    EXPECT_EQ(buffered_service.HandleLine(line), response) << line;
  }
}

}  // namespace
}  // namespace serve
}  // namespace divexp
