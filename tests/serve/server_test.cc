// Line-protocol tests for QueryService / ServeLoop: JSON envelopes,
// request canonicalization (equivalent spellings share one cache
// entry), error paths, and the stdin/stdout REPL.
#include "serve/server.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <sstream>
#include <string>
#include <vector>

#include "core/shapley.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "recovery/atomic_file.h"
#include "recovery/snapshot_file.h"
#include "serve/artifact.h"
#include "testing/test_explore.h"

namespace divexp {
namespace serve {
namespace {

using divexp::testing::RandomTableForTest;
using divexp::testing::ScratchDir;

class ServerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const PatternTable table = RandomTableForTest(1, 160, 3, 2, 0.02);
    const std::string path = ScratchDir("server/table") + "/table.dvt";
    DIVEXP_CHECK_OK(WritePatternTableArtifact(path, table));
    auto opened = OpenServingTable(path);
    DIVEXP_CHECK_OK(opened.status());
    table_ = std::make_unique<ServingTable>(std::move(opened).value());
  }

  QueryService MakeService(QueryServiceOptions options = {}) {
    return QueryService(table_.get(), options);
  }

  /// Asserts the response parses as JSON and returns it.
  obs::JsonValue Parse(const std::string& response) {
    auto value = obs::ParseJson(response);
    DIVEXP_CHECK_OK(value.status());
    return std::move(value).value();
  }

  bool Ok(const obs::JsonValue& v) {
    const obs::JsonValue* ok = v.Find("ok");
    return ok != nullptr && ok->kind == obs::JsonValue::Kind::kBool &&
           ok->boolean;
  }

  std::unique_ptr<ServingTable> table_;
};

TEST_F(ServerTest, TopKReturnsRowsRankedByDivergence) {
  QueryService service = MakeService();
  const obs::JsonValue v = Parse(service.HandleLine("topk k=3"));
  ASSERT_TRUE(Ok(v));
  const obs::JsonValue* rows = v.Find("rows");
  ASSERT_NE(rows, nullptr);
  ASSERT_TRUE(rows->is_array());
  ASSERT_EQ(rows->array.size(), 3u);
  double prev = 1e300;
  for (const obs::JsonValue& row : rows->array) {
    const obs::JsonValue* div = row.Find("divergence");
    ASSERT_NE(div, nullptr);
    EXPECT_LE(div->number, prev);
    prev = div->number;
  }
}

TEST_F(ServerTest, EquivalentSpellingsShareOneCacheEntry) {
  QueryService service = MakeService();
  // Same query, four spellings: defaults elided vs explicit, argument
  // order shuffled, whitespace noise.
  const std::string r1 = service.HandleLine("topk k=10");
  const std::string r2 = service.HandleLine("topk  k=10   order=desc");
  const std::string r3 =
      service.HandleLine("topk order=desc key=divergence k=10");
  const std::string r4 =
      service.HandleLine("topk min_len=1 max_len=0 min_support=0 k=10");
  EXPECT_EQ(r1, r2);
  EXPECT_EQ(r1, r3);
  EXPECT_EQ(r1, r4);
  const ResultCache::Stats stats = service.cache().stats();
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, 3u);
}

TEST_F(ServerTest, CacheDisabledStillAnswersIdentically) {
  QueryServiceOptions options;
  options.cache_enabled = false;
  QueryService cached = MakeService();
  QueryService uncached = MakeService(options);
  EXPECT_EQ(cached.HandleLine("topk k=5"), uncached.HandleLine("topk k=5"));
  EXPECT_EQ(uncached.cache().stats().misses, 0u);
}

TEST_F(ServerTest, ShapleyAndBrowseResolveItemNames) {
  QueryService service = MakeService();
  // Find a 2-item pattern via the engine, then query it by name.
  const TableView& view = table_->view();
  std::string spec;
  for (size_t i = 0; i < view.size(); ++i) {
    const ItemSpan items = view.row_items(i);
    if (items.size() != 2) continue;
    for (size_t j = 0; j < items.size(); ++j) {
      if (j) spec += ',';
      spec += view.catalog->ItemName(items[j]);
    }
    break;
  }
  ASSERT_FALSE(spec.empty());
  const obs::JsonValue shapley =
      Parse(service.HandleLine("shapley items=" + spec));
  ASSERT_TRUE(Ok(shapley)) << service.HandleLine("shapley items=" + spec);
  ASSERT_TRUE(shapley.Find("contributions")->is_array());
  EXPECT_EQ(shapley.Find("contributions")->array.size(), 2u);

  const obs::JsonValue browse =
      Parse(service.HandleLine("browse items=" + spec));
  ASSERT_TRUE(Ok(browse));
  // 2-item target: lattice has 4 nodes (∅, two singletons, target).
  EXPECT_EQ(browse.Find("nodes")->array.size(), 4u);
  EXPECT_EQ(browse.Find("edges")->array.size(), 4u);
}

TEST_F(ServerTest, StatsReportsBackingAndCacheCounters) {
  QueryService service = MakeService();
  service.HandleLine("topk k=1");
  service.HandleLine("topk k=1");
  const obs::JsonValue v = Parse(service.HandleLine("stats"));
  ASSERT_TRUE(Ok(v));
  EXPECT_EQ(v.Find("backing")->string, "mmap");
  const obs::JsonValue* cache = v.Find("cache");
  ASSERT_NE(cache, nullptr);
  EXPECT_EQ(cache->Find("hits")->number, 1.0);
  EXPECT_EQ(cache->Find("misses")->number, 1.0);
}

TEST_F(ServerTest, ErrorEnvelopesCarryCodeAndMessage) {
  QueryService service = MakeService();
  const struct {
    const char* line;
    const char* code;
  } kCases[] = {
      {"", "InvalidArgument"},
      {"frobnicate", "InvalidArgument"},
      {"topk k=banana", "InvalidArgument"},
      {"topk bogus_arg=1", "InvalidArgument"},
      {"topk k", "InvalidArgument"},
      {"topk key=upside_down", "InvalidArgument"},
      {"shapley", "InvalidArgument"},
      {"shapley items=no_such_attr=1", "NotFound"},
      {"stats k=1", "InvalidArgument"},
  };
  for (const auto& c : kCases) {
    const obs::JsonValue v = Parse(service.HandleLine(c.line));
    EXPECT_FALSE(Ok(v)) << c.line;
    const obs::JsonValue* code = v.Find("code");
    ASSERT_NE(code, nullptr) << c.line;
    EXPECT_EQ(code->string, c.code) << c.line;
    EXPECT_NE(v.Find("error"), nullptr) << c.line;
  }
}

TEST_F(ServerTest, ErrorsAreNotCached) {
  QueryService service = MakeService();
  service.HandleLine("shapley items=no_such_attr=1");
  EXPECT_EQ(service.cache().stats().entries, 0u);
}

TEST_F(ServerTest, ExecuteTimeErrorsAreNotCached) {
  QueryService service = MakeService();
  // Two values of the same attribute are mutually exclusive, so the
  // pair can never be a frequent itemset: the request parses cleanly
  // and fails inside Execute with NotFound. Unlike a parse error, this
  // path reaches the cache-insert decision — a transient error cached
  // here would be served as a stale hit forever.
  const ItemCatalog& catalog = *table_->view().catalog;
  const uint32_t first = catalog.first_item(0);
  const std::string spec =
      catalog.ItemName(first) + "," + catalog.ItemName(first + 1);
  const std::string r1 = service.HandleLine("browse items=" + spec);
  const std::string r2 = service.HandleLine("browse items=" + spec);
  EXPECT_NE(r1.find("\"NotFound\""), std::string::npos) << r1;
  EXPECT_EQ(r1, r2);
  const ResultCache::Stats stats = service.cache().stats();
  EXPECT_EQ(stats.entries, 0u);  // errors never enter the cache
  EXPECT_EQ(stats.hits, 0u);     // ... so the retry re-executes
  EXPECT_EQ(stats.misses, 2u);
}

TEST_F(ServerTest, ShapleyRejectsOversizedItemsets) {
  QueryService service = MakeService();
  // 70 items would shift 1ULL past 63 in the submask enumeration; the
  // analysis must reject the request before touching the table.
  std::vector<uint32_t> ids(70);
  for (uint32_t i = 0; i < 70; ++i) ids[i] = i;
  const auto result =
      ShapleyContributions(table_->view(), MakeItemset(std::move(ids)));
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(result.status().message().find("at most"), std::string::npos);
}

TEST_F(ServerTest, BrowseRejectsTargetsBeyondTheSubsetCapAndKeepsServing) {
  // {∅, one 26-item row} passes full validation; browsing the long row
  // used to abort the daemon in the 2^n subset enumeration.
  const std::string path = ScratchDir("server/long_target") + "/table.dvt";
  DIVEXP_CHECK_OK(
      WritePatternTableArtifact(path, testing::LongItemsetTable(26)));
  auto opened = OpenServingTable(path, ArtifactValidation::kFull);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  QueryService service(&*opened);
  std::string spec;
  for (size_t a = 0; a < 26; ++a) {
    if (a) spec += ',';
    spec += "a" + std::to_string(a) + "=1";
  }
  for (const std::string verb : {"browse", "shapley"}) {
    const obs::JsonValue v =
        Parse(service.HandleLine(verb + " items=" + spec));
    ASSERT_FALSE(Ok(v)) << verb;
    EXPECT_EQ(v.Find("code")->string, "InvalidArgument") << verb;
  }
  EXPECT_TRUE(Ok(Parse(service.HandleLine("topk k=1"))));
  EXPECT_TRUE(Ok(Parse(service.HandleLine("stats"))));
}

TEST_F(ServerTest, CancelledGuardBecomesCleanError) {
  QueryServiceOptions options;
  options.limits.deadline_ms = 1;
  QueryService service = MakeService(options);
  // A 1ms deadline may or may not trip on a small table — both outcomes
  // must be a well-formed envelope, never a crash or a hang.
  const obs::JsonValue v = Parse(service.HandleLine("corrective"));
  if (!Ok(v)) {
    EXPECT_EQ(v.Find("code")->string, "DeadlineExceeded");
  }
}

TEST_F(ServerTest, ServeLoopAnswersEachLineAndStopsOnQuit) {
  QueryService service = MakeService();
  std::istringstream in("topk k=1\n\nstats\nquit\ntopk k=2\n");
  std::ostringstream out;
  ServeLoop(service, in, out);
  std::vector<std::string> lines;
  std::istringstream reader(out.str());
  for (std::string line; std::getline(reader, line);) {
    lines.push_back(line);
  }
  // topk, stats, quit — the post-quit request is never served; the
  // blank line is skipped without a response.
  ASSERT_EQ(lines.size(), 3u);
  EXPECT_TRUE(Ok(Parse(lines[0])));
  EXPECT_TRUE(Ok(Parse(lines[1])));
  EXPECT_NE(lines[2].find("\"quit\":true"), std::string::npos);
}

TEST_F(ServerTest, OpenCountsMappedTablesAndRefusesOtherFiles) {
  // serve.open.mmap counts tables that came up; a refused file leaves it
  // alone. A mining checkpoint is the snapshot file users most likely
  // still have lying around — it must fail cleanly, naming the format.
  obs::Counter* opens =
      obs::MetricsRegistry::Default().GetCounter("serve.open.mmap");
  const std::string dir = ScratchDir("server/open_count");
  DIVEXP_CHECK_OK(WritePatternTableArtifact(
      dir + "/table.dvt", RandomTableForTest(2, 160, 3, 2, 0.02)));
  // Checkpoint-sized, so the open gets past the length check to the
  // magic.
  DIVEXP_CHECK_OK(recovery::WriteSnapshotFile(
      dir + "/mining.ckpt", recovery::SnapshotKind::kMiningState,
      std::string(512, '\x5a')));

  const uint64_t before = opens->Value();
  auto table = OpenServingTable(dir + "/table.dvt");
  ASSERT_TRUE(table.ok()) << table.status().ToString();
  EXPECT_EQ(opens->Value(), before + 1);

  auto checkpoint = OpenServingTable(dir + "/mining.ckpt");
  ASSERT_FALSE(checkpoint.ok());
  EXPECT_EQ(checkpoint.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(checkpoint.status().message().find("bad magic"),
            std::string::npos)
      << checkpoint.status().ToString();
  EXPECT_FALSE(OpenServingTable(dir + "/missing.dvt").ok());
  EXPECT_EQ(opens->Value(), before + 1);

  // The table that did open serves, and says how it is backed.
  QueryService service(&*table);
  const obs::JsonValue v = Parse(service.HandleLine("stats"));
  ASSERT_TRUE(Ok(v));
  EXPECT_EQ(v.Find("backing")->string, "mmap");
}

}  // namespace
}  // namespace serve
}  // namespace divexp
