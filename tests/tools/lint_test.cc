// divexp-lint self-tests: rule unit checks, suppression semantics and
// the known-bad corpus (tests/tools/lint_corpus/). Every fixture
// declares the rule it violates via `// expect: <rule-id>` lines and
// must produce exactly those diagnostics — no more, no fewer — so a
// rule that goes blind (or noisy) fails here before it reaches CI.
#include "lint/lint.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#ifndef DIVEXP_SOURCE_ROOT
#error "DIVEXP_SOURCE_ROOT must point at the repo root"
#endif

namespace divexp {
namespace lint {
namespace {

namespace fs = std::filesystem;

const Catalogs& SharedCatalogs() {
  static const Catalogs* catalogs = [] {
    auto* c = new Catalogs();
    std::string error;
    if (!LoadCatalogs(DIVEXP_SOURCE_ROOT, c, &error)) {
      ADD_FAILURE() << "LoadCatalogs: " << error;
    }
    return c;
  }();
  return *catalogs;
}

std::string ReadFileOrDie(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path.string();
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

TEST(LintNamesTest, DottedNameGrammar) {
  EXPECT_TRUE(IsDottedName("explore.runs"));
  EXPECT_TRUE(IsDottedName("recovery.checkpoint.bytes"));
  EXPECT_TRUE(IsDottedName("explore.peak_memory_bytes"));
  EXPECT_FALSE(IsDottedName("explore"));          // one segment
  EXPECT_FALSE(IsDottedName("Explore.Runs"));     // case
  EXPECT_FALSE(IsDottedName("explore..runs"));    // empty segment
  EXPECT_FALSE(IsDottedName("explore.runs_"));    // trailing underscore
  EXPECT_FALSE(IsDottedName(".explore.runs"));
  EXPECT_FALSE(IsDottedName(""));
}

TEST(LintLayersTest, LayerOrderMatchesTheTree) {
  EXPECT_LT(LayerOf("src/util/status.h"), LayerOf("src/obs/metrics.h"));
  EXPECT_LT(LayerOf("src/obs/metrics.h"), LayerOf("src/data/csv.cc"));
  EXPECT_LT(LayerOf("src/data/csv.cc"), LayerOf("src/fpm/fpgrowth.cc"));
  EXPECT_LT(LayerOf("src/fpm/fpgrowth.cc"),
            LayerOf("src/core/explorer.cc"));
  // shard/ composes core explorers, so it sits between core and tools.
  EXPECT_LT(LayerOf("src/core/explorer.cc"),
            LayerOf("src/shard/shard.cc"));
  EXPECT_LT(LayerOf("src/shard/shard.cc"),
            LayerOf("tools/cli_run.cc"));
  // serve/ reads tables core produced (and snapshots recovery wrote)
  // but is only ever driven from tools, so it slots in between.
  EXPECT_LT(LayerOf("src/core/explorer.cc"),
            LayerOf("src/serve/artifact.cc"));
  EXPECT_LT(LayerOf("src/shard/shard.cc"),
            LayerOf("src/serve/artifact.cc"));
  EXPECT_LT(LayerOf("src/serve/artifact.cc"),
            LayerOf("tools/cli_serve.cc"));
  EXPECT_LT(LayerOf("src/core/explorer.cc"),
            LayerOf("tools/cli_run.cc"));
  EXPECT_LT(LayerOf("tools/cli_run.cc"),
            LayerOf("tests/core/explorer_test.cc"));
  // The pinned recovery IO files sit below data/ so csv.cc can write
  // atomically; the rest of recovery/ sits above fpm/.
  EXPECT_LT(LayerOf("src/recovery/atomic_file.cc"),
            LayerOf("src/data/csv.cc"));
  EXPECT_GT(LayerOf("src/recovery/checkpoint.cc"),
            LayerOf("src/fpm/fpgrowth.cc"));
  // The compute kernels pin below the miners that call them, but above
  // the data layer they know nothing about.
  EXPECT_LT(LayerOf("src/fpm/kernels/kernels.h"),
            LayerOf("src/fpm/fpgrowth.cc"));
  EXPECT_GT(LayerOf("src/fpm/kernels/kernels.h"),
            LayerOf("src/data/csv.cc"));
  EXPECT_EQ(LayerOf("src/fpm/kernels/kernels_internal.h"),
            LayerOf("src/fpm/kernels/kernels.h"));
  // The process-isolation layer pins above both the shard driver and
  // serve/ (it writes worker results in the artifact format) but below
  // tools/, so shard/shard.cc can never include a worker header.
  EXPECT_GT(LayerOf("src/shard/worker/coordinator.cc"),
            LayerOf("src/shard/shard.cc"));
  EXPECT_GT(LayerOf("src/shard/worker/worker.cc"),
            LayerOf("src/serve/artifact.cc"));
  EXPECT_LT(LayerOf("src/shard/worker/coordinator.cc"),
            LayerOf("tools/cli_run.cc"));
  EXPECT_EQ(LayerOf("third_party/whatever.h"), -1);
}

TEST(LintCatalogsTest, LoadsTheRepoReferenceData) {
  const Catalogs& catalogs = SharedCatalogs();
  EXPECT_GT(catalogs.failpoints.count("io.snapshot.write"), 0u);
  EXPECT_GT(catalogs.failpoints.count("parallel.worker"), 0u);
  EXPECT_GT(catalogs.documented_names.count("explore.runs"), 0u);
  EXPECT_GT(catalogs.documented_names.count("mine.grow"), 0u);
  EXPECT_GT(catalogs.dynamic_prefixes.count("recovery.failpoint."), 0u);
  EXPECT_GT(catalogs.status_functions.count("WriteFileAtomic"), 0u);
  EXPECT_GT(catalogs.status_functions.count("Flush"), 0u);
  // The canonical lock hierarchy of docs/static-analysis.md.
  ASSERT_FALSE(catalogs.lock_ranks.empty());
  ASSERT_GT(catalogs.lock_ranks.count("recovery::Checkpointer::mu_"), 0u);
  EXPECT_LT(catalogs.lock_ranks.at("recovery::Checkpointer::mu_"),
            catalogs.lock_ranks.at("obs::MetricsRegistry::mu_"));
  EXPECT_LT(catalogs.lock_ranks.at("recovery::Checkpointer::mu_"),
            catalogs.lock_ranks.at("FailPointRegistry::mu_"));
  // The checkpointer serializes snapshot IO under its lock by design.
  EXPECT_GT(catalogs.lock_may_block.count("recovery::Checkpointer::mu_"),
            0u);
}

TEST(LintSuppressionTest, AllowWithReasonSuppresses) {
  // Token assembled by literal concatenation so this test file itself
  // stays lint-clean.
  const std::string token = std::string("of") + "stream";
  std::vector<Diagnostic> diags;
  LintFile("src/data/x.cc",
           "std::" + token + " out(p);  // lint:allow(" +
               std::string(kRuleNoRawFileOutput) + "): fixture\n",
           SharedCatalogs(), &diags);
  EXPECT_TRUE(diags.empty());
}

TEST(LintSuppressionTest, AllowWithoutReasonDoesNotSuppress) {
  const std::string token = std::string("of") + "stream";
  std::vector<Diagnostic> diags;
  LintFile("src/data/x.cc",
           "std::" + token + " out(p);  // lint:allow(" +
               std::string(kRuleNoRawFileOutput) + ")\n",
           SharedCatalogs(), &diags);
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].rule, kRuleNoRawFileOutput);
}

TEST(LintShardStatusTest, MentionWithoutStatusReadFlags) {
  std::vector<Diagnostic> diags;
  LintFile("src/shard/consume.cc",
           "size_t N(const ShardOutcome& o) { return o.patterns.size(); }\n",
           SharedCatalogs(), &diags);
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].rule, kRuleShardStatus);
  EXPECT_EQ(diags[0].line, 1);
}

TEST(LintShardStatusTest, StatusReadAnywhereInFileClears) {
  std::vector<Diagnostic> diags;
  LintFile("src/shard/consume.cc",
           "size_t N(const ShardOutcome& o) {\n"
           "  if (!o.status.ok()) return 0;\n"
           "  return o.patterns.size();\n"
           "}\n",
           SharedCatalogs(), &diags);
  EXPECT_TRUE(diags.empty());
}

TEST(LintShardStatusTest, DefinitionFileIsExempt) {
  std::vector<Diagnostic> diags;
  LintFile("src/shard/shard.h",
           "struct ShardOutcome {\n"
           "  size_t shard = 0;\n"
           "};\n",
           SharedCatalogs(), &diags);
  EXPECT_TRUE(diags.empty());
}

TEST(LintShardStatusTest, AllowWithReasonSuppresses) {
  std::vector<Diagnostic> diags;
  LintFile("src/shard/consume.cc",
           "void Log(const ShardOutcome& o);  // lint:allow(" +
               std::string(kRuleShardStatus) + "): declaration only\n",
           SharedCatalogs(), &diags);
  EXPECT_TRUE(diags.empty());
}

TEST(LintShardStatusTest, UnlayeredPathsAreSkipped) {
  std::vector<Diagnostic> diags;
  LintFile("tests/shard/shard_test.cc",
           "size_t N(const ShardOutcome& o) { return o.patterns.size(); }\n",
           SharedCatalogs(), &diags);
  EXPECT_TRUE(diags.empty());
}

TEST(LintKernelNoAllocTest, FlagsAllocTokensInKernelUnits) {
  const std::string token = std::string("vec") + "tor";  // stay lint-clean
  std::vector<Diagnostic> diags;
  LintFile("src/fpm/kernels/kernels_scalar.cc",
           "std::" + token + "<uint64_t> tmp(n);\n", SharedCatalogs(),
           &diags);
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].rule, kRuleKernelNoAlloc);
}

TEST(LintKernelNoAllocTest, NonKernelBasenamesAndOutsideFilesAreExempt) {
  const std::string line = "std::" + (std::string("vec") + "tor") +
                           "<uint64_t> tmp(n);\n";
  for (const char* path :
       {"src/fpm/kernels/tables.h", "src/fpm/apriori.cc",
        "tests/fpm/kernel_differential_test.cc"}) {
    std::vector<Diagnostic> diags;
    LintFile(path, line, SharedCatalogs(), &diags);
    EXPECT_TRUE(diags.empty()) << path;
  }
}

TEST(LintKernelNoAllocTest, CommentLinesAndAllowsAreSkipped) {
  std::vector<Diagnostic> diags;
  LintFile("src/fpm/kernels/kernels.h",
           "//  * pure compute: no new, no malloc, no mutex\n"
           "int x;  // lint:allow(" +
               std::string(kRuleKernelNoAlloc) +
               "): prose mentions new in a trailing comment\n",
           SharedCatalogs(), &diags);
  EXPECT_TRUE(diags.empty());
}

TEST(LintServeNoMutationTest, FlagsMutationTokensOnlyInServe) {
  // Token assembled by concatenation so this test file stays clean.
  const std::string line =
      "auto* p = " + (std::string("const_") + "cast") +
      "<uint32_t*>(view.items.data());\n";
  std::vector<Diagnostic> diags;
  LintFile("src/serve/query.cc", line, SharedCatalogs(), &diags);
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].rule, kRuleServeNoMutation);
  for (const char* path :
       {"src/core/pattern.cc", "tests/serve/artifact_test.cc"}) {
    std::vector<Diagnostic> other;
    LintFile(path, line, SharedCatalogs(), &other);
    EXPECT_TRUE(other.empty()) << path;
  }
}

TEST(LintRawSubprocessTest, FlagsCallsOutsideTheWrapper) {
  // Token assembled by concatenation so this test file stays clean.
  const std::string line =
      "const int pid = ::" + (std::string("fo") + "rk") + "();\n";
  std::vector<Diagnostic> diags;
  LintFile("src/shard/worker/coordinator.cc", line, SharedCatalogs(),
           &diags);
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].rule, kRuleNoRawSubprocess);
}

TEST(LintRawSubprocessTest, WrapperUnitAndProseAreExempt) {
  const std::string call =
      "const int pid = ::" + (std::string("fo") + "rk") + "();\n";
  std::vector<Diagnostic> diags;
  LintFile("src/util/subprocess.cc", call, SharedCatalogs(), &diags);
  EXPECT_TRUE(diags.empty());
  // Non-call mentions (prose in trailing comments, identifier
  // fragments) stay quiet.
  std::vector<Diagnostic> prose;
  LintFile("src/shard/worker/coordinator.cc",
           "int x = 0;  // workers are " + (std::string("fo") + "rk") +
               "/exec children\n",
           SharedCatalogs(), &prose);
  EXPECT_TRUE(prose.empty());
}

TEST(LintFailpointSpecTest, ProcessChaosActionsAreValid) {
  // The arming-site trigger is kept in its own string so this test
  // file's physical lines never pair it with an @-spec literal (the
  // tree lint scans this file too).
  const std::string trigger = ";  // --failpoints example\n";
  // Specs with the chaos actions pass; a bogus action still fails.
  std::vector<Diagnostic> diags;
  LintFile("src/shard/worker/coordinator.cc",
           "const char* s = \"shard.unit.mine@1:kill,"
           "io.snapshot.write@1:segv\"" +
               trigger,
           SharedCatalogs(), &diags);
  EXPECT_TRUE(diags.empty());
  std::vector<Diagnostic> bad;
  LintFile("src/shard/worker/coordinator.cc",
           "const char* s = \"shard.unit.mine@1:explode\"" + trigger,
           SharedCatalogs(), &bad);
  ASSERT_EQ(bad.size(), 1u);
  EXPECT_EQ(bad[0].rule, kRuleFailpointName);
}

// --- Cross-file lock passes -----------------------------------------

std::vector<std::string> RulesOf(const std::vector<Diagnostic>& diags) {
  std::vector<std::string> rules;
  for (const auto& d : diags) rules.push_back(d.rule);
  std::sort(rules.begin(), rules.end());
  return rules;
}

TEST(LintLockOrderTest, ConsistentButUndeclaredEdgeFlags) {
  std::vector<Diagnostic> diags;
  LintFile("src/demo/pair.cc",
           "namespace divexp {\n"
           "class Pair {\n"
           " public:\n"
           "  void Go() {\n"
           "    MutexLock lo(first_);\n"
           "    MutexLock li(second_);\n"
           "  }\n"
           " private:\n"
           "  Mutex first_;\n"
           "  Mutex second_;\n"
           "};\n"
           "}  // namespace divexp\n",
           SharedCatalogs(), &diags);
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].rule, kRuleUndeclaredLockEdge);
  EXPECT_EQ(diags[0].line, 6);
}

TEST(LintLockOrderTest, OppositeOrdersReportOneCycle) {
  std::vector<Diagnostic> diags;
  LintFile("src/demo/pair.cc",
           "namespace divexp {\n"
           "class Pair {\n"
           " public:\n"
           "  void Fwd() {\n"
           "    MutexLock la(a_);\n"
           "    MutexLock lb(b_);\n"
           "  }\n"
           "  void Rev() {\n"
           "    MutexLock lb(b_);\n"
           "    MutexLock la(a_);\n"
           "  }\n"
           " private:\n"
           "  Mutex a_;\n"
           "  Mutex b_;\n"
           "};\n"
           "}  // namespace divexp\n",
           SharedCatalogs(), &diags);
  // Exactly one finding, on the edge that closes the cycle; the other
  // edge is the same bug and must not double-report as undeclared.
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].rule, kRuleLockOrderCycle);
  EXPECT_EQ(diags[0].line, 10);
}

TEST(LintLockOrderTest, RankInversionThroughCallEdgeFlags) {
  // MetricsRegistry (rank 50) must never call into code that takes the
  // checkpointer lock (rank 30); the edge is derived through the call,
  // not a lexically nested MutexLock.
  std::vector<Diagnostic> diags;
  LintFile("src/obs/fixture.cc",
           "namespace divexp {\n"
           "namespace recovery {\n"
           "class Checkpointer {\n"
           " public:\n"
           "  void Touch() { MutexLock l(mu_); }\n"
           " private:\n"
           "  Mutex mu_;\n"
           "};\n"
           "}  // namespace recovery\n"
           "namespace obs {\n"
           "class MetricsRegistry {\n"
           " public:\n"
           "  void Bump(recovery::Checkpointer& c) {\n"
           "    MutexLock l(mu_);\n"
           "    c.Touch();\n"
           "  }\n"
           " private:\n"
           "  Mutex mu_;\n"
           "};\n"
           "}  // namespace obs\n"
           "}  // namespace divexp\n",
           SharedCatalogs(), &diags);
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].rule, kRuleLockOrderCycle);
  EXPECT_EQ(diags[0].line, 15);
  EXPECT_NE(diags[0].message.find("rank"), std::string::npos);
}

TEST(LintLockOrderTest, DeclaredDirectionAndMayBlockStayQuiet) {
  // The checkpointer's documented behavior: IO and a rank-upward call
  // edge while holding its (may-block) lock. Clean.
  std::vector<Diagnostic> diags;
  LintFile("src/recovery/fixture.cc",
           "namespace divexp {\n"
           "namespace obs {\n"
           "class MetricsRegistry {\n"
           " public:\n"
           "  void Add() { MutexLock l(mu_); }\n"
           " private:\n"
           "  Mutex mu_;\n"
           "};\n"
           "}  // namespace obs\n"
           "namespace recovery {\n"
           "class Checkpointer {\n"
           " public:\n"
           "  void Flush(obs::MetricsRegistry& m) {\n"
           "    MutexLock l(mu_);\n"
           "    std::this_thread::sleep_for(std::chrono::seconds(1));\n"
           "    m.Add();\n"
           "  }\n"
           " private:\n"
           "  Mutex mu_;\n"
           "};\n"
           "}  // namespace recovery\n"
           "}  // namespace divexp\n",
           SharedCatalogs(), &diags);
  EXPECT_EQ(RulesOf(diags), std::vector<std::string>{}) << diags.size();
}

TEST(LintLockOrderTest, RequiresCountsAsEntryHeld) {
  // No MutexLock in sight: the REQUIRES annotation alone establishes
  // the held set for the blocking check.
  std::vector<Diagnostic> diags;
  LintFile("src/demo/widget.cc",
           "namespace divexp {\n"
           "class Widget {\n"
           " public:\n"
           "  void Locked() REQUIRES(mu_) {\n"
           "    std::this_thread::sleep_for(std::chrono::seconds(1));\n"
           "  }\n"
           " private:\n"
           "  Mutex mu_;\n"
           "};\n"
           "}  // namespace divexp\n",
           SharedCatalogs(), &diags);
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].rule, kRuleNoBlockingUnderLock);
  EXPECT_EQ(diags[0].line, 5);
}

TEST(LintLockOrderTest, ExcludesAnnotationCreatesCallEdge) {
  // Update() has no definition in the file; its EXCLUDES declaration
  // is the contract "acquires mu_ internally", enough to derive the
  // edge from the caller's held set.
  std::vector<Diagnostic> diags;
  LintFile("src/demo/owner.cc",
           "namespace divexp {\n"
           "class Registry {\n"
           " public:\n"
           "  void Update() EXCLUDES(mu_);\n"
           " private:\n"
           "  Mutex mu_;\n"
           "};\n"
           "class Owner {\n"
           " public:\n"
           "  void Run(Registry& r) {\n"
           "    MutexLock l(big_);\n"
           "    r.Update();\n"
           "  }\n"
           " private:\n"
           "  Mutex big_;\n"
           "};\n"
           "}  // namespace divexp\n",
           SharedCatalogs(), &diags);
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].rule, kRuleUndeclaredLockEdge);
  EXPECT_EQ(diags[0].line, 12);
}

TEST(LintLockOrderTest, TestsAndBenchesAreOutOfScope) {
  std::vector<Diagnostic> diags;
  LintFile("tests/demo/pair_test.cc",
           "namespace divexp {\n"
           "class Pair {\n"
           " public:\n"
           "  void Fwd() { MutexLock la(a_); MutexLock lb(b_); }\n"
           "  void Rev() { MutexLock lb(b_); MutexLock la(a_); }\n"
           " private:\n"
           "  Mutex a_;\n"
           "  Mutex b_;\n"
           "};\n"
           "}  // namespace divexp\n",
           SharedCatalogs(), &diags);
  EXPECT_TRUE(diags.empty());
}

TEST(LintTreeLinterTest, ResolvesCallEdgesAcrossFiles) {
  // The inversion spans three files: the lock lives in x.h, its
  // acquisition in x.cc, and the caller holding its own lock in y.cc.
  TreeLinter linter(SharedCatalogs());
  linter.AddFile("src/demo/x.h",
                 "namespace divexp {\n"
                 "class Api {\n"
                 " public:\n"
                 "  void Deep();\n"
                 " private:\n"
                 "  Mutex inner_;\n"
                 "};\n"
                 "}  // namespace divexp\n");
  linter.AddFile("src/demo/x.cc",
                 "#include \"demo/x.h\"\n"
                 "namespace divexp {\n"
                 "void Api::Deep() { MutexLock l(inner_); }\n"
                 "}  // namespace divexp\n");
  linter.AddFile("src/demo/y.cc",
                 "#include \"demo/x.h\"\n"
                 "namespace divexp {\n"
                 "class Driver {\n"
                 " public:\n"
                 "  void Run(Api& api) {\n"
                 "    MutexLock l(outer_);\n"
                 "    api.Deep();\n"
                 "  }\n"
                 " private:\n"
                 "  Mutex outer_;\n"
                 "};\n"
                 "}  // namespace divexp\n");
  const std::vector<Diagnostic> diags = linter.Run();
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].rule, kRuleUndeclaredLockEdge);
  EXPECT_EQ(diags[0].file, "src/demo/y.cc");
  EXPECT_EQ(diags[0].line, 7);
}

// --- Stale suppressions ---------------------------------------------

TEST(LintStaleSuppressionTest, UnusedAllowOfKnownRuleFlags) {
  // Assembled so this test file itself carries no well-formed allow.
  const std::string content = "int x = 0;  // lint:al" +
                              std::string("low(") + kRuleKernelNoAlloc +
                              "): long since refactored away\n";
  std::vector<Diagnostic> diags;
  LintFile("src/data/x.cc", content, SharedCatalogs(), &diags);
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].rule, kRuleStaleSuppression);
  EXPECT_EQ(diags[0].line, 1);
}

TEST(LintStaleSuppressionTest, UsedAllowIsNotStale) {
  const std::string token = std::string("of") + "stream";
  std::vector<Diagnostic> diags;
  LintFile("src/data/x.cc",
           "std::" + token + " out(p);  // lint:al" + std::string("low(") +
               kRuleNoRawFileOutput + "): fixture\n",
           SharedCatalogs(), &diags);
  EXPECT_TRUE(diags.empty());
}

TEST(LintStaleSuppressionTest, MalformedAllowsAreIgnored) {
  // Unknown rule id and missing reason are both non-suppressions; the
  // stale pass only inventories well-formed allows, and an allow can
  // never suppress the stale finding about itself.
  const std::string allow = "// lint:al" + std::string("low(");
  std::vector<Diagnostic> diags;
  LintFile("src/data/x.cc",
           "int a = 0;  " + allow + "not-a-rule): typo\n" + "int b = 0;  " +
               allow + std::string(kRuleKernelNoAlloc) + ")\n",
           SharedCatalogs(), &diags);
  EXPECT_TRUE(diags.empty());
}

// --- Output formats -------------------------------------------------

TEST(LintRenderTest, JsonSchemaAndEscaping) {
  std::vector<Diagnostic> diags;
  EXPECT_EQ(RenderJson(diags, 3),
            "{\n  \"files\": 3,\n  \"findings\": []\n}\n");
  diags.push_back(
      Diagnostic{"src/a.cc", 7, "kernel-no-alloc", "uses \"new\""});
  const std::string out = RenderJson(diags, 3);
  EXPECT_NE(out.find("\"file\": \"src/a.cc\""), std::string::npos);
  EXPECT_NE(out.find("\"line\": 7"), std::string::npos);
  EXPECT_NE(out.find("\"rule\": \"kernel-no-alloc\""), std::string::npos);
  EXPECT_NE(out.find("uses \\\"new\\\""), std::string::npos);
}

TEST(LintRenderTest, GitHubWorkflowCommands) {
  std::vector<Diagnostic> diags;
  diags.push_back(Diagnostic{"src/a.cc", 7, "kernel-no-alloc",
                             "bad%token\nsecond line"});
  const std::string out = RenderGitHub(diags);
  EXPECT_EQ(out.find("::error file=src/a.cc,line=7,"), 0u);
  // The message payload percent-encodes %, CR and LF.
  EXPECT_NE(out.find("bad%25token%0Asecond line"), std::string::npos);
  EXPECT_EQ(RenderGitHub({}), "");
}

TEST(LintCorpusTest, EveryFixtureProducesExactlyItsDeclaredFindings) {
  const fs::path corpus =
      fs::path(DIVEXP_SOURCE_ROOT) / "tests" / "tools" / "lint_corpus";
  ASSERT_TRUE(fs::exists(corpus)) << corpus.string();
  size_t fixtures = 0;
  for (const auto& entry : fs::directory_iterator(corpus)) {
    if (!entry.is_regular_file()) continue;
    const std::string ext = entry.path().extension().string();
    if (ext != ".cc" && ext != ".h") continue;
    ++fixtures;
    SCOPED_TRACE(entry.path().filename().string());
    const std::string content = ReadFileOrDie(entry.path());

    std::vector<std::string> expected;
    std::istringstream in(content);
    std::string line;
    const std::string marker = "// expect: ";
    while (std::getline(in, line)) {
      size_t pos = line.find(marker);
      if (pos != std::string::npos) {
        expected.push_back(line.substr(pos + marker.size()));
      }
    }
    ASSERT_FALSE(expected.empty())
        << "fixture declares no `// expect: <rule-id>` line";

    std::vector<Diagnostic> diags;
    LintFile("tests/tools/lint_corpus/" +
                 entry.path().filename().string(),
             content, SharedCatalogs(), &diags);
    std::vector<std::string> actual;
    for (const auto& d : diags) actual.push_back(d.rule);
    std::sort(expected.begin(), expected.end());
    std::sort(actual.begin(), actual.end());
    EXPECT_EQ(actual, expected);
  }
  // The corpus must keep covering every rule the linter ships (14
  // rules, some with multiple fixtures).
  EXPECT_GE(fixtures, 17u);
}

}  // namespace
}  // namespace lint
}  // namespace divexp
