// Execution-mode differential matrix. The paper's completeness result
// (§5, Thm. 5.1) says any FPM backend yields the same pattern table;
// here every way of running the exploration must yield it bit for bit.
//
// A cell explores one input from testing/miner_tables.h under one
// setting of miner {fpgrowth, apriori, eclat, auto} x kernel {scalar,
// simd} x threads {1, 2, 8} x support {0.02, 0.08, 0.25} x max_length
// {0, 1, 2, 3}, in one mode: monolithic; killed by a seeded fault
// schedule, then resumed; sharded in 1, 4 or 8 threads, clean and under
// a seeded fault schedule; sharded in worker processes, clean and under
// a SIGKILL or SIGSEGV schedule. Every cell must match the scalar,
// single-thread, monolithic FP-growth run on its (input, support,
// max_length): the same artifact bytes, whose header stamps the
// TableFingerprint, and the same answers to top-k for every key and
// order, Shapley on the top rows, global divergence, corrective items,
// pruning and browse, in memory and (but for the plain monolithic cells)
// on the artifact served from a buffer. Every setting runs monolithic on
// every input; a third of the settings, in rotation, run the other
// in-process modes on one input; the process cells cover every pair of
// axis values.
// Metamorphic inputs and 0- and 1-row tables check the relations the
// paper's definitions imply. DIVEXP_SCHEDULES sets the seeded schedules
// per fault cell.
//
// This binary is its own shard worker: the process coordinator re-execs
// it with the hidden `shard-worker` verb, dispatched in main() before
// gtest parses argv.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdio>
#include <iterator>
#include <map>
#include <optional>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "core/corrective.h"
#include "core/global_divergence.h"
#include "core/lattice.h"
#include "core/pruning.h"
#include "core/shapley.h"
#include "recovery/mining_snapshot.h"
#include "serve/artifact.h"
#include "shard/worker/worker.h"
#include "testing/modes.h"
#include "testing/table_bytes.h"
#include "util/failpoint.h"
#include "util/subprocess.h"

namespace divexp {
namespace testing {
namespace {

using shard::ShardedExplorer;
using shard::ShardedExplorerOptions;

constexpr MinerKind kMiners[] = {MinerKind::kFpGrowth, MinerKind::kApriori,
                                 MinerKind::kEclat, MinerKind::kAuto};
constexpr fpm::KernelKind kKernels[] = {fpm::KernelKind::kScalar,
                                        fpm::KernelKind::kSimd};
constexpr size_t kThreads[] = {1, 2, 8};
constexpr double kSupports[] = {0.02, 0.08, 0.25};
constexpr size_t kMaxLengths[] = {0, 1, 2, 3};
constexpr size_t kShardCounts[] = {1, 4, 8};

struct Config {
  MinerKind miner = MinerKind::kFpGrowth;
  fpm::KernelKind kernel = fpm::KernelKind::kScalar;
  size_t threads = 1;
  double support = 0.02;
  size_t max_length = 0;
};

ExplorerOptions Options(const Config& c) {
  ExplorerOptions opts;
  opts.miner = c.miner;
  opts.kernel = c.kernel;
  opts.num_threads = c.threads;
  opts.min_support = c.support;
  opts.max_length = c.max_length;
  return opts;
}

std::string Name(const Config& c) {
  return std::string(MinerKindName(c.miner)) + "_" +
         fpm::KernelKindName(c.kernel) + "_t" + std::to_string(c.threads) +
         "_s" + std::to_string(static_cast<int>(c.support * 100)) + "_l" +
         std::to_string(c.max_length);
}

// ---------------------------------------------------------------------
// Analysis answers, rendered as text so two runs compare with one ==.
// Doubles print as hex floats: equal text means equal bits.

void Put(std::string* out, double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), " %a", v);
  *out += buf;
}

void Put(std::string* out, size_t v) { *out += " " + std::to_string(v); }

void Put(std::string* out, ItemSpan items) {
  *out += " {";
  for (const uint32_t item : items) Put(out, size_t{item});
  *out += " }";
}

template <typename T>
T Value(Result<T> result) {
  DIVEXP_CHECK_OK(result.status());
  return std::move(result).value();
}

/// Shapley contributions of `items` and, for two or more items, the
/// browse lattice.
template <typename Table>
std::string RowAnswers(const Table& t, const Itemset& items) {
  std::string out = "\nshapley";
  for (const ItemContribution& c : Value(ShapleyContributions(t, items))) {
    Put(&out, size_t{c.item});
    Put(&out, c.contribution);
  }
  if (items.size() < 2) return out;
  out += "\nbrowse";
  const Lattice lattice = Value(BuildLattice(t, items));
  for (const LatticeNode& n : lattice.nodes) {
    Put(&out, n.items);
    Put(&out, n.divergence);
    Put(&out, n.t);
    out += n.frequent ? " f" : " -";
    out += n.corrective ? "c" : "-";
  }
  for (const LatticeEdge& e : lattice.edges) {
    Put(&out, e.from);
    Put(&out, e.to);
  }
  return out;
}

/// The answers every table read surface gives: top-k for every key and
/// order (unbounded, and bounded by k, support and length), Shapley and
/// browse on the top rows, corrective items (all, and the top 5 above a
/// factor).
template <typename Table>
std::string SurfaceAnswers(const Table& t) {
  std::string out;
  for (const auto key : {PatternTable::RankKey::kDivergence,
                         PatternTable::RankKey::kSignificance,
                         PatternTable::RankKey::kSupport}) {
    for (const bool descending : {true, false}) {
      TopKQuery all;
      all.k = t.size();
      all.key = key;
      all.descending = descending;
      TopKQuery few = all;
      few.k = 5;
      few.min_support = 0.1;
      few.max_len = 2;
      for (const TopKQuery& query : {all, few}) {
        out += "\ntopk";
        for (const size_t row : Value(TopKRows(t, query))) Put(&out, row);
      }
    }
  }
  TopKQuery top;
  top.k = 3;
  for (const size_t row : Value(TopKRows(t, top))) {
    out += RowAnswers(t, Itemset(t.row_items(row).begin(),
                                 t.row_items(row).end()));
  }
  for (const CorrectiveOptions& options :
       {CorrectiveOptions{}, CorrectiveOptions{0.01, 5}}) {
    out += "\ncorrective";
    for (const CorrectiveItem& c : Value(ScanCorrectiveItems(t, options))) {
      Put(&out, c.base);
      Put(&out, size_t{c.item});
      Put(&out, c.with_divergence);
      Put(&out, c.factor);
      Put(&out, c.t);
    }
  }
  return out;
}

/// SurfaceAnswers plus the analyses only the in-memory table runs.
std::string Answers(const PatternTable& table) {
  std::string out = SurfaceAnswers(table) + "\nglobal";
  for (const GlobalItemDivergence& g : ComputeGlobalItemDivergence(table)) {
    Put(&out, g.global);
    Put(&out, g.individual);
  }
  out += "\nprune";
  for (const size_t row : RedundancyPrune(table, 0.05)) Put(&out, row);
  return out;
}

/// The first line where two answer texts differ, for failure messages.
std::string FirstDifference(const std::string& got,
                            const std::string& want) {
  size_t at = 0;
  while (at < got.size() && at < want.size() && got[at] == want[at]) ++at;
  const size_t begin = want.rfind('\n', at) + 1;
  return "\n  got:  " + got.substr(begin, got.find('\n', at) - begin) +
         "\n  want: " + want.substr(begin, want.find('\n', at) - begin);
}

// ---------------------------------------------------------------------
// Inputs and references.

const MinerTable& Input(size_t index) {
  static const auto* tables = [] {
    auto* out = new std::vector<MinerTable>;
    for (const MinerTableSpec& spec : MinerTableSpecs()) {
      out->push_back(MakeMinerTable(spec));
    }
    return out;
  }();
  return tables->at(index);
}

std::string InputName(size_t index) {
  return MinerTableSpecs().at(index).label;
}

/// The read-surface answers of the artifact `bytes`, served from a
/// buffer, must equal `surface`.
void ExpectServedAnswers(const std::string& bytes,
                         const std::string& surface) {
  auto served = serve::PatternTableArtifact::FromBuffer(
      bytes, serve::ArtifactValidation::kFull);
  ASSERT_TRUE(served.ok()) << served.status().ToString();
  const std::string got = SurfaceAnswers((*served)->view());
  EXPECT_TRUE(got == surface)
      << "served answers differ:" << FirstDifference(got, surface);
}

struct Reference {
  PatternTable table;
  std::string bytes;
  std::string answers;
  std::string surface;
};

/// The scalar monolithic FP-growth table, its bytes and answers; its
/// artifact, served from a buffer, must answer alike.
Reference MakeReference(const MinerTable& input, double support,
                        size_t max_length) {
  Config c;
  c.support = support;
  c.max_length = max_length;
  PatternTable table = Value(DivergenceExplorer(Options(c)).ExploreOutcomes(
      input.dataset, input.outcomes));
  std::string bytes = TableBytes(table);
  std::string answers = Answers(table);
  std::string surface = SurfaceAnswers(table);
  ExpectServedAnswers(bytes, surface);
  return {std::move(table), std::move(bytes), std::move(answers),
          std::move(surface)};
}

/// The reference of a matrix input, built once per process.
const Reference& ReferenceFor(size_t input, double support,
                              size_t max_length) {
  static auto* cache =
      new std::map<std::tuple<size_t, double, size_t>, Reference>;
  const auto key = std::make_tuple(input, support, max_length);
  auto it = cache->find(key);
  if (it == cache->end()) {
    it = cache->emplace(key, MakeReference(Input(input), support,
                                           max_length))
             .first;
  }
  return it->second;
}

/// One mode's table against the reference: artifact bytes, in-memory
/// answers and, if `serve`, read-surface answers on the artifact served
/// from a buffer. (Serving reads nothing but the bytes, so the plain
/// monolithic cells, whose reference is served, skip it.)
void ExpectMatches(const Reference& ref, const PatternTable& table,
                   bool serve = true) {
  const std::string bytes = TableBytes(table);
  EXPECT_TRUE(bytes == ref.bytes) << "artifact bytes differ";
  const std::string answers = Answers(table);
  EXPECT_TRUE(answers == ref.answers)
      << "answers differ:" << FirstDifference(answers, ref.answers);
  if (serve) ExpectServedAnswers(bytes, ref.surface);
}

// ---------------------------------------------------------------------
// Modes.

struct ModeRun {
  Result<PatternTable> table;
  ExplorerRunStats stats;
};

ModeRun Monolithic(const MinerTable& in, const ExplorerOptions& opts) {
  DivergenceExplorer explorer(opts);
  return {explorer.ExploreOutcomes(in.dataset, in.outcomes),
          explorer.last_run_stats()};
}

ModeRun Sharded(const MinerTable& in, const ShardedExplorerOptions& opts) {
  ShardedExplorer explorer(opts);
  return {explorer.ExploreOutcomes(in.dataset, in.outcomes),
          explorer.last_run_stats()};
}

ShardedExplorerOptions ThreadShards(const ExplorerOptions& base,
                                    size_t shards) {
  ShardedExplorerOptions opts;
  opts.base = base;
  opts.num_shards = shards;
  opts.shard_parallelism = shards > 1 ? 2 : 1;
  // Big enough that no 2-entry schedule can exhaust a shard.
  opts.retry.max_retries = 4;
  opts.sleep_ms = [](uint64_t) {};
  return opts;
}

/// Worker processes; `schedule` is armed in every shard's first attempt
/// only (workers start with fresh hit counters), so retries run clean.
ShardedExplorerOptions ProcessShards(const ExplorerOptions& base,
                                     size_t shards, const std::string& dir,
                                     const std::string& schedule) {
  shard::worker::ProcessIsolationOptions popts =
      TestIsolation(dir + "/scratch");
  popts.failpoint_schedule = [schedule](size_t, size_t attempt) {
    return attempt == 0 ? schedule : std::string();
  };
  return InWorkerProcesses(ThreadShards(base, shards), popts);
}

void RemoveCheckpoints(const std::string& dir) {
  std::remove((dir + "/mining.ckpt").c_str());
  for (size_t i = 0; i < kShardCounts[std::size(kShardCounts) - 1]; ++i) {
    std::remove(
        (dir + "/shard_" + std::to_string(i) + "/mining.ckpt").c_str());
  }
}

/// `entries` faults at seeded targets (plus the miner's seams).
/// Ordinals are biased low: Apriori hits its seam once per level. The
/// fingerprint check is a manual hit outside any Status seam, so it
/// only ever returns an error.
std::string RandomSchedule(Rng& rng, std::vector<std::string> targets,
                           MinerKind miner, size_t entries,
                           uint64_t max_ordinal,
                           const std::vector<std::string>& actions) {
  for (std::string& seam : MinerSeams(miner)) targets.push_back(seam);
  std::string schedule;
  for (size_t e = 0; e < entries; ++e) {
    const std::string& name = targets[rng.Below(targets.size())];
    const uint64_t ordinal =
        1 + rng.Below(rng.Below(2) == 0 ? 3 : max_ordinal);
    const std::string& action = name == "shard.unit.fingerprint"
                                    ? actions.back()
                                    : actions[rng.Below(actions.size())];
    if (!schedule.empty()) schedule += ",";
    schedule += name + "@" + std::to_string(ordinal) + ":" + action;
  }
  return schedule;
}

/// Tallies that prove the fault cells of one test exercised recovery.
struct FaultTally {
  int resumes = 0;
  int retried = 0;
  int shard_resumes = 0;
};

/// Killed-then-resumed: a seeded fault stops the run (as a Status or an
/// exception), and a run resumed from its checkpoint must match. A
/// schedule that never fires must already match.
void RunResumed(const MinerTable& in, const Config& c, const Reference& ref,
                Rng& rng, FaultTally* tally) {
  const std::string dir = ScratchDir("matrix/resume_" + Name(c));
  for (int round = 0; round < SchedulesPerCell(); ++round) {
    RemoveCheckpoints(dir);
    const std::string schedule = RandomSchedule(
        rng,
        {"parallel.worker", "io.snapshot.write", "core.explore.divergence"},
        c.miner, 1, 24, {"throw", "return-error"});
    SCOPED_TRACE("resumed after " + schedule);
    ExplorerOptions opts = Options(c);
    opts.checkpoint_dir = dir;
    bool died = true;
    {
      recovery::ScopedFailPoints scope;
      ASSERT_TRUE(scope.Arm(schedule).ok());
      try {
        const ModeRun run = Monolithic(in, opts);
        if (run.table.ok()) {
          died = false;
          ExpectMatches(ref, *run.table);
        }
      } catch (const std::exception&) {
        // A throw outside the miners' Status seams (the post-pass
        // workers) escapes as an exception: a harder death, same resume.
      }
    }
    if (!died) continue;
    ++tally->resumes;
    const bool had_checkpoint = recovery::FileExists(dir + "/mining.ckpt");
    if (had_checkpoint) {
      ASSERT_TRUE(recovery::LoadMiningState(dir + "/mining.ckpt").ok());
    }
    opts.resume = true;
    const ModeRun run = Monolithic(in, opts);
    ASSERT_TRUE(run.table.ok()) << run.table.status().ToString();
    ExpectMatches(ref, *run.table);
    EXPECT_EQ(run.stats.resumed_from_checkpoint, had_checkpoint);
  }
}

/// Thread shards under seeded faults at the shard and miner seams; the
/// retries must absorb them all. With 4 shards the shards also keep
/// checkpoints, the snapshot writer is a fault target too, and retries
/// resume from the checkpoints. (Only one shard count pays the snapshot
/// fsyncs: a checkpointed run writes one per unit per shard.)
void RunShardFaults(const MinerTable& in, const Config& c, size_t shards,
                    const Reference& ref, Rng& rng, FaultTally* tally) {
  const bool checkpointed = shards == 4;
  std::vector<std::string> targets = {"shard.unit.mine",
                                      "shard.unit.fingerprint"};
  if (checkpointed) targets.push_back("io.snapshot.write");
  const std::string dir = ScratchDir("matrix/shards_" + Name(c));
  for (int round = 0; round < SchedulesPerCell(); ++round) {
    RemoveCheckpoints(dir);
    const std::string schedule = RandomSchedule(
        rng, targets, c.miner, 1 + rng.Below(2), 12, {"throw", "return-error"});
    SCOPED_TRACE(std::to_string(shards) + " shards under " + schedule);
    ShardedExplorerOptions opts = ThreadShards(Options(c), shards);
    if (checkpointed) opts.base.checkpoint_dir = dir;
    recovery::ScopedFailPoints scope;
    ASSERT_TRUE(scope.Arm(schedule).ok());
    const ModeRun run = Sharded(in, opts);
    ASSERT_TRUE(run.table.ok()) << run.table.status().ToString();
    ExpectMatches(ref, *run.table);
    if (run.stats.retries_total > 0) ++tally->retried;
    if (run.stats.resumed_from_checkpoint) ++tally->shard_resumes;
  }
}

/// Every in-process mode but monolithic, on one input of one setting.
void RunCostlierModes(const MinerTable& in, const Config& c,
                      const Reference& ref, const ModeRun& mono, Rng& rng,
                      FaultTally* tally) {
  for (const size_t shards : kShardCounts) {
    SCOPED_TRACE(std::to_string(shards) + " thread shards");
    const ModeRun run = Sharded(in, ThreadShards(Options(c), shards));
    ASSERT_TRUE(run.table.ok()) << run.table.status().ToString();
    ExpectMatches(ref, *run.table);
    EXPECT_EQ(run.stats.miner, mono.stats.miner);
    RunShardFaults(in, c, shards, ref, rng, tally);
  }
  RunResumed(in, c, ref, rng, tally);
}

// ---------------------------------------------------------------------
// In-process cells: the full product of the axes, one test per (miner,
// kernel). Monolithic runs every input at every setting. Every third
// setting also runs the costlier modes, on one input; settings and inputs
// rotate, so each test runs them at every thread count, support and
// max_length and on every input, and each setting in two or three tests.

class InProcessMatrixTest
    : public ::testing::TestWithParam<std::tuple<size_t, size_t>> {};

TEST_P(InProcessMatrixTest, EveryModeMatchesTheReference) {
  const auto [miner, kernel] = GetParam();
  const size_t test = miner * std::size(kKernels) + kernel;
  Rng rng(1000 + test);
  FaultTally tally;
  size_t setting = test;
  for (const size_t threads : kThreads) {
    for (const double support : kSupports) {
      for (const size_t max_length : kMaxLengths) {
        const Config c{kMiners[miner], kKernels[kernel], threads, support,
                       max_length};
        const bool costly = setting % 3 == 0;
        const size_t rotated = setting++ / 3 % MinerTableSpecs().size();
        for (size_t input = 0; input < MinerTableSpecs().size(); ++input) {
          SCOPED_TRACE(InputName(input) + " " + Name(c));
          const Reference& ref = ReferenceFor(input, support, max_length);
          const ModeRun mono = Monolithic(Input(input), Options(c));
          ASSERT_TRUE(mono.table.ok()) << mono.table.status().ToString();
          ExpectMatches(ref, *mono.table, /*serve=*/false);
          if (costly && input == rotated) {
            RunCostlierModes(Input(input), c, ref, mono, rng, &tally);
          }
        }
      }
    }
  }
  EXPECT_GT(tally.resumes, 0) << "no schedule interrupted a run";
  EXPECT_GT(tally.retried, 0) << "no schedule made a shard retry";
  EXPECT_GT(tally.shard_resumes, 0)
      << "no shard retry resumed from its checkpoint";
}

INSTANTIATE_TEST_SUITE_P(
    Cells, InProcessMatrixTest,
    ::testing::Combine(::testing::Range(size_t{0}, std::size(kMiners)),
                       ::testing::Range(size_t{0}, std::size(kKernels))),
    [](const auto& info) {
      return std::string(MinerKindName(kMiners[std::get<0>(info.param)])) +
             "_" + fpm::KernelKindName(kKernels[std::get<1>(info.param)]);
    });

// ---------------------------------------------------------------------
// Process cells, one test each: the rows of a pairwise covering array.
// Columns index kMiners, kKernels, kThreads, kSupports, kMaxLengths,
// kShardCounts and Chaos.

enum Chaos : size_t { kClean, kKill, kSegv };

constexpr size_t kLevels[] = {4, 2, 3, 3, 4, 3, 3};
constexpr std::array<size_t, 7> kProcessCells[] = {
    {0, 0, 0, 0, 1, 1, 1}, {0, 0, 1, 2, 2, 2, 2}, {0, 1, 0, 1, 3, 0, 2},
    {0, 1, 2, 1, 0, 2, 0}, {1, 0, 0, 0, 0, 2, 2}, {1, 0, 0, 2, 1, 0, 0},
    {1, 0, 1, 1, 3, 2, 0}, {1, 0, 2, 2, 2, 0, 0}, {1, 1, 2, 2, 3, 1, 1},
    {2, 0, 0, 1, 3, 2, 1}, {2, 0, 1, 1, 1, 1, 2}, {2, 0, 2, 2, 0, 0, 0},
    {2, 1, 1, 0, 2, 0, 1}, {3, 0, 2, 0, 3, 0, 0}, {3, 1, 0, 1, 2, 1, 0},
    {3, 1, 1, 0, 0, 1, 1}, {3, 1, 2, 2, 1, 2, 2},
};

TEST(ProcessMatrixTest, ProcessCellsCoverEveryPair) {
  for (size_t a = 0; a < std::size(kLevels); ++a) {
    for (size_t b = a + 1; b < std::size(kLevels); ++b) {
      std::vector<bool> seen(kLevels[a] * kLevels[b], false);
      for (const auto& cell : kProcessCells) {
        seen[cell[a] * kLevels[b] + cell[b]] = true;
      }
      EXPECT_EQ(std::count(seen.begin(), seen.end(), false), 0)
          << "columns " << a << " and " << b;
    }
  }
}

class ProcessMatrixTest : public ::testing::TestWithParam<size_t> {};

TEST_P(ProcessMatrixTest, WorkersMatchTheReference) {
  const std::array<size_t, 7>& cell = kProcessCells[GetParam()];
  const Config c{kMiners[cell[0]], kKernels[cell[1]], kThreads[cell[2]],
                 kSupports[cell[3]], kMaxLengths[cell[4]]};
  const size_t shards = kShardCounts[cell[5]];
  const size_t chaos = cell[6];
  const size_t input = GetParam() % MinerTableSpecs().size();
  const Reference& ref = ReferenceFor(input, c.support, c.max_length);
  const std::string dir = ScratchDir("matrix/process_" + Name(c));
  Rng rng(4400 + GetParam());
  // Round 0 is deterministic and always lands: a SIGKILL at the second
  // snapshot write leaves the first checkpoint for the retry to resume,
  // and a SIGSEGV hits as the shard unit starts. Later rounds draw a
  // seam and an ordinal.
  for (int round = 0; round < (chaos == kClean ? 1 : 1 + SchedulesPerCell());
       ++round) {
    RemoveCheckpoints(dir + "/ckpt");
    std::string schedule;
    if (chaos != kClean && round > 0) {
      schedule = RandomSchedule(rng, {"shard.unit.mine", "io.snapshot.write"},
                                c.miner, 1, 8,
                                {chaos == kKill ? "kill" : "segv"});
    } else if (chaos != kClean) {
      schedule = chaos == kKill ? "io.snapshot.write@2:kill"
                                : "shard.unit.mine@1:segv";
    }
    SCOPED_TRACE(Name(c) + " in " + std::to_string(shards) +
                 " worker processes under '" + schedule + "'");
    ShardedExplorerOptions opts =
        ProcessShards(Options(c), shards, dir, schedule);
    if (chaos == kKill) opts.base.checkpoint_dir = dir + "/ckpt";
    const ModeRun run = Sharded(Input(input), opts);
    ASSERT_TRUE(run.table.ok()) << run.table.status().ToString();
    ExpectMatches(ref, *run.table);
    EXPECT_EQ(run.stats.shard_isolation, "process");
    EXPECT_EQ(SubprocessSpawnCount(), SubprocessReapCount());
    if (round > 0) continue;
    EXPECT_EQ(run.stats.retries_total > 0, chaos != kClean);
    EXPECT_EQ(run.stats.resumed_from_checkpoint, chaos == kKill);
  }
}

INSTANTIATE_TEST_SUITE_P(Cells, ProcessMatrixTest,
                         ::testing::Range(size_t{0},
                                          std::size(kProcessCells)));

// ---------------------------------------------------------------------
// Inputs with a known relation to a matrix input, each explored by the
// reference and by 4 thread shards (which then split different rows).

class MetamorphicTest : public ::testing::TestWithParam<size_t> {};

std::vector<ModeRun> RelatedRuns(const MinerTable& in, const Config& c) {
  std::vector<ModeRun> runs;
  runs.push_back(Monolithic(in, Options(c)));
  runs.push_back(Sharded(in, ThreadShards(Options(c), 4)));
  return runs;
}

/// For every row of `want`, calls check(got, j, i) with the row j of
/// each related run's table `got` that holds row i's itemset mapped by
/// `label`.
template <typename Check>
void ExpectRowsMap(const MinerTable& in, const Config& c,
                   const PatternTable& want,
                   const std::vector<uint32_t>& label, Check check) {
  for (const ModeRun& run : RelatedRuns(in, c)) {
    ASSERT_TRUE(run.table.ok()) << run.table.status().ToString();
    const PatternTable& got = *run.table;
    ASSERT_EQ(got.size(), want.size());
    for (size_t i = 0; i < want.size(); ++i) {
      Itemset mapped;
      for (const uint32_t item : want.row_items(i)) {
        mapped.push_back(label[item]);
      }
      std::sort(mapped.begin(), mapped.end());
      const std::optional<size_t> j = got.Find(mapped);
      ASSERT_TRUE(j.has_value()) << "row " << i;
      check(got, *j, i);
    }
  }
}

TEST_P(MetamorphicTest, RelatedInputsGiveRelatedTables) {
  const MinerTable& in = Input(GetParam());
  const ItemCatalog& catalog = in.dataset.catalog;
  const size_t width = in.dataset.num_attributes;
  Rng rng(700 + GetParam());
  for (const double support : kSupports) {
    for (const size_t max_length : kMaxLengths) {
      Config c;
      c.support = support;
      c.max_length = max_length;
      SCOPED_TRACE(Name(c));
      const Reference& ref = ReferenceFor(GetParam(), support, max_length);
      const PatternTable& want = ref.table;

      // Row order never reaches the table.
      MinerTable permuted = in;
      auto row = [&](size_t r) {
        return permuted.dataset.cells.begin() + r * width;
      };
      for (size_t i = in.dataset.num_rows; i > 1; --i) {
        const size_t j = rng.Below(i);
        std::swap_ranges(row(i - 1), row(i), row(j));
        std::swap(permuted.outcomes[i - 1], permuted.outcomes[j]);
      }
      for (const ModeRun& run : RelatedRuns(permuted, c)) {
        EXPECT_TRUE(TableBytes(Value(run.table)) == ref.bytes)
            << "permuted rows";
      }

      // Relabeling the values of each attribute maps every itemset and
      // keeps its support and divergence.
      std::vector<uint32_t> label(catalog.num_items());
      for (uint32_t a = 0; a < width; ++a) {
        const uint32_t first = catalog.first_item(a);
        const uint32_t n = catalog.domain_size(a);
        const uint32_t shift = static_cast<uint32_t>(rng.Below(n));
        for (uint32_t v = 0; v < n; ++v) {
          label[first + v] = first + (v + shift) % n;
        }
      }
      MinerTable relabeled = in;
      for (uint32_t& cell : relabeled.dataset.cells) cell = label[cell];
      ExpectRowsMap(relabeled, c, want, label,
                    [&](const PatternTable& got, size_t j, size_t i) {
                      EXPECT_EQ(got.support(j), want.support(i));
                      EXPECT_EQ(got.divergence(j), want.divergence(i));
                    });
      for (uint32_t id = 0; id < label.size(); ++id) label[id] = id;

      // k-fold duplication scales every count by k and nothing else the
      // definitions use.
      constexpr uint64_t kFold = 3;
      MinerTable dup = in;
      for (uint64_t k = 1; k < kFold; ++k) {
        dup.dataset.cells.insert(dup.dataset.cells.end(),
                                 in.dataset.cells.begin(),
                                 in.dataset.cells.end());
        dup.outcomes.insert(dup.outcomes.end(), in.outcomes.begin(),
                            in.outcomes.end());
      }
      dup.dataset.num_rows *= kFold;
      ExpectRowsMap(dup, c, want, label,
                    [&](const PatternTable& got, size_t j, size_t i) {
                      EXPECT_EQ(got.support(j), want.support(i));
                      EXPECT_EQ(got.divergence(j), want.divergence(i));
                      EXPECT_EQ(got.counts(j).t, kFold * want.counts(i).t);
                      EXPECT_EQ(got.counts(j).f, kFold * want.counts(i).f);
                      EXPECT_EQ(got.counts(j).bot,
                                kFold * want.counts(i).bot);
                    });

      // Swapping T and F over the same bottom set (FPR to TNR) negates
      // every divergence defined by a rate (some T or F row).
      MinerTable swapped = in;
      for (Outcome& o : swapped.outcomes) {
        if (o == Outcome::kTrue) {
          o = Outcome::kFalse;
        } else if (o == Outcome::kFalse) {
          o = Outcome::kTrue;
        }
      }
      ExpectRowsMap(swapped, c, want, label,
                    [&](const PatternTable& got, size_t j, size_t i) {
                      if (want.counts(i).t + want.counts(i).f == 0) return;
                      EXPECT_NEAR(got.divergence(j), -want.divergence(i),
                                  1e-12);
                    });
    }
  }
}

// Shapley efficiency (Def. 4.1): on every row of every reference, the
// item contributions sum to the row's divergence.
TEST_P(MetamorphicTest, ShapleyContributionsSumToDivergence) {
  for (const double support : kSupports) {
    for (const size_t max_length : kMaxLengths) {
      const PatternTable& t =
          ReferenceFor(GetParam(), support, max_length).table;
      for (size_t i = 1; i < t.size(); ++i) {
        const ItemSpan span = t.row_items(i);
        if (span.size() > kMaxShapleyItems) continue;
        double sum = 0.0;
        for (const ItemContribution& c : Value(ShapleyContributions(
                 t, Itemset(span.begin(), span.end())))) {
          sum += c.contribution;
        }
        EXPECT_NEAR(sum, t.divergence(i), 1e-12) << "row " << i;
      }
    }
  }
}

// The reference artifacts attached by mmap answer like the in-memory
// tables, with Shapley and browse on every row.
TEST_P(MetamorphicTest, MappedReferenceArtifactAnswersAlike) {
  const std::string path =
      ScratchDir("matrix/mmap") + "/" + InputName(GetParam()) + ".dvt";
  for (const double support : kSupports) {
    for (const size_t max_length : kMaxLengths) {
      const Reference& ref = ReferenceFor(GetParam(), support, max_length);
      ASSERT_TRUE(serve::WritePatternTableArtifact(path, ref.table).ok());
      auto mapped = serve::PatternTableArtifact::Open(
          path, serve::ArtifactValidation::kFull);
      ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
      EXPECT_EQ(SurfaceAnswers((*mapped)->view()), ref.surface);
      for (size_t i = 1; i < ref.table.size(); ++i) {
        const Itemset items(ref.table.row_items(i).begin(),
                            ref.table.row_items(i).end());
        EXPECT_EQ(RowAnswers((*mapped)->view(), items),
                  RowAnswers(ref.table, items));
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Inputs, MetamorphicTest,
    ::testing::Range(size_t{0}, MinerTableSpecs().size()),
    [](const auto& info) { return InputName(info.param); });

// ---------------------------------------------------------------------
// Edge tables: every clean mode, on one row and on none.

std::vector<std::pair<std::string, ModeRun>> EveryCleanMode(
    const MinerTable& in, const Config& c, const std::string& dir) {
  std::vector<std::pair<std::string, ModeRun>> runs;
  runs.emplace_back("monolithic", Monolithic(in, Options(c)));
  ExplorerOptions checkpointed = Options(c);
  checkpointed.checkpoint_dir = dir + "/ckpt";
  RemoveCheckpoints(checkpointed.checkpoint_dir);
  runs.emplace_back("checkpointed", Monolithic(in, checkpointed));
  for (const size_t shards : kShardCounts) {
    runs.emplace_back(std::to_string(shards) + " thread shards",
                      Sharded(in, ThreadShards(Options(c), shards)));
  }
  runs.emplace_back("2 worker processes",
                    Sharded(in, ProcessShards(Options(c), 2, dir, "")));
  return runs;
}

TEST(EdgeTableTest, NoRowsIsTheSameErrorInEveryMode) {
  const MinerTable empty = SliceRows(Input(0), 0, 0);
  for (const MinerKind miner : kMiners) {
    Config c;
    c.miner = miner;
    for (const auto& [mode, run] :
         EveryCleanMode(empty, c, ScratchDir("matrix/empty"))) {
      EXPECT_EQ(run.table.status().ToString(),
                "InvalidArgument: dataset has no rows")
          << mode;
    }
  }
}

TEST(EdgeTableTest, OneRowMatchesInEveryMode) {
  const MinerTable one = SliceRows(Input(1), 0, 1);
  const Reference ref = MakeReference(one, kSupports[0], 0);
  ASSERT_EQ(ref.table.size(), size_t{1} << one.dataset.num_attributes);
  for (const MinerKind miner : kMiners) {
    Config c;
    c.miner = miner;
    for (const auto& [mode, run] :
         EveryCleanMode(one, c, ScratchDir("matrix/one"))) {
      SCOPED_TRACE(mode);
      ASSERT_TRUE(run.table.ok()) << run.table.status().ToString();
      ExpectMatches(ref, *run.table);
    }
  }
}

}  // namespace
}  // namespace testing
}  // namespace divexp

int main(int argc, char** argv) {
  if (argc > 1 && std::string(argv[1]) == "shard-worker") {
    return divexp::shard::worker::ShardWorkerMain(
        std::vector<std::string>(argv + 2, argv + argc));
  }
  ::testing::InitGoogleTest(&argc, argv);
  return RUN_ALL_TESTS();
}
