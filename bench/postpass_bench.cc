// Experiment PP — divergence post-pass A/B: the lattice-indexed,
// allocation-free ComputeGlobalItemDivergence against the pre-index
// reference path (one temporary itemset + hash lookup per
// (pattern, item)), plus the parallel pattern-table build, the
// corrective-item scan (bounded top 10 and full ranking) and the
// artifact serialization, on the synthetic COMPAS-scale table. Emits
// BENCH_postpass.json.
//
// usage: bench_postpass [--dataset=compas] [--support=0.01]
//          [--threads=N] [--repeat=R] [--smoke] [--check-speedup=X]
//   --smoke          tiny-input CI mode: high support, and exit 1 if
//                    the indexed path is slower than the legacy path
// Every mode exits 1 if the two global-divergence paths disagree or the
// top-10 corrective items are not the full ranking's first 10.
//   --check-speedup  exit 1 if legacy/indexed(threads=N) < X
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "core/corrective.h"
#include "core/global_divergence.h"
#include "core/outcome.h"
#include "fpm/miner.h"
#include "serve/artifact.h"
#include "util/string_util.h"

using namespace divexp;
using namespace divexp::bench;

namespace {

double MillisSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

// Minimum wall-clock of `repeat` runs of fn() — the usual
// noise-resistant microbenchmark estimator.
template <typename Fn>
double MinMillis(size_t repeat, const Fn& fn) {
  double best = 1e300;
  for (size_t r = 0; r < repeat; ++r) {
    const auto start = std::chrono::steady_clock::now();
    fn();
    best = std::min(best, MillisSince(start));
  }
  return best;
}

void Record(const std::string& name, const std::string& dataset,
            double support, double wall_ms, uint64_t patterns) {
  BenchRecord record;
  record.name = name;
  record.dataset = dataset;
  record.min_support = support;
  record.wall_ms = wall_ms;
  record.patterns = patterns;
  UpsertBenchRecord(std::move(record));
}

}  // namespace

int main(int argc, char** argv) {
  std::string dataset = "compas";
  double support = 0.01;
  size_t threads = 0;
  size_t repeat = 5;
  bool smoke = false;
  double check_speedup = 0.0;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--dataset=", 0) == 0) {
      dataset = arg.substr(10);
    } else if (arg.rfind("--support=", 0) == 0) {
      support = std::atof(arg.c_str() + 10);
    } else if (arg.rfind("--threads=", 0) == 0) {
      threads = static_cast<size_t>(std::atol(arg.c_str() + 10));
    } else if (arg.rfind("--repeat=", 0) == 0) {
      repeat = static_cast<size_t>(std::atol(arg.c_str() + 9));
    } else if (arg == "--smoke") {
      smoke = true;
    } else if (arg.rfind("--check-speedup=", 0) == 0) {
      check_speedup = std::atof(arg.c_str() + 16);
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", arg.c_str());
      return 2;
    }
  }
  if (smoke) {
    // Tiny-input CI mode: keep the table small and the run quick.
    support = std::max(support, 0.2);
    repeat = std::max(repeat, size_t{7});
  }
  if (threads == 0) {
    threads = std::min<size_t>(
        8, std::max<unsigned>(1, std::thread::hardware_concurrency()));
  }

  const BenchmarkDataset ds = LoadDataset(dataset);
  const EncodedDataset encoded = Encode(ds);
  auto outcomes = ComputeOutcomes(Metric::kFalsePositiveRate,
                                  ds.predictions, ds.truth);
  if (!outcomes.ok()) {
    std::fprintf(stderr, "outcomes failed: %s\n",
                 outcomes.status().ToString().c_str());
    return 1;
  }
  auto db = TransactionDatabase::Create(encoded, std::move(*outcomes));
  if (!db.ok()) {
    std::fprintf(stderr, "transactions failed: %s\n",
                 db.status().ToString().c_str());
    return 1;
  }
  MinerOptions mopts;
  mopts.min_support = support;
  auto mined = MakeMiner(MinerKind::kFpGrowth)->MineBuffer(*db, mopts);
  if (!mined.ok()) {
    std::fprintf(stderr, "mining failed: %s\n",
                 mined.status().ToString().c_str());
    return 1;
  }
  const uint64_t patterns = mined->size() > 0 ? mined->size() - 1 : 0;
  std::printf("%s s=%s: %llu patterns, threads=%zu, repeat=%zu\n",
              dataset.c_str(), FormatDouble(support, 3).c_str(),
              static_cast<unsigned long long>(patterns), threads, repeat);

  // Table build (includes the lattice-index + stat pass), sequential
  // and parallel. Each repetition consumes a fresh copy of the mined
  // patterns, as PatternTable::Create does in production.
  PatternTable table;
  for (const size_t t : {size_t{1}, threads}) {
    const double ms = MinMillis(repeat, [&] {
      PatternTableOptions topts;
      topts.num_threads = t;
      auto built = PatternTable::Create(*mined, encoded.catalog,
                                        encoded.num_rows, nullptr, topts);
      if (!built.ok()) {
        std::fprintf(stderr, "table build failed: %s\n",
                     built.status().ToString().c_str());
        std::exit(1);
      }
      table = std::move(*built);
    });
    Record("postpass/create/indexed/t=" + std::to_string(t), dataset,
           support, ms, patterns);
    std::printf("  create (indexed, t=%zu): %s ms\n", t,
                FormatDouble(ms, 3).c_str());
    if (t == threads && t == 1) break;
  }

  // Global item divergence: legacy (temporary itemsets + hash lookups,
  // sequential) vs lattice-indexed (sequential and parallel).
  std::vector<GlobalItemDivergence> legacy;
  const double legacy_ms = MinMillis(repeat, [&] {
    GlobalDivergenceOptions gopts;
    gopts.use_lattice_index = false;
    legacy = ComputeGlobalItemDivergence(table, gopts);
  });
  Record("postpass/global/legacy", dataset, support, legacy_ms, patterns);
  std::printf("  global divergence (legacy):        %s ms\n",
              FormatDouble(legacy_ms, 3).c_str());

  std::vector<GlobalItemDivergence> indexed;
  double indexed_best_ms = 1e300;
  for (const size_t t : {size_t{1}, threads}) {
    const uint64_t allocs_before = ItemsetAllocCount();
    const double ms = MinMillis(repeat, [&] {
      GlobalDivergenceOptions gopts;
      gopts.num_threads = t;
      indexed = ComputeGlobalItemDivergence(table, gopts);
    });
    if (ItemsetAllocCount() != allocs_before) {
      std::fprintf(stderr,
                   "FAIL: indexed global divergence materialized "
                   "itemsets on the hot path\n");
      return 1;
    }
    indexed_best_ms = std::min(indexed_best_ms, ms);
    Record("postpass/global/indexed/t=" + std::to_string(t), dataset,
           support, ms, patterns);
    std::printf("  global divergence (indexed, t=%zu): %s ms (%sx)\n", t,
                FormatDouble(ms, 3).c_str(),
                FormatDouble(ms > 0 ? legacy_ms / ms : 0.0, 2).c_str());
    // Differential check: the two paths must agree to 1e-12.
    double max_diff = 0.0;
    for (size_t i = 0; i < legacy.size(); ++i) {
      max_diff = std::max(
          max_diff, std::fabs(legacy[i].global - indexed[i].global));
    }
    if (max_diff > 1e-12) {
      std::fprintf(stderr, "FAIL: legacy/indexed diverge by %g\n",
                   max_diff);
      return 1;
    }
    if (t == threads && t == 1) break;
  }

  // Corrective items: the bounded top-10 selection and the full
  // ranking. The top 10 must be the full ranking's first 10.
  CorrectiveOptions top10_options;
  top10_options.top_k = 10;
  std::vector<CorrectiveItem> top10;
  const double top10_ms = MinMillis(
      repeat, [&] { top10 = FindCorrectiveItems(table, top10_options); });
  std::vector<CorrectiveItem> all;
  const double all_ms =
      MinMillis(repeat, [&] { all = FindCorrectiveItems(table); });
  Record("postpass/corrective/top10", dataset, support, top10_ms, patterns);
  Record("postpass/corrective/all", dataset, support, all_ms, patterns);
  std::printf("  corrective items (top 10):         %s ms\n",
              FormatDouble(top10_ms, 3).c_str());
  std::printf("  corrective items (all %zu):     %s ms\n", all.size(),
              FormatDouble(all_ms, 3).c_str());
  const size_t prefix = std::min<size_t>(10, all.size());
  bool same_prefix = top10.size() == prefix;
  for (size_t i = 0; same_prefix && i < prefix; ++i) {
    same_prefix = top10[i].base == all[i].base &&
                  top10[i].item == all[i].item &&
                  top10[i].factor == all[i].factor;
  }
  if (!same_prefix) {
    std::fprintf(stderr,
                 "FAIL: the top-10 corrective items are not the first 10 "
                 "of the full ranking\n");
    return 1;
  }

  // Artifact serialization: header, CRCs and one copy per column.
  size_t artifact_bytes = 0;
  const double serialize_ms = MinMillis(repeat, [&] {
    auto bytes = serve::SerializePatternTableArtifact(table);
    if (!bytes.ok()) {
      std::fprintf(stderr, "serialize failed: %s\n",
                   bytes.status().ToString().c_str());
      std::exit(1);
    }
    artifact_bytes = bytes->size();
  });
  Record("postpass/serialize", dataset, support, serialize_ms, patterns);
  std::printf("  serialize artifact (%zu bytes): %s ms\n", artifact_bytes,
              FormatDouble(serialize_ms, 3).c_str());

  const double speedup =
      indexed_best_ms > 0 ? legacy_ms / indexed_best_ms : 0.0;
  std::printf("  best indexed speedup: %sx\n",
              FormatDouble(speedup, 2).c_str());
  WriteBenchJson("postpass_bench", "postpass");

  if (smoke && speedup < 1.0) {
    std::fprintf(stderr,
                 "FAIL: indexed post-pass slower than legacy "
                 "(%sx) on the smoke input\n",
                 FormatDouble(speedup, 2).c_str());
    return 1;
  }
  if (check_speedup > 0.0 && speedup < check_speedup) {
    std::fprintf(stderr, "FAIL: speedup %sx below required %sx\n",
                 FormatDouble(speedup, 2).c_str(),
                 FormatDouble(check_speedup, 2).c_str());
    return 1;
  }
  return 0;
}
