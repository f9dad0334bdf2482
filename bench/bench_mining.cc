// Experiment MK — mining-kernel A/B matrix: every miner mined twice on
// the same synthetic workload, once with the forced scalar reference
// kernels and once with the resolved SIMD table, across the dataset
// shapes the adaptive dispatcher distinguishes (dense / mid / sparse;
// see fpm/dispatch.h and docs/performance.md). Emits BENCH_mining.json
// with one record per (shape, miner, kernel) cell; scalar and SIMD
// cells of the same workload must mine identical pattern counts, which
// this binary re-checks on every run.
//
// usage: bench_mining [--rows=N] [--repeat=R] [--smoke]
//          [--check-speedup=X] [--baseline=PATH] [--tolerance=F]
//   --smoke          CI mode: fewer rows and repeats, same cell grid
//   --check-speedup  exit 1 if scalar/simd wall ratio < X on the
//                    dense/low-support Apriori or ECLAT cells (skipped
//                    with a note when the CPU has no SIMD table)
//   --baseline       compare per-cell scalar/simd speedups against a
//                    previously written BENCH_mining.json; exit 1 on a
//                    relative regression beyond --tolerance (0.10)
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "bench_common.h"
#include "fpm/kernels/kernels.h"
#include "fpm/miner.h"
#include "fpm/transactions.h"
#include "util/random.h"
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

// One workload cell of the matrix. Density here is the dispatcher's
// notion (attributes / items): uniform categorical rows set exactly one
// item per attribute, so shrinking the per-attribute domain raises the
// per-item density and with it the bitmap-AND work Apriori does.
struct Shape {
  std::string name;
  size_t attributes;
  int domain;  ///< values per attribute; items = attributes * domain
  double support;
  std::vector<MinerKind> miners;
};

struct Workload {
  EncodedDataset dataset;
  std::vector<Outcome> outcomes;
};

// Same synthetic construction the differential tests use, sized for
// timing: uniform cells, outcome biased by the first attribute so the
// (T, F, ⊥) tallies are non-trivial.
Workload MakeWorkload(const Shape& shape, size_t rows, uint64_t seed) {
  Rng rng(seed);
  Workload w;
  w.dataset.num_rows = rows;
  w.dataset.num_attributes = shape.attributes;
  std::vector<uint32_t> first(shape.attributes);
  for (size_t a = 0; a < shape.attributes; ++a) {
    std::vector<std::string> values;
    for (int v = 0; v < shape.domain; ++v) {
      values.push_back("v" + std::to_string(v));
    }
    const uint32_t attr = w.dataset.catalog.AddAttribute(
        "a" + std::to_string(a), values);
    first[a] = w.dataset.catalog.first_item(attr);
  }
  w.dataset.cells.reserve(rows * shape.attributes);
  w.outcomes.reserve(rows);
  for (size_t r = 0; r < rows; ++r) {
    uint32_t head = 0;
    for (size_t a = 0; a < shape.attributes; ++a) {
      const uint32_t v =
          static_cast<uint32_t>(rng.Below(static_cast<size_t>(shape.domain)));
      if (a == 0) head = v;
      w.dataset.cells.push_back(first[a] + v);
    }
    const double u = rng.Uniform();
    const double bias = head == 0 ? 0.6 : 0.3;
    w.outcomes.push_back(u < bias         ? Outcome::kTrue
                         : u < bias + 0.3 ? Outcome::kFalse
                                          : Outcome::kBottom);
  }
  return w;
}

struct CellResult {
  double wall_ms = 1e300;
  uint64_t patterns = 0;
};

CellResult MineOnce(const TransactionDatabase& db, MinerKind miner,
                    double support, fpm::KernelKind kernel) {
  CellResult out;
  MinerOptions opts;
  opts.min_support = support;
  opts.kernel = kernel;
  const auto start = std::chrono::steady_clock::now();
  auto mined = MakeMiner(miner)->Mine(db, opts);
  out.wall_ms = MillisSince(start);
  if (!mined.ok()) {
    std::fprintf(stderr, "mining failed: %s\n",
                 mined.status().ToString().c_str());
    std::exit(1);
  }
  out.patterns = mined->size();
  return out;
}

// A/B measurement with the repeats interleaved scalar/simd/scalar/...,
// so slow drift on a shared runner (thermal, noisy neighbor) hits both
// kernels equally instead of skewing whichever ran second; the
// min-of-repeat speedup ratio is what the regression gates compare.
void MineCellPair(const TransactionDatabase& db, MinerKind miner,
                  double support, size_t repeat, bool simd,
                  CellResult* scalar, CellResult* vec) {
  for (size_t r = 0; r < repeat; ++r) {
    const CellResult s =
        MineOnce(db, miner, support, fpm::KernelKind::kScalar);
    scalar->patterns = s.patterns;
    scalar->wall_ms = std::min(scalar->wall_ms, s.wall_ms);
    if (!simd) continue;
    const CellResult v =
        MineOnce(db, miner, support, fpm::KernelKind::kSimd);
    vec->patterns = v.patterns;
    vec->wall_ms = std::min(vec->wall_ms, v.wall_ms);
  }
}

void Record(const std::string& name, const std::string& dataset,
            double support, const CellResult& cell) {
  BenchRecord record;
  record.name = name;
  record.dataset = dataset;
  record.min_support = support;
  record.wall_ms = cell.wall_ms;
  record.mining_ms = cell.wall_ms;
  record.patterns = cell.patterns;
  UpsertBenchRecord(std::move(record));
}

// Per-cell scalar/simd speedups keyed by the cell prefix
// ("mining/<shape>/<miner>"). Unitless, so comparable across machines
// — this is what the --baseline regression gate checks.
std::map<std::string, double> SpeedupsFromRecords(
    const std::vector<BenchRecord>& records) {
  std::map<std::string, double> scalar_ms;
  std::map<std::string, double> simd_ms;
  for (const BenchRecord& r : records) {
    const size_t cut = r.name.rfind('/');
    if (cut == std::string::npos) continue;
    const std::string cell = r.name.substr(0, cut);
    const std::string kernel = r.name.substr(cut + 1);
    if (kernel == "scalar") scalar_ms[cell] = r.wall_ms;
    if (kernel != "scalar") simd_ms[cell] = r.wall_ms;
  }
  std::map<std::string, double> speedups;
  for (const auto& [cell, ms] : simd_ms) {
    const auto it = scalar_ms.find(cell);
    if (it != scalar_ms.end() && ms > 0) {
      speedups[cell] = it->second / ms;
    }
  }
  return speedups;
}

// Loads the records of a previously written BENCH_mining.json.
std::vector<BenchRecord> LoadBaseline(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "cannot open baseline %s\n", path.c_str());
    std::exit(2);
  }
  std::stringstream buf;
  buf << in.rdbuf();
  auto doc = obs::ParseJson(buf.str());
  if (!doc.ok()) {
    std::fprintf(stderr, "baseline %s is not valid JSON: %s\n",
                 path.c_str(), doc.status().ToString().c_str());
    std::exit(2);
  }
  const obs::JsonValue* records = doc->Find("records");
  if (records == nullptr || !records->is_array()) {
    std::fprintf(stderr, "baseline %s has no records array\n",
                 path.c_str());
    std::exit(2);
  }
  std::vector<BenchRecord> out;
  for (const obs::JsonValue& r : records->array) {
    const obs::JsonValue* name = r.Find("name");
    const obs::JsonValue* wall = r.Find("wall_ms");
    if (name == nullptr || !name->is_string() || wall == nullptr ||
        !wall->is_number()) {
      continue;
    }
    BenchRecord rec;
    rec.name = name->string;
    rec.wall_ms = wall->number;
    out.push_back(std::move(rec));
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  size_t rows = 60000;
  size_t repeat = 3;
  bool smoke = false;
  double check_speedup = 0.0;
  double tolerance = 0.10;
  std::string baseline_path;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--rows=", 0) == 0) {
      rows = static_cast<size_t>(std::atol(arg.c_str() + 7));
    } else if (arg.rfind("--repeat=", 0) == 0) {
      repeat = static_cast<size_t>(std::atol(arg.c_str() + 9));
    } else if (arg == "--smoke") {
      smoke = true;
    } else if (arg.rfind("--check-speedup=", 0) == 0) {
      check_speedup = std::atof(arg.c_str() + 16);
    } else if (arg.rfind("--baseline=", 0) == 0) {
      baseline_path = arg.substr(11);
    } else if (arg.rfind("--tolerance=", 0) == 0) {
      tolerance = std::atof(arg.c_str() + 12);
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", arg.c_str());
      return 2;
    }
  }
  if (smoke) {
    // CI mode shrinks the workload but keeps the repeat count: the
    // baseline gate compares min-of-N speedup ratios, and N = 1-2 is
    // too noisy for a 10% tolerance on a shared runner.
    rows = std::min(rows, size_t{20000});
  }

  // Read the baseline before WriteBenchJson may overwrite it — CI runs
  // from the repo root, where the checked-in baseline and the output
  // path coincide; loading late would gate the run against itself.
  std::vector<BenchRecord> baseline_records;
  if (!baseline_path.empty()) {
    baseline_records = LoadBaseline(baseline_path);
  }

  const bool simd = fpm::SimdAvailable();
  const char* simd_name =
      simd ? fpm::ResolveKernel(fpm::KernelKind::kSimd).name : "none";
  std::printf("mining kernel A/B: rows=%zu repeat=%zu simd=%s\n", rows,
              repeat, simd_name);

  // The grid mirrors the dispatcher's shape classes (dispatch.h): dense
  // low-support drives Apriori's bitmap tallies, sparse drives ECLAT's
  // tid-list intersections, mid is FP-growth territory. The dense cell
  // runs all three miners so the gate cells (apriori, eclat) and the
  // FP-growth baseline share one workload.
  const std::vector<Shape> shapes = {
      {"dense_s0.02", 8, 5, 0.02,
       {MinerKind::kApriori, MinerKind::kEclat, MinerKind::kFpGrowth}},
      {"mid_s0.005", 8, 12, 0.005,
       {MinerKind::kFpGrowth, MinerKind::kApriori}},
      {"sparse_s0.01", 8, 64, 0.01,
       {MinerKind::kEclat, MinerKind::kFpGrowth}},
  };

  uint64_t seed = 424200;
  std::map<std::string, double> gate_speedups;
  for (const Shape& shape : shapes) {
    const Workload w = MakeWorkload(shape, rows, ++seed);
    auto db = TransactionDatabase::Create(w.dataset, w.outcomes);
    if (!db.ok()) {
      std::fprintf(stderr, "transactions failed: %s\n",
                   db.status().ToString().c_str());
      return 1;
    }
    for (const MinerKind miner : shape.miners) {
      const std::string cell =
          "mining/" + shape.name + "/" + MinerKindName(miner);
      CellResult scalar;
      CellResult vec;
      MineCellPair(*db, miner, shape.support, repeat, simd, &scalar,
                   &vec);
      Record(cell + "/scalar", shape.name, shape.support, scalar);
      std::printf("  %-32s scalar %9s ms  (%llu patterns)\n", cell.c_str(),
                  FormatDouble(scalar.wall_ms, 3).c_str(),
                  static_cast<unsigned long long>(scalar.patterns));
      if (!simd) continue;
      Record(cell + "/" + simd_name, shape.name, shape.support, vec);
      const double speedup =
          vec.wall_ms > 0 ? scalar.wall_ms / vec.wall_ms : 0.0;
      std::printf("  %-32s %-6s %9s ms  (%sx)\n", cell.c_str(), simd_name,
                  FormatDouble(vec.wall_ms, 3).c_str(),
                  FormatDouble(speedup, 2).c_str());
      // Kernel choice is a pure performance knob: both runs of a cell
      // must mine the same frequent-pattern count (the full
      // bit-identity matrix lives in tests/fpm/).
      if (vec.patterns != scalar.patterns) {
        std::fprintf(stderr,
                     "FAIL: %s mined %llu patterns scalar vs %llu %s\n",
                     cell.c_str(),
                     static_cast<unsigned long long>(scalar.patterns),
                     static_cast<unsigned long long>(vec.patterns),
                     simd_name);
        return 1;
      }
      // The --check-speedup gate covers the cells the dispatcher
      // routes to each kernel-bound miner: Apriori on the dense
      // low-support shape (bitmap tallies), ECLAT on the sparse shape
      // (tid-list intersections). The off-diagonal cells are recorded
      // for the matrix but not gated — e.g. ECLAT on the dense shape
      // sits near 2x and would flap on a shared runner.
      const bool gate_cell =
          (shape.name == "dense_s0.02" && miner == MinerKind::kApriori) ||
          (shape.name == "sparse_s0.01" && miner == MinerKind::kEclat);
      if (gate_cell) gate_speedups[cell] = speedup;
    }
  }

  WriteBenchJson("bench_mining", "mining");

  if (check_speedup > 0.0) {
    if (!simd) {
      std::printf("check-speedup skipped: no SIMD kernel on this CPU\n");
    } else {
      for (const auto& [cell, speedup] : gate_speedups) {
        if (speedup < check_speedup) {
          std::fprintf(stderr, "FAIL: %s speedup %sx below required %sx\n",
                       cell.c_str(), FormatDouble(speedup, 2).c_str(),
                       FormatDouble(check_speedup, 2).c_str());
          return 1;
        }
      }
    }
  }

  if (!baseline_path.empty()) {
    if (!simd) {
      std::printf("baseline gate skipped: no SIMD kernel on this CPU\n");
      return 0;
    }
    const auto baseline = SpeedupsFromRecords(baseline_records);
    const auto current = SpeedupsFromRecords(BenchRecords());
    size_t compared = 0;
    for (const auto& [cell, base] : baseline) {
      const auto it = current.find(cell);
      if (it == current.end()) continue;
      // Only kernel-sensitive cells are gated: FP-growth sits near
      // 1.0x by design (pointer-chasing, not kernel-bound), so its
      // ratio is pure runner noise and would flap a 10% tolerance.
      if (base < 1.2) continue;
      ++compared;
      if (it->second < base * (1.0 - tolerance)) {
        std::fprintf(stderr,
                     "FAIL: %s speedup regressed to %sx from baseline "
                     "%sx (tolerance %s)\n",
                     cell.c_str(), FormatDouble(it->second, 2).c_str(),
                     FormatDouble(base, 2).c_str(),
                     FormatDouble(tolerance, 2).c_str());
        return 1;
      }
    }
    std::printf("baseline gate: %zu cells within %s of %s\n", compared,
                FormatDouble(tolerance, 2).c_str(), baseline_path.c_str());
    if (compared == 0) {
      std::fprintf(stderr, "FAIL: baseline shares no cells with this run\n");
      return 1;
    }
  }
  return 0;
}
