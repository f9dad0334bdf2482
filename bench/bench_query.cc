// Experiment QS — serving path: artifact open cost across two table
// sizes, and cached vs uncached top-k latency through the query
// service. Emits BENCH_query.json with one record per (cell, variant);
// the two claims it substantiates are
//   1. opening an artifact is flat in table size (mmap + O(header +
//      catalog) validation), and
//   2. the result cache turns a repeated top-k from an O(rows) scan
//      into a hash lookup, >= 10x faster.
//
// usage: bench_query [--repeat=R] [--smoke]
//          [--check-open-scaling=X] [--check-cache-speedup=X]
//          [--baseline=PATH] [--tolerance=F]
//   --smoke               CI mode: smaller synthetic tables, same grid
//   --check-open-scaling  exit 1 unless the large/small row ratio is at
//                         least X times the large/small open-time ratio
//   --check-cache-speedup exit 1 if cached top-k is not X times faster
//                         than uncached on the large table
//   --baseline            compare per-cell speedups against a
//                         previously written BENCH_query.json; exit 1
//                         on a relative regression beyond --tolerance
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
#include "fpm/miner.h"
#include "serve/artifact.h"
#include "serve/server.h"
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

// One synthetic table shape: a complete downward-closed pattern set
// (every itemset of <= 3 items over distinct attributes), which is
// exactly what a real exploration of independent uniform attributes
// with a generous max length produces. Building it directly instead of
// mining lets the large cell reach hundreds of thousands of rows in
// seconds, and row count is a closed form in (attributes, domain).
struct Shape {
  std::string name;
  size_t attributes;
  int domain;  ///< values per attribute
};

PatternTable MakeTable(const Shape& shape, uint64_t seed) {
  ItemCatalog catalog;
  std::vector<uint32_t> first(shape.attributes);
  for (size_t a = 0; a < shape.attributes; ++a) {
    std::vector<std::string> values;
    for (int v = 0; v < shape.domain; ++v) {
      values.push_back("v" + std::to_string(v));
    }
    const uint32_t attr =
        catalog.AddAttribute("a" + std::to_string(a), values);
    first[a] = catalog.first_item(attr);
  }

  constexpr uint64_t kDatasetRows = 100000;
  Rng rng(seed);
  std::vector<MinedPattern> mined;
  const auto add = [&](Itemset items) {
    MinedPattern p;
    p.items = std::move(items);
    // Tallies only need to be internally plausible: the serving path
    // treats them as opaque numbers, and the post-pass derives every
    // stat per row.
    p.counts.t = 100 + rng.Below(2000);
    p.counts.f = 100 + rng.Below(2000);
    p.counts.bot = rng.Below(500);
    mined.push_back(std::move(p));
  };
  MinedPattern root;
  root.counts = {35000, 45000, 20000};
  mined.push_back(std::move(root));
  const int d = shape.domain;
  const size_t n = shape.attributes;
  for (size_t a = 0; a < n; ++a) {
    for (int v = 0; v < d; ++v) add({first[a] + static_cast<uint32_t>(v)});
  }
  for (size_t a = 0; a < n; ++a) {
    for (size_t b = a + 1; b < n; ++b) {
      for (int va = 0; va < d; ++va) {
        for (int vb = 0; vb < d; ++vb) {
          add({first[a] + static_cast<uint32_t>(va),
               first[b] + static_cast<uint32_t>(vb)});
        }
      }
    }
  }
  for (size_t a = 0; a < n; ++a) {
    for (size_t b = a + 1; b < n; ++b) {
      for (size_t c = b + 1; c < n; ++c) {
        for (int va = 0; va < d; ++va) {
          for (int vb = 0; vb < d; ++vb) {
            for (int vc = 0; vc < d; ++vc) {
              add({first[a] + static_cast<uint32_t>(va),
                   first[b] + static_cast<uint32_t>(vb),
                   first[c] + static_cast<uint32_t>(vc)});
            }
          }
        }
      }
    }
  }
  SortPatterns(&mined);  // the canonical order the artifact writer needs

  auto table =
      PatternTable::Create(std::move(mined), std::move(catalog), kDatasetRows);
  if (!table.ok()) {
    std::fprintf(stderr, "table build failed: %s\n",
                 table.status().ToString().c_str());
    std::exit(1);
  }
  return std::move(table).value();
}

std::string BenchDir() {
  const char* base = std::getenv("TMPDIR");
  const std::string dir =
      std::string(base != nullptr && base[0] != '\0' ? base : "/tmp") +
      "/divexp_bench_query";
  const Status st = recovery::EnsureDirectory(dir);
  if (!st.ok()) {
    std::fprintf(stderr, "cannot create %s: %s\n", dir.c_str(),
                 st.ToString().c_str());
    std::exit(1);
  }
  return dir;
}

// Minimum wall-clock over `repeat` opens; construction alone is timed
// (teardown happens after the clock stops).
double MinOpenMillis(const std::string& path, size_t repeat) {
  double best = 1e300;
  for (size_t r = 0; r < repeat; ++r) {
    const auto start = std::chrono::steady_clock::now();
    auto table = serve::OpenServingTable(path);
    const double ms = MillisSince(start);
    if (!table.ok()) {
      std::fprintf(stderr, "open %s failed: %s\n", path.c_str(),
                   table.status().ToString().c_str());
      std::exit(1);
    }
    best = std::min(best, ms);
  }
  return best;
}

void CheckOk(const std::string& response, const char* what) {
  if (response.find("\"ok\":true") == std::string::npos) {
    std::fprintf(stderr, "%s returned an error: %s\n", what,
                 response.c_str());
    std::exit(1);
  }
}

void Record(const std::string& name, const std::string& dataset,
            double wall_ms, uint64_t patterns) {
  BenchRecord record;
  record.name = name;
  record.dataset = dataset;
  record.wall_ms = wall_ms;
  record.patterns = patterns;
  UpsertBenchRecord(std::move(record));
}

// Per-cell uncached/cached speedups keyed by the cell prefix
// ("query/topk/<size>"). Unitless, so comparable across machines —
// this is what the --baseline regression gate checks. The open cells
// have a single variant and are gated by --check-open-scaling instead.
std::map<std::string, double> SpeedupsFromRecords(
    const std::vector<BenchRecord>& records) {
  std::map<std::string, double> slow_ms;
  std::map<std::string, double> fast_ms;
  for (const BenchRecord& r : records) {
    const size_t cut = r.name.rfind('/');
    if (cut == std::string::npos) continue;
    const std::string cell = r.name.substr(0, cut);
    const std::string variant = r.name.substr(cut + 1);
    if (variant == "uncached") slow_ms[cell] = r.wall_ms;
    if (variant == "cached") fast_ms[cell] = r.wall_ms;
  }
  std::map<std::string, double> speedups;
  for (const auto& [cell, ms] : fast_ms) {
    const auto it = slow_ms.find(cell);
    if (it != slow_ms.end() && ms > 0) {
      speedups[cell] = it->second / ms;
    }
  }
  return speedups;
}

// Loads the records of a previously written BENCH_query.json.
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

// Speedups beyond this are clamped before the baseline comparison: a
// cached hash lookup vs an O(rows) scan lands in the hundreds, where
// the exact ratio is pure runner noise — the gate only needs to notice
// the fast path degrading toward the slow one.
constexpr double kSpeedupClamp = 25.0;

}  // namespace

int main(int argc, char** argv) {
  size_t repeat = 5;
  bool smoke = false;
  double check_open_scaling = 0.0;
  double check_cache = 0.0;
  double tolerance = 0.25;
  std::string baseline_path;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--repeat=", 0) == 0) {
      repeat = static_cast<size_t>(std::atol(arg.c_str() + 9));
    } else if (arg == "--smoke") {
      smoke = true;
    } else if (arg.rfind("--check-open-scaling=", 0) == 0) {
      check_open_scaling = std::atof(arg.c_str() + 21);
    } else if (arg.rfind("--check-cache-speedup=", 0) == 0) {
      check_cache = std::atof(arg.c_str() + 22);
    } else if (arg.rfind("--baseline=", 0) == 0) {
      baseline_path = arg.substr(11);
    } else if (arg.rfind("--tolerance=", 0) == 0) {
      tolerance = std::atof(arg.c_str() + 12);
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", arg.c_str());
      return 2;
    }
  }

  // Read the baseline before WriteBenchJson may overwrite it — CI runs
  // from the repo root, where the checked-in baseline and the output
  // path coincide; loading late would gate the run against itself.
  std::vector<BenchRecord> baseline_records;
  if (!baseline_path.empty()) {
    baseline_records = LoadBaseline(baseline_path);
  }

  // ~1.5k / ~48k rows in smoke, ~7.7k / ~295k in the full run; the
  // closed form is 1 + A*d + C(A,2)*d^2 + C(A,3)*d^3.
  const Shape small = smoke ? Shape{"small", 6, 4} : Shape{"small", 8, 5};
  const Shape large = smoke ? Shape{"large", 12, 6} : Shape{"large", 16, 8};
  std::printf("serving path: repeat=%zu%s\n", repeat,
              smoke ? " (smoke)" : "");

  const std::string dir = BenchDir();
  std::map<std::string, double> open_ms;  // "<size>" -> ms
  std::map<std::string, double> rows;     // "<size>" -> table rows
  serve::ServingTable large_table;
  uint64_t large_rows = 0;
  for (const Shape& shape : {small, large}) {
    const PatternTable table = MakeTable(shape, 424200 + shape.attributes);
    const std::string dvt = dir + "/" + shape.name + ".dvt";
    const Status st = serve::WritePatternTableArtifact(dvt, table);
    if (!st.ok()) {
      std::fprintf(stderr, "writing the %s artifact failed: %s\n",
                   shape.name.c_str(), st.ToString().c_str());
      return 1;
    }
    const std::string cell = "query/open/" + shape.name;
    const double ms = MinOpenMillis(dvt, repeat);
    open_ms[shape.name] = ms;
    rows[shape.name] = static_cast<double>(table.size());
    Record(cell + "/mmap", "synthetic_" + shape.name, ms, table.size());
    std::printf("  %-26s %-8s %10s ms  (%zu rows)\n", cell.c_str(), "mmap",
                FormatDouble(ms, 3).c_str(), table.size());
    if (shape.name == "large") {
      auto opened = serve::OpenServingTable(dvt);
      if (!opened.ok()) {
        std::fprintf(stderr, "reopening %s failed: %s\n", dvt.c_str(),
                     opened.status().ToString().c_str());
        return 1;
      }
      large_table = std::move(opened).value();
      large_rows = table.size();
    }
  }

  // Top-k latency through the query service on the large table. The
  // uncached cell disables the cache outright; the cached cell warms
  // one entry and measures steady-state hits in batches (a single hit
  // is microseconds — too close to clock resolution to time alone).
  const std::string query = "topk k=10";
  double uncached_ms = 1e300;
  {
    serve::QueryServiceOptions options;
    options.cache_enabled = false;
    serve::QueryService service(&large_table, options);
    for (size_t r = 0; r < repeat; ++r) {
      const auto start = std::chrono::steady_clock::now();
      const std::string response = service.HandleLine(query);
      uncached_ms = std::min(uncached_ms, MillisSince(start));
      CheckOk(response, "uncached topk");
    }
  }
  double cached_ms = 1e300;
  {
    serve::QueryService service(&large_table);
    CheckOk(service.HandleLine(query), "warmup topk");
    constexpr size_t kBatch = 200;
    for (size_t r = 0; r < repeat; ++r) {
      const auto start = std::chrono::steady_clock::now();
      for (size_t i = 0; i < kBatch; ++i) {
        const std::string response = service.HandleLine(query);
        if (response.empty()) std::exit(1);  // keep the call observable
      }
      cached_ms = std::min(cached_ms, MillisSince(start) / kBatch);
    }
  }
  Record("query/topk/large/uncached", "synthetic_large", uncached_ms,
         large_rows);
  Record("query/topk/large/cached", "synthetic_large", cached_ms,
         large_rows);
  const double cache_speedup =
      cached_ms > 0 ? uncached_ms / cached_ms : 0.0;
  std::printf("  %-26s %-8s %10s ms\n", "query/topk/large", "uncached",
              FormatDouble(uncached_ms, 4).c_str());
  std::printf("  %-26s %-8s %10s ms  (%sx)\n", "query/topk/large",
              "cached", FormatDouble(cached_ms, 4).c_str(),
              FormatDouble(cache_speedup, 1).c_str());

  WriteBenchJson("bench_query", "query");

  if (check_open_scaling > 0.0) {
    // The flatness claim: growing the table many times in rows must
    // leave the artifact open nearly unchanged. Requiring the row
    // growth to exceed the open-time growth X times over keeps the gate
    // far from runner noise while still catching an O(rows) open.
    const double row_scale = rows["large"] / rows["small"];
    const double open_scale = open_ms["small"] > 0
                                  ? open_ms["large"] / open_ms["small"]
                                  : 1e300;
    std::printf("open scaling large/small: rows %sx, mmap open %sx\n",
                FormatDouble(row_scale, 2).c_str(),
                FormatDouble(open_scale, 2).c_str());
    if (row_scale < check_open_scaling * open_scale) {
      std::fprintf(stderr,
                   "FAIL: artifact open grew %sx for %sx more rows; "
                   "required rows >= %sx open growth — not flat\n",
                   FormatDouble(open_scale, 2).c_str(),
                   FormatDouble(row_scale, 2).c_str(),
                   FormatDouble(check_open_scaling, 2).c_str());
      return 1;
    }
  }

  if (check_cache > 0.0 && cache_speedup < check_cache) {
    std::fprintf(stderr,
                 "FAIL: cached topk speedup %sx below required %sx\n",
                 FormatDouble(cache_speedup, 2).c_str(),
                 FormatDouble(check_cache, 2).c_str());
    return 1;
  }

  if (!baseline_path.empty()) {
    const auto baseline = SpeedupsFromRecords(baseline_records);
    const auto current = SpeedupsFromRecords(BenchRecords());
    size_t compared = 0;
    for (const auto& [cell, base_raw] : baseline) {
      const auto it = current.find(cell);
      if (it == current.end()) continue;
      ++compared;
      const double base = std::min(base_raw, kSpeedupClamp);
      const double got = std::min(it->second, kSpeedupClamp);
      if (got < base * (1.0 - tolerance)) {
        std::fprintf(stderr,
                     "FAIL: %s speedup regressed to %sx from baseline "
                     "%sx (tolerance %s)\n",
                     cell.c_str(), FormatDouble(got, 2).c_str(),
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
