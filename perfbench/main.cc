// perfbench: the end-to-end audit and serving benchmark's binary.
//
//   perfbench setup   --workload W --seed N --dir D
//       Generates the workload's inputs from the seed into D (raw CSV,
//       and the references the checks need) and prints
//       {"setup_s": ..., "digest": ...}.
//   perfbench measure --workload W --seed N --seconds S --trace 0|1 --dir D
//       Runs the workload closed-loop for S seconds over D's inputs,
//       checks every output, and prints the check tallies and metric
//       values as its last line. Exits 1 when a check failed.
//   perfbench shard-worker ...
//       The process-isolated shard worker audit-sharded spawns.
//
// run.py builds this binary and drives it; see perfbench/README.md.
#include <malloc.h>

#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "audit.h"
#include "measure.h"
#include "recovery/atomic_file.h"
#include "serve/artifact.h"
#include "serve_mix.h"
#include "shard/worker/worker.h"

namespace divexp {
namespace perfbench {
namespace {

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::string dir;
};

Result<Args> ParseArgs(const std::vector<std::string>& argv) {
  Args args;
  for (size_t i = 0; i + 1 < argv.size(); i += 2) {
    const std::string& flag = argv[i];
    const std::string& value = argv[i + 1];
    try {
      if (flag == "--workload") {
        args.workload = value;
      } else if (flag == "--seed") {
        args.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        args.seconds = std::stod(value);
      } else if (flag == "--trace") {
        args.trace = std::stoi(value) != 0;
      } else if (flag == "--dir") {
        args.dir = value;
      } else {
        return Status::InvalidArgument("unknown flag " + flag);
      }
    } catch (const std::exception&) {
      return Status::InvalidArgument("bad value for " + flag + ": " + value);
    }
  }
  if (argv.size() % 2 != 0) {
    return Status::InvalidArgument("flag without a value: " + argv.back());
  }
  if (FindWorkload(args.workload) == nullptr) {
    return Status::InvalidArgument("unknown workload '" + args.workload + "'");
  }
  if (args.dir.empty()) return Status::InvalidArgument("--dir is required");
  return args;
}

std::string Hex(uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

Status AddFileDigest(const std::string& path, Digest* digest) {
  DIVEXP_ASSIGN_OR_RETURN(std::string bytes,
                          recovery::ReadFileToString(path));
  for (unsigned char c : bytes) digest->Add(static_cast<uint64_t>(c));
  return Status::OK();
}

Status Setup(const Args& args) {
  const Clock::time_point start = Clock::now();
  const WorkloadSpec& spec = *FindWorkload(args.workload);
  DIVEXP_RETURN_NOT_OK(recovery::EnsureDirectory(args.dir + "/scratch"));
  AuditPaths paths{args.dir + "/input.csv", args.dir + "/table.art",
                   args.dir + "/scratch"};
  DIVEXP_RETURN_NOT_OK(WriteAuditCsv(spec, args.seed, paths.csv));

  std::map<std::string, std::string> expect;
  if (spec.shards > 1 || spec.serve) {
    // audit-sharded checks against the monolithic audit of the same
    // data and options; serve-mix serves this audit's artifact.
    WorkloadSpec mono = spec;
    mono.shards = 1;
    DIVEXP_ASSIGN_OR_RETURN(AuditOutput ref, RunAudit(mono, paths, nullptr));
    expect["fingerprint"] = Hex(ref.fingerprint);
    expect["patterns"] = std::to_string(ref.patterns);
    expect["analysis_digest"] = Hex(ref.analysis_digest);
  }
  if (spec.serve) {
    DIVEXP_RETURN_NOT_OK(WriteServeInputs(paths.artifact, args.seed, args.dir));
  }
  DIVEXP_RETURN_NOT_OK(WriteKeyValues(args.dir + "/expect.txt", expect));
  const double setup_s = MillisSince(start) / 1000.0;

  // Set-up must be a pure function of the seed; run.py compares this
  // digest across its repeated set-ups.
  Digest digest;
  DIVEXP_RETURN_NOT_OK(AddFileDigest(paths.csv, &digest));
  DIVEXP_RETURN_NOT_OK(AddFileDigest(args.dir + "/expect.txt", &digest));
  if (spec.serve) {
    DIVEXP_RETURN_NOT_OK(AddFileDigest(args.dir + "/reference.txt", &digest));
  }
  std::printf("{\"setup_s\": %.17g, \"digest\": \"%s\"}\n", setup_s,
              Hex(digest.value()).c_str());
  return Status::OK();
}

size_t HeapInUse() {
  const struct mallinfo2 info = ::mallinfo2();
  return info.uordblks + info.hblkhd;
}

// The untraced (and, when tracing, traced) audit loop of the audit-*
// workloads, with every output check made outside the timed interval.
void RunAuditWorkload(const WorkloadSpec& spec, const Args& args,
                      const std::map<std::string, std::string>& expect,
                      RunResult* result) {
  const AuditPaths paths{args.dir + "/input.csv", args.dir + "/out.art",
                         args.dir + "/scratch"};
  const Status dir_ok = recovery::EnsureDirectory(paths.scratch);
  if (!dir_ok.ok()) {
    result->Fail(dir_ok.ToString());
    return;
  }
  AuditOutput first;
  const auto check = [&](const AuditOutput& out, const char* what) {
    const std::string tag = std::string(what) + " audit: ";
    if (out.fingerprint != first.fingerprint ||
        out.patterns != first.patterns ||
        out.analysis_digest != first.analysis_digest) {
      result->Fail(tag + "table or analyses differ from the first audit");
      return;
    }
    auto reopened = serve::PatternTableArtifact::Open(
        paths.artifact, serve::ArtifactValidation::kFull);
    if (!reopened.ok() || (*reopened)->fingerprint() != out.fingerprint) {
      result->Fail(tag + "written artifact does not validate to the "
                         "table's fingerprint");
      return;
    }
    if (spec.shards > 1) {
      const auto want = [&](const char* key) {
        const auto it = expect.find(key);
        return it == expect.end() ? std::string("(missing)") : it->second;
      };
      if (Hex(out.fingerprint) != want("fingerprint") ||
          std::to_string(out.patterns) != want("patterns") ||
          Hex(out.analysis_digest) != want("analysis_digest")) {
        result->Fail(tag + "sharded table differs from the monolithic "
                           "reference (" + Hex(out.fingerprint) + " vs " +
                     want("fingerprint") + ")");
      } else if (out.spawned != out.reaped || out.spawned < spec.shards ||
                 out.stats.retries_total != 0 ||
                 out.stats.shards_failed != 0) {
        result->Fail(tag + "shard workers spawned " +
                     std::to_string(out.spawned) + ", reaped " +
                     std::to_string(out.reaped) + ", retries " +
                     std::to_string(out.stats.retries_total));
      }
    }
  };

  // Warm-up audit, untimed: fills the page cache and the allocator, and
  // is the reference every later audit must reproduce.
  ++result->attempted;
  Result<AuditOutput> warm = RunAudit(spec, paths, nullptr);
  if (!warm.ok()) {
    result->Fail("first audit: " + warm.status().ToString());
    return;
  }
  first = std::move(*warm);
  first.table.reset();
  check(first, "first");

  std::vector<double> untraced_ms;
  std::vector<double> traced_ms;
  std::vector<double> unaccounted_ms;
  std::vector<double> layers_ms;
  std::vector<double> table_mb;
  std::map<std::string, std::vector<double>> layer_values;
  AuditTrace last;
  const Clock::time_point loop_start = Clock::now();
  while (MillisSince(loop_start) < 1000.0 * args.seconds) {
    ++result->attempted;
    Clock::time_point start = Clock::now();
    Result<AuditOutput> out = RunAudit(spec, paths, nullptr);
    const double ms = MillisSince(start);
    if (!out.ok()) {
      result->Fail("audit: " + out.status().ToString());
      break;
    }
    untraced_ms.push_back(ms);
    check(*out, "untraced");
    out->table.reset();
    if (!args.trace) continue;

    ++result->attempted;
    AuditTrace trace;
    start = Clock::now();
    Result<AuditOutput> traced = RunAudit(spec, paths, &trace);
    const double traced_total = MillisSince(start);
    if (!traced.ok()) {
      result->Fail("traced audit: " + traced.status().ToString());
      break;
    }
    check(*traced, "traced");
    const size_t heap = HeapInUse();
    traced->table.reset();
    table_mb.push_back(
        (static_cast<double>(heap) - static_cast<double>(HeapInUse())) /
        (1 << 20));
    double spans = 0.0;
    for (const auto& [name, span_ms] : trace.ms) {
      spans += span_ms;
      layer_values[name].push_back(span_ms);
    }
    for (const auto& [name, value] : trace.values) {
      layer_values[name].push_back(value);
    }
    layer_values["serve.artifact_mb"].push_back(
        static_cast<double>(traced->artifact_bytes) / (1 << 20));
    layer_values["shard.spawned"].push_back(
        static_cast<double>(traced->spawned));
    layer_values["fpm.patterns"].push_back(
        static_cast<double>(traced->patterns));
    traced_ms.push_back(traced_total);
    layers_ms.push_back(spans);
    unaccounted_ms.push_back(traced_total - spans);
    last = std::move(trace);
  }

  const double loop_s = MillisSince(loop_start) / 1000.0;
  if (!args.trace) {
    double pct = 0.0;
    double timed_s = 0.0;
    for (double ms : untraced_ms) timed_s += ms / 1000.0;
    result->values["op_ms_p50"] = Median(untraced_ms);
    result->values["op_ms_tail"] = TailPercentile(untraced_ms, &pct);
    result->values["ops_per_s"] =
        timed_s > 0 ? static_cast<double>(untraced_ms.size()) / timed_s : 0.0;
    std::printf("%s: %zu audits of %llu patterns in %.1f s, tail = p%.0f\n",
                spec.name.c_str(), untraced_ms.size(),
                static_cast<unsigned long long>(first.patterns), loop_s, pct);
    return;
  }

  for (const auto& [name, values] : layer_values) {
    result->values[name] = Median(values);
  }
  result->values["core.table_mb"] = Median(table_mb);
  const auto csv_bytes = recovery::ReadFileToString(paths.csv);
  const double csv_ms = result->values["data.csv_ms"];
  result->values["data.csv_mb_per_s"] =
      csv_bytes.ok() && csv_ms > 0
          ? static_cast<double>(csv_bytes->size()) / (1 << 20) /
                (csv_ms / 1000.0)
          : 0.0;
  const double traced_p50 = Median(traced_ms);
  const double untraced_p50 = Median(untraced_ms);
  result->values["trace.op_ms_p50"] = traced_p50;
  result->values["trace.untraced_ms_p50"] = untraced_p50;
  result->values["trace.overhead_ms"] = traced_p50 - untraced_p50;
  result->values["trace.layers_ms"] = Median(layers_ms);
  result->values["trace.unaccounted_ms"] = Median(unaccounted_ms);
  result->values["trace.samples"] = static_cast<double>(traced_ms.size());

  // The traced-run report: each span's share of the traced audit.
  std::printf("%s traced: %zu traced / %zu untraced audits; miner %s, "
              "kernel %s\n",
              spec.name.c_str(), traced_ms.size(), untraced_ms.size(),
              last.miner.c_str(), last.kernel.c_str());
  for (const auto& [name, ms] : last.ms) {
    const double p50 = result->values[name];
    std::printf("  %-22s %10.3f ms  %5.1f%%\n", name.c_str(), p50,
                100.0 * p50 / traced_p50);
  }
  std::printf("  %-22s %10.3f ms  %5.1f%%\n", "(between spans)",
              result->values["trace.unaccounted_ms"],
              100.0 * result->values["trace.unaccounted_ms"] / traced_p50);
  std::printf("  traced p50 %.3f ms, untraced p50 %.3f ms, tracing "
              "overhead %.3f ms\n",
              traced_p50, untraced_p50, traced_p50 - untraced_p50);
  if (spec.shards > 1) {
    for (const char* name :
         {"shard.mine_ms", "shard.verify_ms", "shard.merge_ms",
          "core.table_ms"}) {
      std::printf("  inside shard.explore_ms: %-16s %10.3f ms  %5.1f%%\n",
                  name, result->values[name],
                  100.0 * result->values[name] / traced_p50);
    }
  }
}

int Measure(const Args& args) {
  const WorkloadSpec& spec = *FindWorkload(args.workload);
  RunResult result;
  Result<std::map<std::string, std::string>> expect =
      ReadKeyValues(args.dir + "/expect.txt");
  if (!expect.ok()) {
    result.Fail("set-up outputs missing: " + expect.status().ToString());
  } else if (spec.serve) {
    uint64_t fingerprint = 0;
    try {
      fingerprint = std::stoull((*expect)["fingerprint"], nullptr, 16);
    } catch (const std::exception&) {
      result.Fail("set-up recorded no table fingerprint");
    }
    if (result.failed == 0) {
      RunServeMix(args.dir, args.seed, fingerprint, args.seconds, args.trace,
                  &result);
    }
  } else {
    RunAuditWorkload(spec, args, *expect, &result);
  }
  if (!args.trace) result.values["peak_rss_mb"] = PeakRssMb();
  if (!result.first_error.empty()) {
    std::fprintf(stderr, "%s: %llu of %llu operations failed; first: %s\n",
                 spec.name.c_str(),
                 static_cast<unsigned long long>(result.failed),
                 static_cast<unsigned long long>(result.attempted),
                 result.first_error.c_str());
  }
  result.Print();
  return result.failed == 0 && result.attempted > 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench
}  // namespace divexp

int main(int argc, char** argv) {
  using namespace divexp::perfbench;
  const std::vector<std::string> rest(argv + (argc > 1 ? 2 : argc),
                                      argv + argc);
  const std::string verb = argc > 1 ? argv[1] : "";
  if (verb == "shard-worker") {
    return divexp::shard::worker::ShardWorkerMain(rest);
  }
  if (verb != "setup" && verb != "measure") {
    std::fprintf(stderr, "usage: perfbench setup|measure|shard-worker ...\n");
    return 2;
  }
  divexp::Result<Args> args = ParseArgs(rest);
  if (!args.ok()) {
    std::fprintf(stderr, "perfbench: %s\n", args.status().ToString().c_str());
    return 2;
  }
  if (verb == "measure") return Measure(*args);
  const divexp::Status st = Setup(*args);
  if (!st.ok()) {
    std::fprintf(stderr, "set-up failed: %s\n", st.ToString().c_str());
    return 1;
  }
  return 0;
}
