// Shared plumbing of the end-to-end benchmark: clocks, order
// statistics, the result record handed back to run.py, and the small
// key=value files set-up leaves for the measured run.
#ifndef DIVEXP_PERFBENCH_MEASURE_H_
#define DIVEXP_PERFBENCH_MEASURE_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "util/status.h"

namespace divexp {
namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double MillisBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}
inline double MillisSince(Clock::time_point start) {
  return MillisBetween(start, Clock::now());
}

/// Median (mean of the middle pair for even counts); 0 when empty.
double Median(std::vector<double> values);

/// Tail latency as the guide defines it: the highest percentile that
/// still has at least ten samples beyond it, capped at p99 (reached at
/// 1000 samples). Below 20 samples no percentile above the median has
/// ten beyond it, so the median is reported. `*percentile` receives the
/// percentile used (50..99).
double TailPercentile(std::vector<double> values, double* percentile);

/// Peak resident set of this process plus that of its largest reaped
/// child (shard workers), in MiB.
double PeakRssMb();

/// Order-sensitive 64-bit digest of a sequence of numbers, used to
/// compare analysis results between audits bit for bit.
class Digest {
 public:
  void Add(uint64_t v);
  void Add(double v);
  uint64_t value() const { return h_; }

 private:
  uint64_t h_ = 1469598103934665603ull;
};

/// What the measured run hands back to run.py: the check tallies and a
/// flat name -> value map (run.py attaches the units).
struct RunResult {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  /// First check failure, kept for the report.
  std::string first_error;
  std::map<std::string, double> values;

  /// Counts `count` failed operations; `why` describes the first.
  void Fail(const std::string& why, uint64_t count = 1);
  /// Prints the result as the last line of standard output.
  void Print() const;
};

/// key=value text files (one pair per line) for set-up expectations.
Status WriteKeyValues(const std::string& path,
                      const std::map<std::string, std::string>& kv);
Result<std::map<std::string, std::string>> ReadKeyValues(
    const std::string& path);

}  // namespace perfbench
}  // namespace divexp

#endif  // DIVEXP_PERFBENCH_MEASURE_H_
