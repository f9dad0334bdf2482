#include "measure.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <sstream>

#include "recovery/atomic_file.h"

namespace divexp {
namespace perfbench {

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double TailPercentile(std::vector<double> values, double* percentile) {
  const size_t n = values.size();
  if (n < 20) {
    if (percentile != nullptr) *percentile = 50.0;
    return Median(std::move(values));
  }
  std::sort(values.begin(), values.end());
  // Nearest-rank index with exactly ten samples above it, or the p99
  // rank once there are enough samples for that.
  const size_t p99_index =
      static_cast<size_t>(std::ceil(0.99 * static_cast<double>(n))) - 1;
  const size_t index = std::min(n - 11, p99_index);
  if (percentile != nullptr) {
    *percentile = 100.0 * static_cast<double>(index + 1) /
                  static_cast<double>(n);
  }
  return values[index];
}

double PeakRssMb() {
  struct rusage self {};
  struct rusage children {};
  ::getrusage(RUSAGE_SELF, &self);
  ::getrusage(RUSAGE_CHILDREN, &children);
  // Linux reports ru_maxrss in KiB.
  return static_cast<double>(self.ru_maxrss + children.ru_maxrss) / 1024.0;
}

void Digest::Add(uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h_ ^= (v >> (8 * i)) & 0xffu;
    h_ *= 1099511628211ull;
  }
}

void Digest::Add(double v) {
  uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  Add(bits);
}

void RunResult::Fail(const std::string& why, uint64_t count) {
  failed += count;
  if (first_error.empty()) first_error = why;
  std::fprintf(stderr, "check failed: %s\n", why.c_str());
}

void RunResult::Print() const {
  // Metric names are plain identifiers; %.17g keeps every digit of the
  // measurement (obs::JsonWriter rounds doubles to nine).
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"values\": {",
              failed == 0 && attempted > 0 ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  const char* sep = "";
  for (const auto& [name, value] : values) {
    std::printf("%s\"%s\": %.17g", sep, name.c_str(),
                std::isfinite(value) ? value : 0.0);
    sep = ", ";
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

Status WriteKeyValues(const std::string& path,
                      const std::map<std::string, std::string>& kv) {
  std::string text;
  for (const auto& [key, value] : kv) text += key + "=" + value + "\n";
  return recovery::WriteFileAtomic(path, text);
}

Result<std::map<std::string, std::string>> ReadKeyValues(
    const std::string& path) {
  DIVEXP_ASSIGN_OR_RETURN(std::string text,
                          recovery::ReadFileToString(path));
  std::map<std::string, std::string> kv;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    const size_t eq = line.find('=');
    if (eq == std::string::npos) continue;
    kv[line.substr(0, eq)] = line.substr(eq + 1);
  }
  return kv;
}

}  // namespace perfbench
}  // namespace divexp
