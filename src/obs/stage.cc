#include "obs/stage.h"

#include <algorithm>

#include "util/string_util.h"

namespace divexp {
namespace obs {
namespace {

// Wall time of `stages` without the sub-intervals, which their
// enclosing stage already counts.
double SumWallMs(const std::vector<StageStats>& stages) {
  double total = 0.0;
  for (const StageStats& s : stages) {
    if (s.name != kStageOrder && s.name != kStagePostIndex &&
        s.name != kStageShardVerify) {
      total += s.wall_ms;
    }
  }
  return total;
}

}  // namespace

StageStats& StageStats::Merge(const StageStats& other) {
  wall_ms += other.wall_ms;
  items += other.items;
  peak_bytes = std::max(peak_bytes, other.peak_bytes);
  guard_checks += other.guard_checks;
  calls += other.calls;
  return *this;
}

void StageCollector::Record(StageStats stats) {
  if (stats.calls == 0) stats.calls = 1;
  for (StageStats& s : stages_) {
    if (s.name == stats.name) {
      s.Merge(stats);
      return;
    }
  }
  stages_.push_back(std::move(stats));
}

void StageCollector::MergeFrom(const std::vector<StageStats>& stages) {
  for (const StageStats& s : stages) Record(s);
}

double StageCollector::TotalWallMs() const { return SumWallMs(stages_); }

void StageTimer::Finish() {
  if (finished_) return;
  finished_ = true;
  if (collector_ == nullptr) return;
  StageStats stats;
  stats.name = name_;
  stats.wall_ms =
      std::chrono::duration<double, std::milli>(Clock::now() - start_)
          .count();
  stats.items = items_;
  stats.peak_bytes = peak_bytes_;
  stats.guard_checks = guard_checks_;
  stats.calls = 1;
  collector_->Record(std::move(stats));
}

std::string FormatStageTable(const std::vector<StageStats>& stages) {
  // Column widths sized to content so the table stays readable for
  // both microsecond stages and minute-long mining runs.
  std::string out;
  out += Pad("stage", 22) + Pad("wall_ms", 12, true) +
         Pad("items", 14, true) + Pad("peak_bytes", 14, true) +
         Pad("guard_checks", 14, true) + Pad("calls", 8, true) + "\n";
  for (const StageStats& s : stages) {
    out += Pad(s.name, 22) + Pad(FormatDouble(s.wall_ms, 3), 12, true) +
           Pad(std::to_string(s.items), 14, true) +
           Pad(std::to_string(s.peak_bytes), 14, true) +
           Pad(std::to_string(s.guard_checks), 14, true) +
           Pad(std::to_string(s.calls), 8, true) + "\n";
  }
  const std::string total = FormatDouble(SumWallMs(stages), 3);
  out += Pad("total", 22) + Pad(total, 12, true) + "\n";
  return out;
}

}  // namespace obs
}  // namespace divexp
