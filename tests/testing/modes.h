// Shared pieces of the execution-mode tests: the fault-schedule count,
// the miners' failpoint seams, row slices of a miner table, and
// process-isolated sharding. The differential matrix
// (tests/matrix/matrix_test.cc) and the ordinary recovery, shard and
// serving tests next to what they test use these.
#ifndef DIVEXP_TESTS_TESTING_MODES_H_
#define DIVEXP_TESTS_TESTING_MODES_H_

#include <cstdlib>
#include <string>
#include <vector>

#include "fpm/miner.h"
#include "shard/shard.h"
#include "shard/worker/coordinator.h"
#include "testing/miner_tables.h"

namespace divexp {
namespace testing {

/// Seeded fault schedules each fault cell draws: DIVEXP_SCHEDULES, or 1.
inline int SchedulesPerCell() {
  const char* env = std::getenv("DIVEXP_SCHEDULES");
  const int n = env != nullptr ? std::atoi(env) : 0;
  return n > 0 ? n : 1;
}

/// The failpoints a miner's units cross; kAuto may resolve to any.
inline std::vector<std::string> MinerSeams(MinerKind miner) {
  switch (miner) {
    case MinerKind::kFpGrowth:
      return {"fpm.fpgrowth.grow"};
    case MinerKind::kApriori:
      return {"fpm.apriori.level"};
    case MinerKind::kEclat:
      return {"fpm.eclat.grow"};
    case MinerKind::kAuto:
      break;
  }
  return {"fpm.fpgrowth.grow", "fpm.apriori.level", "fpm.eclat.grow"};
}

/// Rows [begin, end) of `table`, with the same catalog.
inline MinerTable SliceRows(const MinerTable& table, size_t begin,
                            size_t end) {
  MinerTable out;
  out.dataset.num_rows = end - begin;
  out.dataset.num_attributes = table.dataset.num_attributes;
  out.dataset.catalog = table.dataset.catalog;
  const size_t width = table.dataset.num_attributes;
  out.dataset.cells.assign(table.dataset.cells.begin() + begin * width,
                           table.dataset.cells.begin() + end * width);
  out.outcomes.assign(table.outcomes.begin() + begin,
                      table.outcomes.begin() + end);
  return out;
}

/// Process isolation as the tests supervise it: a 25 ms heartbeat and
/// a deadline no healthy worker trips, even in a sanitizer build.
inline shard::worker::ProcessIsolationOptions TestIsolation(
    const std::string& scratch_dir) {
  shard::worker::ProcessIsolationOptions popts;
  popts.scratch_dir = scratch_dir;
  popts.heartbeat_interval_ms = 25;
  popts.heartbeat_timeout_ms = 30000;
  return popts;
}

/// `opts` with its shard attempts moved into worker processes. The
/// workers re-exec the test binary, which dispatches `shard-worker`.
inline shard::ShardedExplorerOptions InWorkerProcesses(
    shard::ShardedExplorerOptions opts,
    shard::worker::ProcessIsolationOptions popts) {
  opts.isolation = shard::ShardIsolation::kProcess;
  opts.attempt_runner = shard::worker::MakeProcessAttemptRunner(popts);
  return opts;
}

}  // namespace testing
}  // namespace divexp

#endif  // DIVEXP_TESTS_TESTING_MODES_H_
