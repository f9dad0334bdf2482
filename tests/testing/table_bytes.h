// Canonical byte image of a pattern table for the bit-identity
// harnesses (kill/resume, sharded, shard-fault, shard-process): the
// serving artifact's bytes. They hold the catalog, the global stats,
// every row's itemset, tallies and stats, and the subset links with
// their kNoLink holes, so two tables compare equal only when every
// mode reproduced every column exactly.
#ifndef DIVEXP_TESTS_TESTING_TABLE_BYTES_H_
#define DIVEXP_TESTS_TESTING_TABLE_BYTES_H_

#include <string>
#include <utility>

#include "core/pattern.h"
#include "serve/artifact.h"
#include "util/status.h"

namespace divexp {
namespace testing {

inline std::string TableBytes(const PatternTable& table) {
  auto bytes = serve::SerializePatternTableArtifact(table);
  DIVEXP_CHECK_OK(bytes.status());
  return std::move(bytes).value();
}

}  // namespace testing
}  // namespace divexp

#endif  // DIVEXP_TESTS_TESTING_TABLE_BYTES_H_
