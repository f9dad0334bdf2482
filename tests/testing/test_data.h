// Shared helpers for constructing small encoded datasets in tests, and
// a scratch directory per test suite.
#ifndef DIVEXP_TESTS_TESTING_TEST_DATA_H_
#define DIVEXP_TESTS_TESTING_TEST_DATA_H_

#include <cstdlib>
#include <string>
#include <vector>

#include "data/encoder.h"
#include "fpm/transactions.h"
#include "recovery/atomic_file.h"
#include "util/status.h"

namespace divexp {
namespace testing {

/// `$TMPDIR/divexp_tests/<leaf>` (TMPDIR defaults to /tmp), created if
/// missing.
inline std::string ScratchDir(const std::string& leaf) {
  const char* base = std::getenv("TMPDIR");
  std::string dir = std::string(base != nullptr ? base : "/tmp") +
                    "/divexp_tests/" + leaf;
  DIVEXP_CHECK_OK(recovery::EnsureDirectory(dir));
  return dir;
}

/// Builds an EncodedDataset from integer cell values. Attribute k is
/// named "a<k>", its values "v0", "v1", ... up to domain_sizes[k].
inline EncodedDataset MakeEncoded(
    const std::vector<std::vector<int>>& rows,
    const std::vector<int>& domain_sizes) {
  EncodedDataset out;
  out.num_rows = rows.size();
  out.num_attributes = domain_sizes.size();
  std::vector<uint32_t> first(domain_sizes.size());
  for (size_t a = 0; a < domain_sizes.size(); ++a) {
    std::vector<std::string> values;
    for (int v = 0; v < domain_sizes[a]; ++v) {
      values.push_back("v" + std::to_string(v));
    }
    const uint32_t attr =
        out.catalog.AddAttribute("a" + std::to_string(a), values);
    first[a] = out.catalog.first_item(attr);
  }
  out.cells.reserve(rows.size() * domain_sizes.size());
  for (const auto& row : rows) {
    DIVEXP_CHECK(row.size() == domain_sizes.size());
    for (size_t a = 0; a < row.size(); ++a) {
      DIVEXP_CHECK(row[a] >= 0 && row[a] < domain_sizes[a]);
      out.cells.push_back(first[a] + static_cast<uint32_t>(row[a]));
    }
  }
  return out;
}

/// Parses "TFB..." into outcome values (T=true, F=false, B=bottom).
inline std::vector<Outcome> OutcomesFromString(const std::string& s) {
  std::vector<Outcome> out;
  out.reserve(s.size());
  for (char ch : s) {
    switch (ch) {
      case 'T':
        out.push_back(Outcome::kTrue);
        break;
      case 'F':
        out.push_back(Outcome::kFalse);
        break;
      case 'B':
        out.push_back(Outcome::kBottom);
        break;
      default:
        DIVEXP_CHECK(false);
    }
  }
  return out;
}

}  // namespace testing
}  // namespace divexp

#endif  // DIVEXP_TESTS_TESTING_TEST_DATA_H_
