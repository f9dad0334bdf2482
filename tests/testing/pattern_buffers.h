// Literal PatternBuffers and a row-by-row comparison for tests.
#ifndef DIVEXP_TESTS_TESTING_PATTERN_BUFFERS_H_
#define DIVEXP_TESTS_TESTING_PATTERN_BUFFERS_H_

#include <gtest/gtest.h>

#include <algorithm>
#include <initializer_list>
#include <string>

#include "fpm/pattern_buffer.h"

namespace divexp {
namespace testing {

/// The rows of `patterns`, in order.
inline PatternBuffer BufferOf(std::initializer_list<MinedPattern> patterns) {
  PatternBuffer buffer;
  for (const MinedPattern& p : patterns) buffer.Append(p.items, p.counts);
  return buffer;
}

/// Success when both buffers hold equal rows in equal order.
inline ::testing::AssertionResult SameRows(const PatternBuffer& a,
                                           const PatternBuffer& b) {
  if (a.size() != b.size()) {
    return ::testing::AssertionFailure()
           << a.size() << " rows vs " << b.size();
  }
  for (size_t i = 0; i < a.size(); ++i) {
    if (!std::ranges::equal(a.row_items(i), b.row_items(i)) ||
        !(a.counts(i) == b.counts(i))) {
      return ::testing::AssertionFailure() << "rows differ at " << i;
    }
  }
  return ::testing::AssertionSuccess();
}

}  // namespace testing
}  // namespace divexp

#endif  // DIVEXP_TESTS_TESTING_PATTERN_BUFFERS_H_
