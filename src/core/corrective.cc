#include "core/corrective.h"

namespace divexp {

std::vector<CorrectiveItem> FindCorrectiveItems(
    const PatternTable& table, const CorrectiveOptions& options) {
  return ScanCorrectiveItems(table, options).value();
}

}  // namespace divexp
