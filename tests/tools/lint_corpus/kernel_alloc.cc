// lint-path: src/fpm/kernels/kernels_bad.cc
// expect: kernel-no-alloc
// expect: kernel-no-alloc
//
// kernels_* translation units are pure compute over caller-owned
// buffers: any allocation, container or lock in one is a hot-loop
// bug. Other basenames in the same directory are not kernels and are
// exempt.
#include "fpm/kernels/kernels.h"

namespace divexp {
namespace fpm {

uint64_t BadKernel(const uint64_t* words, size_t n) {
  std::vector<uint64_t> scratch(n);
  uint64_t* leaked = new uint64_t[n];
  // Suppression still works when a kernel has a vetted reason:
  static std::mutex guard;  // lint:allow(kernel-no-alloc): fixture demonstrates suppression
  (void)guard;
  (void)scratch;
  (void)leaked;
  return words[0];
}

}  // namespace fpm
}  // namespace divexp
