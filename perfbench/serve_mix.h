// serve-mix: a seeded stream of protocol request lines against the
// audit-wide table's serving artifact, cache-off reference answers for a
// sample of it, and the closed-loop socket / in-process runs over it.
#ifndef DIVEXP_PERFBENCH_SERVE_MIX_H_
#define DIVEXP_PERFBENCH_SERVE_MIX_H_

#include <cstdint>
#include <string>

#include "measure.h"
#include "util/status.h"

namespace divexp {
namespace perfbench {

/// Writes reference.txt into `dir`: cache-off answers, from the
/// artifact at `artifact_path`, for a sample of positions of the
/// request stream `seed` generates.
Status WriteServeInputs(const std::string& artifact_path, uint64_t seed,
                        const std::string& dir);

/// The measured serve-mix run: serves the artifact in `dir` (whose
/// fingerprint set-up recorded) the request stream of `seed`, checking
/// answers against the references WriteServeInputs wrote. Untraced it
/// reports the end-to-end request metrics; traced, the per-layer serve
/// split.
void RunServeMix(const std::string& dir, uint64_t seed, uint64_t fingerprint,
                 double seconds, bool trace, RunResult* result);

}  // namespace perfbench
}  // namespace divexp

#endif  // DIVEXP_PERFBENCH_SERVE_MIX_H_
