// Entry point of the hidden `divexp shard-worker` verb: executes one
// shard attempt in this (child) process and streams status frames back
// to the supervising coordinator over the status pipe.
//
// The worker is deliberately thin: everything that decides *what* the
// attempt computes is the shared RunShardAttempt path (src/shard/unit),
// so `--shard-isolation=process` can only change where the attempt
// runs, never its output (the bit-identity contract verified by
// tests/matrix/matrix_test.cc). The worker's own responsibilities
// are transport: load the spec, prove the dataset slice is the one the
// coordinator fingerprinted, heartbeat while mining, persist the result
// as a serving artifact and report via result-ready / fatal-status.
//
// Exit code contract:
//   0    the attempt ran; its outcome (success or a mining failure) was
//        reported in-band via a result-ready or fatal-status frame
//   1    infrastructure failure after the status pipe was usable (a
//        fatal-status frame was attempted first)
//   2    unusable invocation (bad arguments); details on stderr
// Anything else — a signal death, 127 from a failed exec — is the
// coordinator's to classify.
#ifndef DIVEXP_SHARD_WORKER_WORKER_H_
#define DIVEXP_SHARD_WORKER_WORKER_H_

#include <string>
#include <vector>

namespace divexp {
namespace shard {
namespace worker {

/// Runs the shard-worker verb. `args` are the arguments after the verb
/// itself: --spec=<path> (required) and --status-fd=<fd> (default 3).
int ShardWorkerMain(const std::vector<std::string>& args);

}  // namespace worker
}  // namespace shard
}  // namespace divexp

#endif  // DIVEXP_SHARD_WORKER_WORKER_H_
