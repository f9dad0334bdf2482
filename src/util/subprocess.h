// Minimal fork/exec subprocess support for process-isolated work
// units (src/shard/worker). This is the only place in the tree allowed
// to call fork/exec directly (divexp-lint rule `no-raw-subprocess`):
// concentrating the spawn/reap pairing here is what lets the zombie
// accounting below hold a process-wide invariant — every child ever
// spawned is eventually reaped exactly once.
//
// The helpers are deliberately low-level (no framing, no protocol):
// the worker wire protocol lives in src/shard/worker/protocol.h, above
// the serve layer it reuses. All blocking calls retry EINTR.
#ifndef DIVEXP_UTIL_SUBPROCESS_H_
#define DIVEXP_UTIL_SUBPROCESS_H_

#include <sys/types.h>

#include <cstdint>
#include <string>
#include <vector>

#include "util/status.h"

namespace divexp {

/// A spawned child and the read end of its status pipe. The caller
/// owns `status_fd` (close it) and must reap `pid` via WaitForExit —
/// one reap per spawn, no exceptions.
struct ChildProcess {
  pid_t pid = -1;
  int status_fd = -1;
};

/// Fork/execs `argv` (argv[0] is the executable path). A fresh pipe's
/// write end is dup2'ed onto descriptor `child_status_fd` in the child
/// before exec, so the child can stream status frames while the parent
/// reads them from the returned `status_fd`. The parent's copy of the
/// write end is closed, so child exit surfaces as EOF. An exec failure
/// exits the child with code 127.
Result<ChildProcess> SpawnWithStatusPipe(
    const std::vector<std::string>& argv, int child_status_fd);

/// How a reaped child terminated.
enum class ExitKind {
  kExited,    ///< normal exit; `exit_code` holds the code
  kSignaled,  ///< killed by a signal; `term_signal` holds it
};

struct ExitStatus {
  ExitKind kind = ExitKind::kExited;
  int exit_code = 0;
  int term_signal = 0;
};

/// Blocking waitpid with EINTR retry. Counts toward
/// SubprocessReapCount() exactly once per successful reap.
Result<ExitStatus> WaitForExit(pid_t pid);

/// kill(pid, signal); InvalidArgument for pid <= 0 (never signal a
/// process group or "every process" by accident).
Status KillProcess(pid_t pid, int signal);

/// EINTR-retried read; returns the byte count, 0 at EOF.
Result<size_t> ReadSome(int fd, void* buf, size_t len);

/// EINTR/short-write-retried write of the whole buffer.
Status WriteAll(int fd, const void* buf, size_t len);

/// Zombie accounting: children spawned / reaped by this process since
/// start. A coordinator that never leaks a zombie keeps these equal
/// whenever it is idle (asserted in tests/matrix/matrix_test.cc).
uint64_t SubprocessSpawnCount();
uint64_t SubprocessReapCount();

/// Absolute path of the running executable (/proc/self/exe), or an
/// empty string if the platform cannot resolve it. The shard
/// coordinator re-execs this binary with the hidden `shard-worker`
/// verb.
std::string SelfExecutablePath();

}  // namespace divexp

#endif  // DIVEXP_UTIL_SUBPROCESS_H_
