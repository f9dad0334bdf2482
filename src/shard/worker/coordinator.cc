#include "shard/worker/coordinator.h"

#include <poll.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <memory>
#include <utility>
#include <vector>

#include "obs/metrics.h"
#include "recovery/atomic_file.h"
#include "serve/artifact.h"
#include "shard/worker/protocol.h"
#include "util/run_guard.h"
#include "util/subprocess.h"

namespace divexp {
namespace shard {
namespace worker {
namespace {

using Clock = std::chrono::steady_clock;

/// Descriptor the spec write end is dup2'ed onto inside the child.
constexpr int kWorkerStatusFd = 3;

/// Guarantees the spawn/reap pairing on every exit path: a supervisor
/// that returns early (artifact error, exception) must still not leak
/// a zombie or a pipe descriptor.
class WorkerHandle {
 public:
  explicit WorkerHandle(ChildProcess child) : child_(child) {}

  ~WorkerHandle() {
    CloseStatusFd();
    if (!reaped_) {
      Kill();
      Result<ExitStatus> ignored =
          Reap();  // best-effort: a destructor cannot surface errors
    }
  }

  WorkerHandle(const WorkerHandle&) = delete;
  WorkerHandle& operator=(const WorkerHandle&) = delete;

  int status_fd() const { return child_.status_fd; }

  void CloseStatusFd() {
    if (child_.status_fd >= 0) {
      ::close(child_.status_fd);
      child_.status_fd = -1;
    }
  }

  void Kill() {
    const pid_t pid = child_.pid;
    Status ignored = KillProcess(pid, SIGKILL);  // best-effort: ESRCH = dead
  }

  Result<ExitStatus> Reap() {
    if (reaped_) return exit_;
    Result<ExitStatus> status = WaitForExit(child_.pid);
    reaped_ = true;
    obs::MetricsRegistry::Default().GetCounter("shard.proc.reaped")->Add(1);
    if (status.ok()) exit_ = *status;
    return status;
  }

 private:
  ChildProcess child_;
  bool reaped_ = false;
  ExitStatus exit_;
};

/// Removes per-attempt scratch files when the attempt is over, success
/// or not — retries write fresh ones, and a chaos run must not fill
/// the scratch directory with thousands of dead specs.
class ScratchCleaner {
 public:
  void Add(std::string path) { paths_.push_back(std::move(path)); }
  ~ScratchCleaner() {
    for (const std::string& p : paths_) (void)std::remove(p.c_str());
  }

 private:
  std::vector<std::string> paths_;
};

StatusCode CodeFromWire(uint32_t code) {
  if (code > static_cast<uint32_t>(StatusCode::kResourceExhausted)) {
    return StatusCode::kInternal;
  }
  return static_cast<StatusCode>(code);
}

void AbsorbStats(const FrameStats& stats, ShardAttemptResult* out) {
  out->resumed = stats.resumed;
  out->checkpoints_written = stats.checkpoints_written;
  out->checkpoint_bytes = stats.checkpoint_bytes;
  out->checkpoint_write_failures = stats.checkpoint_write_failures;
  if (stats.checkpoint_error_code != 0) {
    out->checkpoint_write_error =
        Status(CodeFromWire(stats.checkpoint_error_code),
               stats.checkpoint_error_message);
  }
  out->peak_memory_bytes = stats.peak_memory_bytes;
}

/// Reads the worker's result artifact back into the exact contribution
/// the in-thread path would have produced: every row, empty itemset
/// included, with its original (t, f, bot) tallies.
Status ReconstructPatterns(const std::string& path, PatternBuffer* patterns) {
  DIVEXP_ASSIGN_OR_RETURN(
      const std::unique_ptr<serve::PatternTableArtifact> artifact,
      serve::PatternTableArtifact::Open(
          path, serve::ArtifactValidation::kFull));
  const serve::TableView& view = artifact->view();
  *patterns = PatternBuffer();
  patterns->Reserve(view.size(), view.items.size());
  for (size_t i = 0; i < view.size(); ++i) {
    patterns->Append(view.row_items(i), view.counts(i));
  }
  return Status::OK();
}

ShardAttemptResult FailAttempt(Status status) {
  ShardAttemptResult out;
  out.status = std::move(status);
  return out;
}

ShardAttemptResult RunProcessAttempt(const ProcessIsolationOptions& options,
                                     const ShardAttemptContext& ctx) {
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Default();
  if (options.scratch_dir.empty()) {
    return FailAttempt(Status::InvalidArgument(
        "process isolation requires a scratch directory"));
  }
  Status dir = recovery::EnsureDirectory(options.scratch_dir);
  if (!dir.ok()) return FailAttempt(std::move(dir));

  const std::string tag = "shard_" + std::to_string(ctx.shard) +
                          "_attempt_" + std::to_string(ctx.attempt);
  WorkerSpec spec;
  spec.shard = ctx.shard;
  spec.attempt = ctx.attempt;
  spec.expected_fingerprint = ctx.fingerprint;
  spec.timeout_ms = ctx.timeout_ms;
  spec.heartbeat_interval_ms = options.heartbeat_interval_ms;
  spec.result_path = options.scratch_dir + "/" + tag + ".tbl";
  spec.failpoints =
      options.failpoint_schedule
          ? options.failpoint_schedule(ctx.shard, ctx.attempt)
          : options.failpoints;
  spec.base = *ctx.base;
  // Hook fields cannot cross the process line; the worker runs its own
  // guard from the serialized limits/timeout.
  spec.base.guard = nullptr;
  spec.data = *ctx.data;
  spec.outcomes = *ctx.outcomes;

  ScratchCleaner cleaner;
  const std::string spec_path = options.scratch_dir + "/" + tag + ".spec";
  cleaner.Add(spec_path);
  cleaner.Add(spec.result_path);
  Status wrote = WriteWorkerSpec(spec_path, spec);
  if (!wrote.ok()) return FailAttempt(std::move(wrote));

  std::string exe = options.worker_exe;
  if (exe.empty()) exe = SelfExecutablePath();
  if (exe.empty()) {
    return FailAttempt(Status::Internal(
        "cannot locate the worker executable (set worker_exe)"));
  }

  Result<ChildProcess> spawned = SpawnWithStatusPipe(
      {exe, "shard-worker", "--spec=" + spec_path,
       "--status-fd=" + std::to_string(kWorkerStatusFd)},
      kWorkerStatusFd);
  if (!spawned.ok()) return FailAttempt(spawned.status());
  reg.GetCounter("shard.proc.spawned")->Add(1);
  WorkerHandle worker(*spawned);

  const bool supervise_heartbeat = options.heartbeat_interval_ms > 0 &&
                                   options.heartbeat_timeout_ms > 0;
  const Clock::time_point forever = Clock::time_point::max();
  Clock::time_point heartbeat_deadline =
      supervise_heartbeat
          ? Clock::now() +
                std::chrono::milliseconds(options.heartbeat_timeout_ms)
          : forever;
  const Clock::time_point watchdog_deadline =
      options.watchdog_ms > 0
          ? Clock::now() + std::chrono::milliseconds(options.watchdog_ms)
          : forever;
  RunGuard* guard = ctx.base != nullptr ? ctx.base->guard : nullptr;

  FrameReader reader;
  bool have_result = false;
  bool have_fatal = false;
  Frame result_frame;
  Frame fatal_frame;
  bool killed = false;
  Status kill_reason;

  auto kill_worker = [&](Status reason) {
    if (killed) return;
    killed = true;
    kill_reason = std::move(reason);
    worker.Kill();
    reg.GetCounter("shard.proc.killed")->Add(1);
  };

  for (;;) {
    if (!killed && guard != nullptr && guard->cancel_requested()) {
      kill_worker(guard->ToStatus());
    }
    const Clock::time_point now = Clock::now();
    if (!killed && now >= heartbeat_deadline) {
      reg.GetCounter("shard.proc.heartbeat_timeouts")->Add(1);
      kill_worker(Status::Internal(
          "shard worker missed its heartbeat deadline (" +
          std::to_string(options.heartbeat_timeout_ms) + " ms silent)"));
    }
    if (!killed && now >= watchdog_deadline) {
      kill_worker(Status::Internal(
          "shard worker exceeded the attempt watchdog (" +
          std::to_string(options.watchdog_ms) + " ms)"));
    }

    // Wake at least every 100 ms for the cancel check, earlier when a
    // deadline is nearer; a killed worker only needs the EOF drain.
    int timeout_ms = 100;
    if (!killed) {
      const Clock::time_point next =
          std::min(heartbeat_deadline, watchdog_deadline);
      if (next != forever) {
        const auto left =
            std::chrono::duration_cast<std::chrono::milliseconds>(
                next - Clock::now())
                .count();
        timeout_ms = static_cast<int>(
            std::clamp<long long>(left, 0, timeout_ms));
      }
    }
    struct pollfd pfd;
    pfd.fd = worker.status_fd();
    pfd.events = POLLIN;
    pfd.revents = 0;
    const int rc = ::poll(&pfd, 1, timeout_ms);
    if (rc < 0) {
      if (errno == EINTR) continue;
      kill_worker(Status::IOError("poll on worker status pipe failed"));
      break;
    }
    if (rc == 0) continue;

    char buf[4096];
    Result<size_t> n = ReadSome(worker.status_fd(), buf, sizeof(buf));
    if (!n.ok()) {
      kill_worker(n.status());
      break;
    }
    if (*n == 0) break;  // EOF: the worker is gone; classify via exit.
    reader.Feed(buf, *n);
    for (;;) {
      Result<std::optional<Frame>> next = reader.Next();
      if (!next.ok()) {
        // A corrupt stream from a worker we already killed is expected
        // (death mid-write); otherwise it is the failure itself.
        if (!killed) kill_worker(next.status());
        break;
      }
      if (!next->has_value()) break;
      const Frame& frame = **next;
      if (supervise_heartbeat && !killed) {
        heartbeat_deadline =
            Clock::now() +
            std::chrono::milliseconds(options.heartbeat_timeout_ms);
      }
      switch (frame.type) {
        case FrameType::kHeartbeat:
          reg.GetCounter("shard.proc.heartbeats")->Add(1);
          break;
        case FrameType::kProgress:
        case FrameType::kCheckpointWritten:
          break;
        case FrameType::kResultReady:
          have_result = true;
          result_frame = frame;
          break;
        case FrameType::kFatalStatus:
          have_fatal = true;
          fatal_frame = frame;
          break;
      }
    }
    if (!killed) continue;
    // Killed: drain whatever the pipe still holds, then stop reading.
    // (The loop above already consumed this read's bytes.)
  }

  worker.CloseStatusFd();
  Result<ExitStatus> exited = worker.Reap();
  if (!exited.ok()) return FailAttempt(exited.status());

  ShardAttemptResult out;
  if (killed) {
    out.status = kill_reason;
    return out;
  }
  if (exited->kind == ExitKind::kSignaled) {
    return FailAttempt(Status::Internal(
        "shard worker died on signal " +
        std::to_string(exited->term_signal) +
        (reader.pending_bytes() > 0 ? " mid-frame" : "")));
  }
  if (have_fatal) {
    AbsorbStats(fatal_frame.stats, &out);
    out.status = Status(CodeFromWire(fatal_frame.status_code),
                        fatal_frame.message);
    return out;
  }
  if (exited->exit_code != 0) {
    return FailAttempt(Status::Internal(
        "shard worker exited with code " +
        std::to_string(exited->exit_code)));
  }
  if (!have_result) {
    return FailAttempt(Status::Internal(
        "shard worker exited cleanly without reporting a result"));
  }

  AbsorbStats(result_frame.stats, &out);
  out.fingerprint = result_frame.fingerprint;
  Status reconstructed =
      ReconstructPatterns(result_frame.artifact_path, &out.patterns);
  if (!reconstructed.ok()) {
    out.patterns.Release();
    out.status = std::move(reconstructed);
    return out;
  }
  out.status = Status::OK();
  return out;
}

}  // namespace

ShardAttemptRunner MakeProcessAttemptRunner(
    ProcessIsolationOptions options) {
  return [options](const ShardAttemptContext& ctx) -> ShardAttemptResult {
    try {
      return RunProcessAttempt(options, ctx);
    } catch (const std::exception& e) {
      return FailAttempt(Status::Internal(
          std::string("process attempt runner crashed: ") + e.what()));
    }
  };
}

}  // namespace worker
}  // namespace shard
}  // namespace divexp
