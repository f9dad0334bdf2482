#include "shard/worker/worker.h"

#include <charconv>
#include <chrono>
#include <condition_variable>
#include <csignal>
#include <cstdio>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/pattern.h"
#include "fpm/miner.h"
#include "fpm/transactions.h"
#include "obs/stage.h"
#include "recovery/mining_snapshot.h"
#include "serve/artifact.h"
#include "shard/unit.h"
#include "shard/worker/protocol.h"
#include "util/failpoint.h"
#include "util/status.h"

namespace divexp {
namespace shard {
namespace worker {
namespace {

/// Serializes frame writes: the heartbeat thread and the attempt's
/// final result share one pipe, and an interleaved write would corrupt
/// the stream mid-frame.
///
/// Deliberately a plain std::mutex, not divexp::Mutex: the worker
/// writes frames while the lock is held (blocking IO under the lock
/// is the whole point — the pipe is the serialization domain), and it
/// never nests with any lock in the canonical hierarchy of
/// docs/static-analysis.md. Keeping it off divexp::Mutex keeps it out
/// of the lock-order passes and the runtime cycle detector, both of
/// which track divexp::Mutex only.
class FrameSender {
 public:
  explicit FrameSender(int fd) : fd_(fd) {}

  Status Send(const Frame& frame) {
    std::lock_guard<std::mutex> lock(mu_);
    return WriteFrame(fd_, frame);
  }

 private:
  int fd_;
  std::mutex mu_;
};

/// Background heartbeat: one kHeartbeat frame per interval until
/// stopped. The `shard.worker.heartbeat` failpoint fires before each
/// send — a delay action stalls the beat (the coordinator's
/// heartbeat-timeout chaos scenario) and any error action silences it
/// for good; either way mining itself continues untouched.
class Heartbeater {
 public:
  Heartbeater(FrameSender* sender, uint64_t interval_ms)
      : sender_(sender), interval_ms_(interval_ms) {
    if (interval_ms_ > 0) thread_ = std::thread([this] { Run(); });
  }

  ~Heartbeater() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    cv_.notify_all();
    if (thread_.joinable()) thread_.join();
  }

 private:
  void Run() {
    uint64_t seq = 0;
    for (;;) {
      FailPointRegistry& reg = FailPointRegistry::Default();
      if (reg.armed()) {
        try {
          if (!reg.Hit("shard.worker.heartbeat").ok()) return;
        } catch (const std::exception&) {
          return;
        }
      }
      Frame beat;
      beat.type = FrameType::kHeartbeat;
      beat.value = ++seq;
      if (!sender_->Send(beat).ok()) return;
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait_for(lock, std::chrono::milliseconds(interval_ms_),
                   [this] { return stop_; });
      if (stop_) return;
    }
  }

  FrameSender* sender_;
  uint64_t interval_ms_;
  std::thread thread_;
  /// Plain std::mutex by design: it pairs with the condition variable
  /// below (divexp::Mutex has no cv integration) and the wait_for is
  /// the one sanctioned "block while holding" — it releases the lock
  /// for the duration. Never nests with any hierarchy lock.
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
};

FrameStats StatsFrom(const ShardAttemptResult& result) {
  FrameStats stats;
  stats.resumed = result.resumed;
  stats.checkpoints_written = result.checkpoints_written;
  stats.checkpoint_bytes = result.checkpoint_bytes;
  stats.checkpoint_write_failures = result.checkpoint_write_failures;
  stats.checkpoint_error_code =
      static_cast<uint32_t>(result.checkpoint_write_error.code());
  stats.checkpoint_error_message = result.checkpoint_write_error.message();
  stats.peak_memory_bytes = result.peak_memory_bytes;
  return stats;
}

/// Reports a failure in-band and on stderr; returns the exit code.
/// Attempt-level failures (the coordinator's retry loop handles them)
/// exit 0; infrastructure failures exit 1.
int ReportFatal(FrameSender* sender, const Status& status,
                const FrameStats& stats, int exit_code) {
  Frame fatal;
  fatal.type = FrameType::kFatalStatus;
  fatal.status_code = static_cast<uint32_t>(status.code());
  fatal.message = status.message();
  fatal.stats = stats;
  // Best-effort: a dead pipe means the coordinator is gone and already
  // classifying our exit on its own.
  (void)sender->Send(fatal);
  std::fprintf(stderr, "divexp shard-worker: %s\n",
               status.message().c_str());
  return exit_code;
}

}  // namespace

int ShardWorkerMain(const std::vector<std::string>& args) {
  // A coordinator death must surface as a failed frame write (EPIPE),
  // not a silent SIGPIPE kill, so the worker can stop cleanly.
  std::signal(SIGPIPE, SIG_IGN);

  std::string spec_path;
  int status_fd = 3;
  for (const std::string& arg : args) {
    if (arg.rfind("--spec=", 0) == 0) {
      spec_path = arg.substr(7);
    } else if (arg.rfind("--status-fd=", 0) == 0) {
      // Strict: "abc" must be rejected, not read as fd 0 (stdin).
      const char* first = arg.c_str() + 12;
      const char* last = arg.c_str() + arg.size();
      const auto [end, ec] = std::from_chars(first, last, status_fd);
      if (first == last || ec != std::errc() || end != last) {
        std::fprintf(stderr,
                     "divexp shard-worker: bad value for --status-fd: "
                     "'%s'\n",
                     first);
        return 2;
      }
    } else {
      std::fprintf(stderr,
                   "divexp shard-worker: unknown argument '%s'\n",
                   arg.c_str());
      return 2;
    }
  }
  if (spec_path.empty() || status_fd < 0) {
    std::fprintf(stderr,
                 "usage: divexp shard-worker --spec=<path> "
                 "[--status-fd=<fd>]\n");
    return 2;
  }

  FrameSender sender(status_fd);

  Result<WorkerSpec> spec = ReadWorkerSpec(spec_path);
  if (!spec.ok()) {
    return ReportFatal(&sender, spec.status(), FrameStats{}, 1);
  }

  if (!spec->failpoints.empty()) {
#if defined(DIVEXP_FAILPOINTS_ENABLED)
    const Status armed = FailPointRegistry::Default().Arm(spec->failpoints);
    if (!armed.ok()) return ReportFatal(&sender, armed, FrameStats{}, 1);
#else
    return ReportFatal(
        &sender,
        Status::InvalidArgument(
            "worker spec carries a failpoint schedule but this binary "
            "was built without DIVEXP_ENABLE_FAILPOINTS"),
        FrameStats{}, 1);
#endif
  }

  Result<TransactionDatabase> db = TransactionDatabase::Create(
      spec->data, std::vector<Outcome>(spec->outcomes));
  if (!db.ok()) return ReportFatal(&sender, db.status(), FrameStats{}, 1);

  // Refuse to mine a slice that is not the one the coordinator
  // fingerprinted — a corrupted or mismatched spec must never
  // contribute silently wrong tallies.
  const uint64_t fingerprint = recovery::DatasetFingerprint(*db);
  if (fingerprint != spec->expected_fingerprint) {
    return ReportFatal(
        &sender,
        Status::InvalidArgument(
            "worker dataset fingerprint mismatch: spec promises " +
            std::to_string(spec->expected_fingerprint) + ", slice hashes " +
            std::to_string(fingerprint)),
        FrameStats{}, 1);
  }

  // The coordinator wrote its resolved plan into the spec, so this
  // resolves to the same miner, kernel and thread count.
  Result<MiningSetup> mining = ResolveMining(spec->data, spec->base);
  if (!mining.ok()) {
    return ReportFatal(&sender, mining.status(), FrameStats{}, 1);
  }

  ShardAttemptParams params;
  params.shard = spec->shard;
  params.attempt = spec->attempt;
  params.fingerprint = spec->expected_fingerprint;
  params.timeout_ms = spec->timeout_ms;

  ShardAttemptResult result;
  {
    Heartbeater heartbeat(&sender, spec->heartbeat_interval_ms);
    obs::StageCollector stages;
    result = RunShardAttempt(*db, spec->base, *mining, params, &stages);
  }

  const FrameStats stats = StatsFrom(result);
  if (!result.status.ok()) {
    // The attempt itself failed; that is the coordinator's retry
    // loop's business, reported in-band with a clean exit.
    return ReportFatal(&sender, result.status, stats, 0);
  }

  if (result.checkpoints_written > 0) {
    Frame ckpt;
    ckpt.type = FrameType::kCheckpointWritten;
    ckpt.value = result.checkpoints_written;
    (void)sender.Send(ckpt);
  }
  Frame progress;
  progress.type = FrameType::kProgress;
  progress.value = result.patterns.size();
  (void)sender.Send(progress);

  // Persist the contribution as a serving artifact; Create puts it in
  // the canonical order the artifact stores.
  const uint64_t num_patterns = result.patterns.size();
  Result<PatternTable> table =
      PatternTable::Create(std::move(result.patterns), spec->data.catalog,
                           db->num_rows());
  if (!table.ok()) return ReportFatal(&sender, table.status(), stats, 1);
  const Status written =
      serve::WritePatternTableArtifact(spec->result_path, *table);
  if (!written.ok()) return ReportFatal(&sender, written, stats, 1);

  Frame done;
  done.type = FrameType::kResultReady;
  done.value = num_patterns;
  done.fingerprint = result.fingerprint;
  done.artifact_path = spec->result_path;
  done.stats = stats;
  const Status sent = sender.Send(done);
  if (!sent.ok()) {
    std::fprintf(stderr, "divexp shard-worker: %s\n",
                 sent.message().c_str());
    return 1;
  }
  return 0;
}

}  // namespace worker
}  // namespace shard
}  // namespace divexp
