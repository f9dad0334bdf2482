// Checkpointer: the MiningCheckpointSink implementation backing
// --checkpoint-dir / --resume.
//
// One Checkpointer covers one exploration (all escalation attempts).
// It owns <dir>/mining.ckpt: a kMiningState snapshot holding every
// completed unit of the attempt in flight. Snapshot writes are
// crash-safe (write-temp/fsync/rename, CRC-checked on load) and
// best-effort: a failed write is remembered in last_write_error() but
// never interrupts mining — availability of the run beats durability
// of the checkpoint.
//
// Cadence: a snapshot is written when a unit completes and (a)
// every_ms milliseconds have passed since the last write (0 = write
// after every unit), or (b) the attached RunGuard has stopped — so the
// state that a LimitBreach is about to truncate is captured first. The
// explorer additionally calls Flush() on its truncation paths.
#ifndef DIVEXP_RECOVERY_CHECKPOINT_H_
#define DIVEXP_RECOVERY_CHECKPOINT_H_

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "fpm/miner.h"
#include "recovery/mining_snapshot.h"
#include "util/mutex.h"
#include "util/run_guard.h"
#include "util/status.h"
#include "util/stopwatch.h"
#include "util/thread_annotations.h"

namespace divexp {
namespace recovery {

struct CheckpointerOptions {
  /// Directory for snapshot files; created if missing.
  std::string dir;
  /// Minimum milliseconds between snapshot writes; 0 = snapshot after
  /// every completed unit.
  uint64_t every_ms = 0;
  /// Load an existing <dir>/mining.ckpt at Create. A missing file means
  /// a fresh run; a corrupt or unreadable file is an error (a resume
  /// request must never silently remine what it was asked to restore).
  bool resume = false;
};

class Checkpointer final : public MiningCheckpointSink {
 public:
  static Result<std::unique_ptr<Checkpointer>> Create(
      const CheckpointerOptions& options);

  const std::string& snapshot_path() const { return path_; }

  /// True when Create loaded an existing snapshot that has not yet been
  /// consumed by a matching attempt.
  bool has_pending_snapshot() const { return loaded_.has_value(); }

  /// Starts an attempt with the given mining parameters; resets the
  /// unit state. When a loaded snapshot matches (fingerprint, miner,
  /// max_length, bit-equal min_support) its units become restorable and
  /// true is returned. A min_support-only mismatch keeps the snapshot
  /// pending (a later escalation attempt may reach its support); any
  /// other mismatch discards it — or, with `strict` (the first attempt
  /// of a --resume run), returns a descriptive error instead.
  Result<bool> BeginAttempt(uint64_t fingerprint, MinerKind miner,
                            double min_support, uint64_t max_length,
                            bool strict) EXCLUDES(mu_);

  /// Attaches the run's guard so a breach forces the next unit's
  /// snapshot regardless of cadence. Non-owning; may be nullptr.
  void AttachGuard(RunGuard* guard) { guard_ = guard; }

  // MiningCheckpointSink:
  void BeginRun(size_t num_units) override EXCLUDES(mu_);
  const PatternBuffer* RestoredUnit(size_t unit) override EXCLUDES(mu_);
  void UnitMined(size_t unit, const PatternBuffer& patterns) override
      EXCLUDES(mu_);
  Status Flush() override EXCLUDES(mu_);

  /// True when any attempt of this run restored units from a snapshot.
  bool resumed() const EXCLUDES(mu_);
  /// Restored non-empty patterns of the current attempt (for budget
  /// accounting via MineControl::RestorePriorEmissions).
  uint64_t restored_pattern_count() const EXCLUDES(mu_);
  uint64_t checkpoints_written() const EXCLUDES(mu_);
  /// Cumulative bytes of all snapshot files written.
  uint64_t checkpoint_bytes() const EXCLUDES(mu_);
  /// First snapshot write failure of the run, if any (mining is never
  /// interrupted by one). The message carries the snapshot path and the
  /// underlying errno text so a retry/warning layer need not
  /// reconstruct them.
  Status last_write_error() const EXCLUDES(mu_);
  /// Total snapshot writes that failed (each interval may fail once;
  /// the CLI warns once for the whole run, with this count).
  uint64_t write_failures() const EXCLUDES(mu_);

 private:
  explicit Checkpointer(const CheckpointerOptions& options);

  /// Writes the current state.
  Status WriteLocked() REQUIRES(mu_);

  std::string path_;
  uint64_t every_ms_ = 0;
  RunGuard* guard_ = nullptr;

  /// Snapshot loaded at Create, pending until an attempt matches it.
  /// Only touched by BeginAttempt (coordinating thread) under mu_.
  std::optional<MiningStateSnapshot> loaded_ GUARDED_BY(mu_);
  /// Units restored into the current attempt. Written only by
  /// BeginAttempt/BeginRun between runs; RestoredUnit hands out
  /// pointers into the map, which std::map keeps stable until the next
  /// BeginAttempt clears it (documented in MiningCheckpointSink).
  std::map<uint64_t, PatternBuffer> restored_ GUARDED_BY(mu_);
  bool resumed_ GUARDED_BY(mu_) = false;

  mutable Mutex mu_;
  MiningStateSnapshot state_ GUARDED_BY(mu_);  ///< completed units
  bool dirty_ GUARDED_BY(mu_) = false;
  Stopwatch since_write_ GUARDED_BY(mu_);
  bool wrote_once_ GUARDED_BY(mu_) = false;
  uint64_t writes_ GUARDED_BY(mu_) = 0;
  uint64_t bytes_written_ GUARDED_BY(mu_) = 0;
  uint64_t write_failures_ GUARDED_BY(mu_) = 0;
  Status write_error_ GUARDED_BY(mu_);
};

}  // namespace recovery
}  // namespace divexp

#endif  // DIVEXP_RECOVERY_CHECKPOINT_H_
