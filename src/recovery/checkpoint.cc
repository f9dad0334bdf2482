#include "recovery/checkpoint.h"

#include <cstring>
#include <utility>

#include "obs/metrics.h"
#include "recovery/atomic_file.h"

namespace divexp {
namespace recovery {
namespace {

/// Bit-exact double comparison: an attempt restores only onto the very
/// support threshold it was snapshotted with.
bool BitEqual(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

}  // namespace

Checkpointer::Checkpointer(const CheckpointerOptions& options)
    : path_(options.dir + "/mining.ckpt"), every_ms_(options.every_ms) {}

Result<std::unique_ptr<Checkpointer>> Checkpointer::Create(
    const CheckpointerOptions& options) {
  if (options.dir.empty()) {
    return Status::InvalidArgument("checkpoint directory must be set");
  }
  DIVEXP_RETURN_NOT_OK(EnsureDirectory(options.dir));
  std::unique_ptr<Checkpointer> cp(new Checkpointer(options));
  if (options.resume && FileExists(cp->path_)) {
    DIVEXP_ASSIGN_OR_RETURN(MiningStateSnapshot loaded,
                            LoadMiningState(cp->path_));
    MutexLock lock(cp->mu_);
    cp->loaded_ = std::move(loaded);
  }
  return cp;
}

Result<bool> Checkpointer::BeginAttempt(uint64_t fingerprint,
                                        MinerKind miner, double min_support,
                                        uint64_t max_length, bool strict) {
  MutexLock lock(mu_);
  restored_.clear();
  state_ = MiningStateSnapshot{};
  state_.fingerprint = fingerprint;
  state_.miner = miner;
  state_.min_support = min_support;
  state_.max_length = max_length;
  dirty_ = false;

  if (!loaded_.has_value()) return false;
  std::string mismatch;
  if (loaded_->fingerprint != fingerprint) {
    mismatch = "was taken from a different dataset";
  } else if (loaded_->miner != miner) {
    mismatch = std::string("was mined with ") +
               MinerKindName(loaded_->miner) + ", this run uses " +
               MinerKindName(miner);
  } else if (loaded_->max_length != max_length) {
    mismatch = "was mined with max_length " +
               std::to_string(loaded_->max_length) + ", this run uses " +
               std::to_string(max_length);
  }
  if (!mismatch.empty()) {
    if (strict) {
      return Status::InvalidArgument("cannot resume: snapshot '" + path_ +
                                     "' " + mismatch);
    }
    loaded_.reset();
    return false;
  }
  if (!BitEqual(loaded_->min_support, min_support)) {
    // A snapshot of an escalated attempt stays pending: the escalation
    // ladder may reach its support on a later attempt.
    return false;
  }
  restored_ = std::move(loaded_->units);
  loaded_.reset();
  state_.units = restored_;
  resumed_ = true;
  obs::MetricsRegistry::Default()
      .GetCounter("recovery.resume.units")
      ->Add(restored_.size());
  return !restored_.empty();
}

void Checkpointer::BeginRun(size_t num_units) {
  MutexLock lock(mu_);
  state_.num_units = num_units;
  if (num_units > 0) {
    // Defensive: a matching snapshot always agrees on the unit count,
    // but never restore a unit the run cannot have.
    restored_.erase(restored_.lower_bound(num_units), restored_.end());
    state_.units.erase(state_.units.lower_bound(num_units),
                       state_.units.end());
  }
}

const PatternBuffer* Checkpointer::RestoredUnit(size_t unit) {
  // Workers call this concurrently; the map itself is only mutated
  // between runs, but the lookup takes mu_ anyway (once per unit, far
  // off the hot path) so the capability analysis can prove it.
  MutexLock lock(mu_);
  const auto it = restored_.find(unit);
  return it == restored_.end() ? nullptr : &it->second;
}

bool Checkpointer::resumed() const {
  MutexLock lock(mu_);
  return resumed_;
}

uint64_t Checkpointer::restored_pattern_count() const {
  MutexLock lock(mu_);
  uint64_t n = 0;
  for (const auto& [unit, patterns] : restored_) n += patterns.size();
  return n;
}

uint64_t Checkpointer::checkpoints_written() const {
  MutexLock lock(mu_);
  return writes_;
}

uint64_t Checkpointer::checkpoint_bytes() const {
  MutexLock lock(mu_);
  return bytes_written_;
}

void Checkpointer::UnitMined(size_t unit, const PatternBuffer& patterns) {
  MutexLock lock(mu_);
  state_.units[unit] = patterns;
  dirty_ = true;
  const bool cadence_due =
      every_ms_ == 0 || !wrote_once_ || since_write_.Millis() >= every_ms_;
  const bool breach_pending = guard_ != nullptr && guard_->stopped();
  if (cadence_due || breach_pending) {
    const Status status = WriteLocked();
    if (!status.ok() && write_error_.ok()) write_error_ = status;
  }
}

Status Checkpointer::Flush() {
  MutexLock lock(mu_);
  if (!dirty_) return Status::OK();
  const Status status = WriteLocked();
  if (!status.ok() && write_error_.ok()) write_error_ = status;
  return status;
}

Status Checkpointer::WriteLocked() {
  uint64_t bytes = 0;
  // Streaming writer: peak memory during a checkpoint is O(chunk), not
  // O(payload), and the in-flight chunk is charged to the run's guard.
  const Status saved = SaveMiningStateChunked(path_, state_, &bytes, guard_);
  if (!saved.ok()) {
    ++write_failures_;
    obs::MetricsRegistry::Default()
        .GetCounter("recovery.checkpoint.write_failures")
        ->Add(1);
    // Keep the low-level errno message but name the snapshot and the
    // write ordinal so a retrying caller (the shard driver, an
    // operator reading the warning) knows exactly which checkpoint is
    // failing and how persistently.
    return Status(saved.code(), "checkpoint snapshot '" + path_ +
                                    "' (write attempt " +
                                    std::to_string(write_failures_) +
                                    "): " + saved.message());
  }
  dirty_ = false;
  wrote_once_ = true;
  since_write_.Restart();
  ++writes_;
  bytes_written_ += bytes;
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Default();
  reg.GetCounter("recovery.checkpoint.writes")->Add(1);
  reg.GetCounter("recovery.checkpoint.bytes")
      ->Add(bytes);
  return Status::OK();
}

Status Checkpointer::last_write_error() const {
  MutexLock lock(mu_);
  return write_error_;
}

uint64_t Checkpointer::write_failures() const {
  MutexLock lock(mu_);
  return write_failures_;
}

}  // namespace recovery
}  // namespace divexp
