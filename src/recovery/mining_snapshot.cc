#include "recovery/mining_snapshot.h"

#include "recovery/snapshot_file.h"

namespace divexp {
namespace recovery {
namespace {

constexpr uint64_t kFnvOffset = 0xcbf29ce484222325ull;
constexpr uint64_t kFnvPrime = 0x100000001b3ull;

uint64_t FnvMix(uint64_t hash, uint64_t v) {
  for (size_t i = 0; i < 8; ++i) {
    hash ^= (v >> (8 * i)) & 0xFF;
    hash *= kFnvPrime;
  }
  return hash;
}

Result<MinerKind> MinerKindFromU32(uint32_t v) {
  switch (v) {
    case 0:
      return MinerKind::kFpGrowth;
    case 1:
      return MinerKind::kApriori;
    case 2:
      return MinerKind::kEclat;
  }
  return Status::InvalidArgument("snapshot has unknown miner kind " +
                                 std::to_string(v));
}

// One pattern as the snapshot stores it: its items as a u32 vector
// (PutU32Vector's layout), then (t, f, bot).
void PutPattern(ByteWriter* w, const PatternBuffer& patterns, size_t p) {
  const ItemSpan items = patterns.row_items(p);
  w->PutU64(items.size());
  for (const uint32_t item : items) w->PutU32(item);
  const OutcomeCounts counts = patterns.counts(p);
  w->PutU64(counts.t);
  w->PutU64(counts.f);
  w->PutU64(counts.bot);
}

uint32_t MinerKindToU32(MinerKind kind) {
  switch (kind) {
    case MinerKind::kFpGrowth:
      return 0;
    case MinerKind::kApriori:
      return 1;
    case MinerKind::kEclat:
      return 2;
    case MinerKind::kAuto:
      // Callers snapshot the resolved plan, never kAuto; map it to the
      // default so a stray value still round-trips to a valid kind.
      return 0;
  }
  return 0;
}

}  // namespace

uint64_t DatasetFingerprint(const TransactionDatabase& db) {
  uint64_t hash = kFnvOffset;
  hash = FnvMix(hash, db.num_rows());
  hash = FnvMix(hash, db.num_attributes());
  hash = FnvMix(hash, db.num_items());
  for (size_t r = 0; r < db.num_rows(); ++r) {
    const uint32_t* row = db.row(r);
    for (size_t a = 0; a < db.num_attributes(); ++a) {
      hash = FnvMix(hash, row[a]);
    }
    hash = FnvMix(hash, static_cast<uint64_t>(db.outcome(r)));
  }
  return hash;
}

std::string SerializeMiningState(const MiningStateSnapshot& state) {
  ByteWriter w;
  w.PutU64(state.fingerprint);
  w.PutU32(MinerKindToU32(state.miner));
  w.PutF64(state.min_support);
  w.PutU64(state.max_length);
  w.PutU64(state.num_units);
  w.PutU64(state.units.size());
  for (const auto& [unit, patterns] : state.units) {
    w.PutU64(unit);
    w.PutU64(patterns.size());
    for (size_t p = 0; p < patterns.size(); ++p) {
      PutPattern(&w, patterns, p);
    }
  }
  return w.Take();
}

Result<MiningStateSnapshot> DeserializeMiningState(
    const std::string& payload) {
  ByteReader r(payload);
  MiningStateSnapshot state;
  DIVEXP_ASSIGN_OR_RETURN(state.fingerprint, r.GetU64());
  DIVEXP_ASSIGN_OR_RETURN(const uint32_t kind, r.GetU32());
  DIVEXP_ASSIGN_OR_RETURN(state.miner, MinerKindFromU32(kind));
  DIVEXP_ASSIGN_OR_RETURN(state.min_support, r.GetF64());
  DIVEXP_ASSIGN_OR_RETURN(state.max_length, r.GetU64());
  DIVEXP_ASSIGN_OR_RETURN(state.num_units, r.GetU64());
  DIVEXP_ASSIGN_OR_RETURN(const uint64_t num_completed, r.GetU64());
  for (uint64_t u = 0; u < num_completed; ++u) {
    DIVEXP_ASSIGN_OR_RETURN(const uint64_t unit, r.GetU64());
    if (state.units.count(unit) > 0) {
      return Status::InvalidArgument("snapshot repeats unit " +
                                     std::to_string(unit));
    }
    DIVEXP_ASSIGN_OR_RETURN(const uint64_t num_patterns, r.GetU64());
    // Each serialized pattern takes >= 32 bytes (empty items vector +
    // three counters), so an absurd count is caught before reserving.
    if (num_patterns > r.remaining() / 32) {
      return Status::OutOfRange("snapshot unit " + std::to_string(unit) +
                                " claims " + std::to_string(num_patterns) +
                                " patterns, more than the payload holds");
    }
    PatternBuffer patterns;
    patterns.Reserve(num_patterns, 0);
    std::vector<uint32_t> items;
    for (uint64_t p = 0; p < num_patterns; ++p) {
      OutcomeCounts counts;
      DIVEXP_RETURN_NOT_OK(r.GetU32Vector(&items));
      DIVEXP_ASSIGN_OR_RETURN(counts.t, r.GetU64());
      DIVEXP_ASSIGN_OR_RETURN(counts.f, r.GetU64());
      DIVEXP_ASSIGN_OR_RETURN(counts.bot, r.GetU64());
      patterns.Append(items, counts);
    }
    state.units.emplace(unit, std::move(patterns));
  }
  if (!r.empty()) {
    return Status::InvalidArgument(
        "snapshot has " + std::to_string(r.remaining()) +
        " trailing bytes after the last unit");
  }
  return state;
}

Status SaveMiningState(const std::string& path,
                       const MiningStateSnapshot& state,
                       uint64_t* bytes_written) {
  const std::string payload = SerializeMiningState(state);
  DIVEXP_RETURN_NOT_OK(
      WriteSnapshotFile(path, SnapshotKind::kMiningState, payload));
  if (bytes_written != nullptr) {
    *bytes_written = kSnapshotHeaderSize + payload.size();
  }
  return Status::OK();
}

Status SaveMiningStateChunked(const std::string& path,
                              const MiningStateSnapshot& state,
                              uint64_t* bytes_written, RunGuard* guard) {
  DIVEXP_ASSIGN_OR_RETURN(std::unique_ptr<SnapshotFileWriter> writer,
                          SnapshotFileWriter::Create(
                              path, SnapshotKind::kMiningState));
  ByteWriter chunk;
  const auto flush = [&]() -> Status {
    const std::string bytes = chunk.Take();
    chunk = ByteWriter();
    if (guard != nullptr) guard->AddMemory(bytes.size());
    const Status appended = writer->Append(bytes);
    if (guard != nullptr) guard->SubMemory(bytes.size());
    return appended;
  };
  // Field order mirrors SerializeMiningState exactly; chunk boundaries
  // are invisible in the output, so the two writers stay bit-identical
  // (asserted by StreamingSnapshotTest).
  chunk.PutU64(state.fingerprint);
  chunk.PutU32(MinerKindToU32(state.miner));
  chunk.PutF64(state.min_support);
  chunk.PutU64(state.max_length);
  chunk.PutU64(state.num_units);
  chunk.PutU64(state.units.size());
  for (const auto& [unit, patterns] : state.units) {
    chunk.PutU64(unit);
    chunk.PutU64(patterns.size());
    for (size_t p = 0; p < patterns.size(); ++p) {
      PutPattern(&chunk, patterns, p);
      if (chunk.data().size() >= kSnapshotChunkBytes) {
        DIVEXP_RETURN_NOT_OK(flush());
      }
    }
    if (chunk.data().size() >= kSnapshotChunkBytes) {
      DIVEXP_RETURN_NOT_OK(flush());
    }
  }
  DIVEXP_RETURN_NOT_OK(flush());
  DIVEXP_RETURN_NOT_OK(writer->Commit());
  if (bytes_written != nullptr) {
    *bytes_written = kSnapshotHeaderSize + writer->payload_size();
  }
  return Status::OK();
}

Result<MiningStateSnapshot> LoadMiningState(const std::string& path) {
  DIVEXP_ASSIGN_OR_RETURN(
      const std::string payload,
      ReadSnapshotFile(path, SnapshotKind::kMiningState));
  return DeserializeMiningState(payload);
}

}  // namespace recovery
}  // namespace divexp
