// JSON serialization of observability data, plus a minimal JSON
// parser used to validate emitted files (CLI --metrics-json, the
// benchmarks' BENCH_*.json) against the schema described in
// docs/observability.md. No third-party JSON dependency: the grammar
// we need is small and the parser doubles as a test oracle.
#ifndef DIVEXP_OBS_JSON_H_
#define DIVEXP_OBS_JSON_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "obs/stage.h"
#include "obs/trace.h"
#include "util/status.h"

namespace divexp {
namespace obs {

/// Escapes a string for embedding in JSON (quotes included).
std::string JsonQuote(const std::string& s);

/// Incremental JSON builder. Callers are responsible for well-formed
/// nesting; values are correctly escaped/formatted.
class JsonWriter {
 public:
  JsonWriter& BeginObject();
  JsonWriter& EndObject();
  JsonWriter& BeginArray();
  JsonWriter& EndArray();
  JsonWriter& Key(const std::string& name);
  JsonWriter& Value(const std::string& v);
  JsonWriter& Value(const char* v);
  JsonWriter& Value(double v);
  JsonWriter& Value(uint64_t v);
  JsonWriter& Value(int64_t v);
  JsonWriter& Value(bool v);

  const std::string& str() const { return out_; }

 private:
  void Separate();

  std::string out_;
  /// Whether the current nesting level already holds an element.
  std::vector<bool> has_element_{false};
  bool pending_key_ = false;
};

/// Summary of one exploration run for the metrics report header.
struct RunSummary {
  std::string tool;  ///< e.g. "divexp-cli"
  double elapsed_ms = 0.0;
  uint64_t patterns = 0;
  uint64_t peak_memory_bytes = 0;
  bool truncated = false;
  std::string breach = "none";
  double effective_min_support = 0.0;
  uint64_t escalations = 0;
  // Crash-recovery accounting (schema v2).
  bool resumed_from_checkpoint = false;
  uint64_t checkpoints_written = 0;
  uint64_t checkpoint_bytes = 0;
  uint64_t faults_injected = 0;
  // Sharded-exploration accounting (schema v3). Monolithic runs report
  // shards = 1 and rows_covered_fraction = 1.0.
  uint64_t shards = 1;
  uint64_t shards_failed = 0;
  uint64_t shards_dropped = 0;
  uint64_t shards_stale = 0;
  uint64_t retries_total = 0;
  double rows_covered_fraction = 1.0;
  uint64_t checkpoint_write_failures = 0;
  // Dispatch accounting (schema v4): the miner and kernel that actually
  // ran after kAuto resolution.
  std::string miner = "fpgrowth";
  std::string kernel = "scalar";
  // Isolation accounting (schema v6): where shard attempts executed
  // ("thread", or "process" under --shard-isolation=process).
  std::string shard_isolation = "thread";
};

/// Everything the CLI writes to --metrics-json.
struct MetricsReport {
  RunSummary run;
  std::vector<StageStats> stages;
  MetricsSnapshot metrics;
  std::vector<SpanStats> spans;  ///< empty unless tracing was on
};

/// Schema version written into every report; bump on breaking changes.
/// v2 added the run-level crash-recovery fields (resumed_from_checkpoint,
/// checkpoints_written, checkpoint_bytes, faults_injected).
/// v3 added the sharded-exploration fields (shards, shards_failed,
/// shards_dropped, shards_stale, retries_total, rows_covered_fraction,
/// checkpoint_write_failures).
/// v4 added the dispatch fields (miner, kernel): which mining backend
/// and which hot-loop kernel implementation actually ran.
/// v5 added the serving-layer metric families (serve.queries,
/// serve.errors, serve.cache.hits/misses/evictions,
/// serve.open.mmap, and the per-verb serve.query_us.<type>
/// histograms) emitted by the query daemon; run-summary fields are
/// unchanged.
/// v6 added the run-level shard_isolation field plus the
/// process-supervision metric families (shard.proc.spawned/killed/
/// reaped/heartbeats/heartbeat_timeouts, serve.idle_disconnects).
inline constexpr int kMetricsSchemaVersion = 6;

/// Serializes a full report (schema_version, run, stages, counters,
/// gauges, histograms, spans).
std::string MetricsReportToJson(const MetricsReport& report);

// ---------------------------------------------------------------------
// Minimal JSON value model + recursive-descent parser (objects, arrays,
// strings with \-escapes, numbers, booleans, null).

struct JsonValue {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string string;
  std::vector<JsonValue> array;
  std::map<std::string, JsonValue> object;

  bool is_object() const { return kind == Kind::kObject; }
  bool is_array() const { return kind == Kind::kArray; }
  bool is_number() const { return kind == Kind::kNumber; }
  bool is_string() const { return kind == Kind::kString; }

  /// Member lookup; nullptr when absent or not an object.
  const JsonValue* Find(const std::string& key) const;
};

/// Parses a complete JSON document (trailing garbage is an error).
Result<JsonValue> ParseJson(const std::string& text);

// ---------------------------------------------------------------------
// Schema validation. Both return OK iff the document matches the
// published schema; the message of a failed Status names the first
// violated rule.

/// Validates a --metrics-json document: schema_version, run summary,
/// a non-empty stages array whose entries carry name/wall_ms/items/
/// peak_bytes/guard_checks/calls, and counters/gauges/histograms maps.
/// When `required_stages` is non-empty, each named stage must be
/// present with wall_ms > 0.
Status ValidateMetricsJson(
    const std::string& text,
    const std::vector<std::string>& required_stages = {});

/// Validates a BENCH_*.json document emitted by the benchmark hook:
/// schema_version, benchmark name, and a non-empty records array whose
/// entries carry name/dataset/min_support/wall_ms/patterns.
Status ValidateBenchJson(const std::string& text);

}  // namespace obs
}  // namespace divexp

#endif  // DIVEXP_OBS_JSON_H_
