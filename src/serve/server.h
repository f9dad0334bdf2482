// The serving front end: a line protocol over the core table analyses
// (top-k, lattice, Shapley, corrective; core/pattern.h), run on the
// artifact's TableView with per-query RunGuard budgets and the sharded
// result cache.
//
// Protocol (one request per line, one JSON object per response line):
//
//   topk [k=10] [key=divergence|significance|support] [order=desc|asc]
//        [min_support=0] [min_len=1] [max_len=0]
//   browse items=attr=val[,attr=val...]
//   shapley items=attr=val[,attr=val...]
//   corrective [k=10] [min_factor=0]
//   stats
//   quit
//
// Responses are {"ok":true,...} or {"ok":false,"code":...,"error":...}.
// Requests are canonicalized (defaults filled, arguments ordered,
// itemsets resolved to sorted item ids) before execution; the cache key
// is the artifact fingerprint plus that canonical form, so equivalent
// spellings of a query share one cache entry and a cache can never
// serve results from a different table. See docs/serving.md.
//
// QueryService::HandleLine is thread-safe against itself: the table
// view is immutable, each call arms its own RunGuard, and the cache is
// internally sharded. One service instance is shared by every server
// thread over one shared mapping.
#ifndef DIVEXP_SERVE_SERVER_H_
#define DIVEXP_SERVE_SERVER_H_

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "serve/artifact.h"
#include "serve/cache.h"
#include "util/mutex.h"
#include "util/run_guard.h"
#include "util/status.h"
#include "util/stopwatch.h"
#include "util/thread_annotations.h"

namespace divexp {

namespace obs {
class Counter;
class Histogram;
}  // namespace obs

namespace serve {

struct QueryServiceOptions {
  /// Budget armed on a fresh RunGuard for every query; a breach turns
  /// into an {"ok":false} response, never a wedged thread.
  RunLimits limits;
  ResultCacheOptions cache;
  bool cache_enabled = true;
};

/// Stateless-per-request query dispatcher; shared across threads.
class QueryService {
 public:
  QueryService(const ServingTable* table,
               const QueryServiceOptions& options = {});

  QueryService(const QueryService&) = delete;
  QueryService& operator=(const QueryService&) = delete;

  /// Parses, canonicalizes, executes (or serves from cache) one request
  /// line and returns the one-line JSON response. Never throws, never
  /// returns an empty string. Thread-safe.
  std::string HandleLine(const std::string& line);

  ResultCache& cache() { return cache_; }

 private:
  /// Canonicalized request: resolved verb + the exact string cached
  /// under (empty for uncacheable verbs).
  struct Request;

  /// Runs the request, sets *ok to whether it succeeded. Only successful
  /// responses may be cached: transient guard breaches (DeadlineExceeded,
  /// ResourceExhausted) must not be pinned as hits after load subsides,
  /// and every error must reach error_counter_.
  std::string Execute(const Request& request, bool* ok);
  void RecordLatency(const std::string& verb, const Stopwatch& timer);

  const ServingTable* table_;
  QueryServiceOptions options_;
  ResultCache cache_;
  std::string fingerprint_prefix_;
  obs::Counter* query_counter_;
  obs::Counter* error_counter_;
  /// Per-verb latency histograms (serve.query_us.<verb>), resolved once.
  std::unordered_map<std::string, obs::Histogram*> latency_;
};

/// Blocking REPL over arbitrary streams (the CLI wires stdin/stdout):
/// one response line per request line, returns on EOF or `quit`.
void ServeLoop(QueryService& service, std::istream& in, std::ostream& out);

struct SocketServerOptions {
  /// Per-connection idle deadline: a connection that sends no bytes for
  /// this long is disconnected and counted in `serve.idle_disconnects`.
  /// Without it, a client that opens a connection and walks away pins a
  /// server thread forever. 0 disables the deadline.
  uint64_t idle_timeout_ms = 60000;
};

/// Unix-domain-socket daemon: N threads share one listening socket
/// (and one immutable table mapping), each serving connections with
/// the same line protocol. `quit` closes that connection only.
class SocketServer {
 public:
  /// How Stop() treats connections that are mid-request. kHard cuts
  /// both directions immediately; kDrain half-closes the read side so
  /// an in-flight response is still written before the connection
  /// thread notices EOF and exits. The daemon's SIGTERM/SIGINT path
  /// uses kDrain.
  enum class StopMode { kHard, kDrain };

  explicit SocketServer(QueryService* service,
                        const SocketServerOptions& options = {});
  ~SocketServer();

  SocketServer(const SocketServer&) = delete;
  SocketServer& operator=(const SocketServer&) = delete;

  /// Binds `socket_path` (replacing a stale socket file) and spawns
  /// `num_threads` acceptor threads.
  Status Start(const std::string& socket_path, size_t num_threads);

  /// Stops accepting, shuts down in-flight connections (per `mode`),
  /// joins all threads, and removes the socket file. Idempotent.
  void Stop(StopMode mode = StopMode::kHard) EXCLUDES(mu_);

 private:
  void AcceptLoop() EXCLUDES(mu_);
  void ServeConnection(int fd);

  QueryService* service_;
  SocketServerOptions options_;
  obs::Counter* idle_counter_;
  std::string socket_path_;
  int listen_fd_ = -1;
  std::atomic<bool> running_{false};
  std::vector<std::thread> threads_;
  /// Rank 10 in the canonical lock hierarchy
  /// (docs/static-analysis.md): held only for the connection-list
  /// bookkeeping below — never across IO or another acquisition.
  Mutex mu_;
  std::vector<int> connections_ GUARDED_BY(mu_);
};

}  // namespace serve
}  // namespace divexp

#endif  // DIVEXP_SERVE_SERVER_H_
