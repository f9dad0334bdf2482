#include "serve_mix.h"

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <sstream>
#include <thread>
#include <unordered_map>
#include <vector>

#include "recovery/atomic_file.h"
#include "serve/artifact.h"
#include "serve/server.h"
#include "util/random.h"

namespace divexp {
namespace perfbench {
namespace {

constexpr size_t kHotSetSize = 32;
// Cache-off reference answers cover every kReferenceEvery-th position
// of the first kReferenceSpan; a run at the measured rates stays within
// the span, and positions beyond it are still checked for "ok":true.
constexpr size_t kReferenceEvery = 500;
constexpr size_t kReferenceSpan = 250000;
constexpr size_t kClients = 2;
constexpr size_t kServerThreads = 2;
constexpr const char* kSocketPath = "serve.sock";

// "attr=val,attr=val" for a table row; empty when a label holds a
// character the line protocol splits on.
std::string ItemsArg(const serve::TableView& view, size_t row) {
  std::string out;
  for (uint32_t item : view.row_items(row)) {
    const ItemInfo& info = view.catalog->item(item);
    const std::string part =
        view.catalog->attribute_name(info.attribute) + "=" + info.value;
    if (part.find_first_of(" ,") != std::string::npos) return "";
    if (!out.empty()) out += ',';
    out += part;
  }
  return out;
}

// The serve-mix request stream: an endless, random-access sequence of
// protocol lines that is a pure function of (table, seed, position), so
// both clients and the set-up's reference pass agree on line i. Half of
// the lines repeat a small hot set; the rest are fresh.
class RequestStream {
 public:
  RequestStream(const serve::TableView& view, uint64_t seed)
      : view_(view), seed_(seed) {
    for (size_t i = 1; i < view.size(); ++i) {
      const size_t len = view.row_items(i).size();
      if (len >= 2 && len <= 5 && !ItemsArg(view, i).empty()) {
        rows_.push_back(i);
      }
    }
    Rng rng(seed);
    for (size_t i = 0; !rows_.empty() && i < kHotSetSize; ++i) {
      hot_.push_back(Fresh(&rng));
    }
  }

  bool ok() const { return !rows_.empty(); }
  const std::vector<std::string>& hot() const { return hot_; }

  std::string Line(size_t i) const {
    Rng rng(seed_ * 0x9E3779B97F4A7C15ull + i + 1);
    return rng.Bernoulli(0.5) ? hot_[rng.Below(hot_.size())] : Fresh(&rng);
  }

 private:
  // One request drawn from the verb mix: ~40% topk, 25% browse, 25%
  // shapley, 10% corrective/stats, with varied parameters and itemsets
  // sampled from the table's 2-5 item patterns.
  std::string Fresh(Rng* rng) const {
    static const char* const kKeys[] = {"divergence", "significance",
                                        "support"};
    static const int kTopK[] = {5, 10, 20, 50};
    static const int kCorrectiveK[] = {5, 10, 20};
    char buf[160];
    const double u = rng->Uniform();
    if (u < 0.40) {
      const double min_support =
          rng->Bernoulli(0.3) ? 0.0 : 0.02 + 0.001 * rng->Below(150);
      const int k = kTopK[rng->Below(4)];
      const char* key = kKeys[rng->Below(3)];
      const char* order = rng->Bernoulli(0.8) ? "desc" : "asc";
      const int min_len = static_cast<int>(1 + rng->Below(2));
      const int max_len =
          rng->Below(3) == 0 ? 0 : static_cast<int>(3 + rng->Below(2));
      std::snprintf(buf, sizeof(buf),
                    "topk k=%d key=%s order=%s min_support=%.3f min_len=%d "
                    "max_len=%d",
                    k, key, order, min_support, min_len, max_len);
      return buf;
    }
    if (u < 0.90) {
      const std::string items = ItemsArg(view_, rows_[rng->Below(rows_.size())]);
      return (u < 0.65 ? "browse items=" : "shapley items=") + items;
    }
    if (u < 0.95) {
      const int k = kCorrectiveK[rng->Below(3)];
      std::snprintf(buf, sizeof(buf), "corrective k=%d min_factor=%.2f", k,
                    0.01 * rng->Below(50));
      return buf;
    }
    return "stats";
  }

  const serve::TableView& view_;
  uint64_t seed_;
  std::vector<size_t> rows_;
  std::vector<std::string> hot_;
};

bool IsOk(const std::string& response) {
  return response.rfind("{\"ok\":true", 0) == 0;
}

std::string Verb(const std::string& line) {
  return line.substr(0, line.find(' '));
}

// Cache-off reference answers by stream position.
using References = std::unordered_map<size_t, std::string>;

Result<References> LoadReferences(const std::string& dir) {
  DIVEXP_ASSIGN_OR_RETURN(std::string text,
                          recovery::ReadFileToString(dir + "/reference.txt"));
  References refs;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    const size_t tab = line.find('\t');
    if (tab == std::string::npos) continue;
    refs[std::stoull(line.substr(0, tab))] = line.substr(tab + 1);
  }
  if (refs.empty()) {
    return Status::InvalidArgument("no serve-mix references in " + dir);
  }
  return refs;
}

// Blocking line-protocol client over the daemon's unix socket.
class Client {
 public:
  Client() = default;
  ~Client() {
    if (fd_ >= 0) ::close(fd_);
  }
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  Status Connect(const std::string& path) {
    fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd_ < 0) return Status::IOError("socket() failed");
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::snprintf(addr.sun_path, sizeof(addr.sun_path), "%s", path.c_str());
    if (::connect(fd_, reinterpret_cast<const sockaddr*>(&addr),
                  sizeof(addr)) != 0) {
      return Status::IOError("connect(" + path +
                             ") failed: " + std::strerror(errno));
    }
    return Status::OK();
  }

  Result<std::string> Call(const std::string& line) {
    const std::string msg = line + "\n";
    size_t sent = 0;
    while (sent < msg.size()) {
      const ssize_t n =
          ::send(fd_, msg.data() + sent, msg.size() - sent, MSG_NOSIGNAL);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) return Status::IOError("send failed");
      sent += static_cast<size_t>(n);
    }
    for (;;) {
      const size_t nl = buf_.find('\n');
      if (nl != std::string::npos) {
        std::string response = buf_.substr(0, nl);
        buf_.erase(0, nl + 1);
        return response;
      }
      char chunk[1 << 16];
      const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) return Status::IOError("connection closed mid-response");
      buf_.append(chunk, static_cast<size_t>(n));
    }
  }

 private:
  int fd_ = -1;
  std::string buf_;
};

// What one closed-loop worker (socket client or in-process caller)
// observed.
struct LoopStats {
  uint64_t attempted = 0;
  std::vector<double> latency_ms;
  uint64_t failed = 0;
  uint64_t checked = 0;
  std::string first_error;

  void Fail(const std::string& why) {
    ++failed;
    if (first_error.empty()) first_error = why;
  }
};

// Checks one response: ok, and equal to the cache-off reference where
// the set-up computed one for this stream position.
void CheckResponse(const References& refs, size_t index,
                   const std::string& line, const std::string& response,
                   LoopStats* stats) {
  if (!IsOk(response)) {
    stats->Fail("request " + std::to_string(index) + " failed: " +
                response.substr(0, 200));
    return;
  }
  const auto it = refs.find(index);
  if (it == refs.end()) return;
  ++stats->checked;
  if (it->second != response) {
    stats->Fail("request " + std::to_string(index) +
                " differs from its cache-off reference: " + line);
  }
}

using Caller = std::function<Result<std::string>(const std::string&)>;

// `kClients` closed-loop workers split the stream round-robin until
// `seconds` pass; `make_caller` returns the function that sends one
// line and returns its response (empty after recording a failure).
template <typename MakeCaller>
std::vector<LoopStats> ClosedLoop(const RequestStream& stream,
                                  const References& refs, double seconds,
                                  MakeCaller make_caller) {
  std::vector<LoopStats> stats(kClients);
  std::vector<std::thread> threads;
  const Clock::time_point end =
      Clock::now() + std::chrono::microseconds(
                         static_cast<int64_t>(seconds * 1e6));
  for (size_t c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      LoopStats& s = stats[c];
      auto call = make_caller(&s);
      if (!call) return;
      for (size_t i = c; Clock::now() < end; i += kClients) {
        const std::string line = stream.Line(i);
        ++s.attempted;
        const Clock::time_point start = Clock::now();
        Result<std::string> response = call(line);
        const double ms = MillisSince(start);
        if (!response.ok()) {
          s.Fail(response.status().ToString());
          break;
        }
        s.latency_ms.push_back(ms);
        CheckResponse(refs, i, line, *response, &s);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  return stats;
}

// Folds per-worker stats into the run result; returns all latencies.
std::vector<double> Collect(const std::vector<LoopStats>& stats,
                            const char* what, RunResult* result,
                            uint64_t* checked) {
  std::vector<double> all;
  for (const LoopStats& s : stats) {
    all.insert(all.end(), s.latency_ms.begin(), s.latency_ms.end());
    result->attempted += s.attempted;
    if (s.failed > 0) {
      result->Fail(std::string(what) + ": " + s.first_error, s.failed);
    }
    if (checked != nullptr) *checked += s.checked;
  }
  return all;
}

// One closed-loop run over the unix socket; the daemon is the CLI's
// `divexp serve --socket` configuration with two threads.
std::vector<double> SocketRun(const RequestStream& stream,
                              const References& refs, double seconds,
                              serve::QueryService* service,
                              RunResult* result, uint64_t* checked) {
  serve::SocketServer server(service);
  const Status started = server.Start(kSocketPath, kServerThreads);
  if (!started.ok()) {
    result->Fail("server start: " + started.ToString());
    return {};
  }
  {
    // Warm-up, untimed: one pass over the hot set.
    Client warm;
    Status st = warm.Connect(kSocketPath);
    for (size_t i = 0; st.ok() && i < stream.hot().size(); ++i) {
      Result<std::string> r = warm.Call(stream.hot()[i]);
      if (!r.ok()) st = r.status();
    }
    if (!st.ok()) result->Fail("warm-up: " + st.ToString());
  }
  const std::vector<LoopStats> stats =
      ClosedLoop(stream, refs, seconds, [&](LoopStats* s) {
        auto client = std::make_shared<Client>();
        const Status st = client->Connect(kSocketPath);
        Caller call;
        if (!st.ok()) {
          ++s->attempted;
          s->Fail(st.ToString());
          return call;
        }
        call = [client](const std::string& line) { return client->Call(line); };
        return call;
      });
  server.Stop();
  return Collect(stats, "socket", result, checked);
}

}  // namespace

Status WriteServeInputs(const std::string& artifact_path, uint64_t seed,
                        const std::string& dir) {
  DIVEXP_ASSIGN_OR_RETURN(serve::ServingTable table,
                          serve::OpenServingTable(artifact_path));
  const RequestStream stream(table.view(), seed);
  if (!stream.ok()) return Status::InvalidArgument("table has no 2-5 item rows");
  serve::QueryServiceOptions qopts;
  qopts.cache_enabled = false;
  serve::QueryService reference(&table, qopts);
  std::string refs;
  for (size_t i = 0; i < kReferenceSpan; i += kReferenceEvery) {
    const std::string line = stream.Line(i);
    if (Verb(line) == "stats") continue;  // reports live cache counters
    const std::string response = reference.HandleLine(line);
    if (!IsOk(response)) {
      return Status::Internal("reference request failed: " + line + " -> " +
                              response);
    }
    refs += std::to_string(i) + "\t" + response + "\n";
  }
  return recovery::WriteFileAtomic(dir + "/reference.txt", refs);
}

void RunServeMix(const std::string& dir, uint64_t seed, uint64_t fingerprint,
                 double seconds, bool trace, RunResult* result) {
  Result<References> loaded = LoadReferences(dir);
  if (!loaded.ok()) {
    result->Fail(loaded.status().ToString());
    return;
  }
  const References& refs = *loaded;
  const std::string artifact = dir + "/table.art";
  Result<serve::ServingTable> opened = serve::OpenServingTable(artifact);
  if (!opened.ok()) {
    result->Fail("open " + artifact + ": " + opened.status().ToString());
    return;
  }
  serve::ServingTable& table = *opened;
  if (table.view().fingerprint != fingerprint) {
    result->Fail("the served artifact is not the table set-up built");
    return;
  }
  const RequestStream stream(table.view(), seed);
  uint64_t checked = 0;

  if (!trace) {
    serve::QueryService service(&table);
    const Clock::time_point start = Clock::now();
    const std::vector<double> ms =
        SocketRun(stream, refs, seconds, &service, result, &checked);
    const double wall_s = MillisSince(start) / 1000.0;
    double pct = 0.0;
    result->values["op_ms_p50"] = Median(ms);
    result->values["op_ms_tail"] = TailPercentile(ms, &pct);
    result->values["ops_per_s"] = static_cast<double>(ms.size()) / wall_s;
    std::printf("serve-mix: %zu requests over the socket, %llu checked "
                "against cache-off references; tail = p%.2f\n",
                ms.size(), static_cast<unsigned long long>(checked), pct);
    return;
  }

  // Traced run, split by layer from the benchmark side: attach cost,
  // the socket run, the same stream through HandleLine in process, and
  // each verb uncached.
  std::vector<double> open_ms;
  for (int i = 0; i < 5; ++i) {
    const Clock::time_point start = Clock::now();
    Result<serve::ServingTable> t = serve::OpenServingTable(artifact);
    open_ms.push_back(MillisSince(start));
    if (!t.ok()) result->Fail("reopen: " + t.status().ToString());
  }
  result->values["serve.open_ms"] = Median(open_ms);

  serve::QueryService service(&table);
  const serve::ResultCache::Stats before = service.cache().stats();
  const std::vector<double> socket_ms =
      SocketRun(stream, refs, 0.4 * seconds, &service, result, &checked);
  const serve::ResultCache::Stats after = service.cache().stats();
  const double hits = static_cast<double>(after.hits - before.hits);
  const double misses = static_cast<double>(after.misses - before.misses);
  result->values["serve.cache_hit_ratio"] =
      hits + misses > 0 ? hits / (hits + misses) : 0.0;

  serve::QueryService in_process(&table);
  for (const std::string& line : stream.hot()) in_process.HandleLine(line);
  const std::vector<LoopStats> handle_stats =
      ClosedLoop(stream, refs, 0.4 * seconds, [&](LoopStats*) {
        return Caller([&](const std::string& line) -> Result<std::string> {
          return in_process.HandleLine(line);
        });
      });
  const std::vector<double> handle_ms =
      Collect(handle_stats, "in-process", result, &checked);
  const double handle_us = 1000.0 * Median(handle_ms);
  result->values["serve.handle_us_p50"] = handle_us;

  serve::QueryServiceOptions off;
  off.cache_enabled = false;
  serve::QueryService uncached(&table, off);
  std::map<std::string, std::vector<double>> per_verb;
  const std::map<std::string, size_t> wanted = {
      {"topk", 40}, {"browse", 40}, {"shapley", 40}, {"corrective", 8}};
  const Clock::time_point verb_start = Clock::now();
  LoopStats verb_stats;
  for (size_t i = 0; MillisSince(verb_start) < 200.0 * seconds; ++i) {
    const std::string line = stream.Line(i);
    const std::string verb = Verb(line);
    const auto want = wanted.find(verb);
    if (want == wanted.end() || per_verb[verb].size() >= want->second) {
      bool done = true;
      for (const auto& [v, n] : wanted) done = done && per_verb[v].size() >= n;
      if (done) break;
      continue;
    }
    ++verb_stats.attempted;
    const Clock::time_point start = Clock::now();
    const std::string response = uncached.HandleLine(line);
    per_verb[verb].push_back(1000.0 * MillisSince(start));
    CheckResponse(refs, i, line, response, &verb_stats);
  }
  Collect({verb_stats}, "uncached", result, &checked);
  for (const auto& [verb, want] : wanted) {
    (void)want;
    result->values["serve." + verb + "_us_p50"] = Median(per_verb[verb]);
  }

  const double op_ms = Median(socket_ms);
  result->values["trace.op_ms_p50"] = op_ms;
  result->values["trace.untraced_ms_p50"] = op_ms;
  result->values["trace.overhead_ms"] = 0.0;
  result->values["trace.layers_ms"] = handle_us / 1000.0;
  result->values["trace.unaccounted_ms"] = op_ms - handle_us / 1000.0;
  result->values["trace.samples"] = static_cast<double>(socket_ms.size());
  std::printf(
      "serve-mix traced: request p50 %.4f ms over %zu socket requests; "
      "in-process HandleLine (engine + cache) %.1f%%, socket and protocol "
      "%.1f%%; cache hit ratio %.3f; attach %.4f ms; uncached p50 topk "
      "%.1f us, browse %.1f us, shapley %.1f us, corrective %.1f us; %llu "
      "responses checked against references\n",
      op_ms, socket_ms.size(), 100.0 * handle_us / 1000.0 / op_ms,
      100.0 * (1.0 - handle_us / 1000.0 / op_ms),
      result->values["serve.cache_hit_ratio"], result->values["serve.open_ms"],
      result->values["serve.topk_us_p50"], result->values["serve.browse_us_p50"],
      result->values["serve.shapley_us_p50"],
      result->values["serve.corrective_us_p50"],
      static_cast<unsigned long long>(checked));
}

}  // namespace perfbench
}  // namespace divexp
