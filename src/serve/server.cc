#include "serve/server.h"

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <iomanip>
#include <istream>
#include <ostream>
#include <sstream>
#include <utility>

#include "core/corrective.h"
#include "core/lattice.h"
#include "core/shapley.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "util/stopwatch.h"
#include "util/string_util.h"

namespace divexp {
namespace serve {
namespace {

constexpr const char* kVerbs[] = {"topk", "browse", "shapley",
                                  "corrective", "stats"};

/// Round-trippable double rendering for canonical cache keys and
/// response payloads (17 significant digits recover the exact bits).
std::string CanonDouble(double v) {
  std::ostringstream os;
  os << std::setprecision(17) << v;
  return os.str();
}

std::string HexU64(uint64_t v) {
  std::ostringstream os;
  os << std::hex << std::setw(16) << std::setfill('0') << v;
  return os.str();
}

Result<double> ParseDoubleArg(const std::string& name,
                              const std::string& value) {
  if (value.empty()) {
    return Status::InvalidArgument("empty value for " + name);
  }
  char* end = nullptr;
  errno = 0;
  const double v = std::strtod(value.c_str(), &end);
  if (errno != 0 || end != value.c_str() + value.size()) {
    return Status::InvalidArgument("bad number for " + name + ": " + value);
  }
  return v;
}

Result<uint64_t> ParseU64Arg(const std::string& name,
                             const std::string& value) {
  if (value.empty() || value[0] == '-') {
    return Status::InvalidArgument("bad count for " + name + ": " + value);
  }
  char* end = nullptr;
  errno = 0;
  const uint64_t v = std::strtoull(value.c_str(), &end, 10);
  if (errno != 0 || end != value.c_str() + value.size()) {
    return Status::InvalidArgument("bad count for " + name + ": " + value);
  }
  return v;
}

std::string ErrorJson(const Status& status) {
  obs::JsonWriter json;
  json.BeginObject()
      .Key("ok")
      .Value(false)
      .Key("code")
      .Value(StatusCodeName(status.code()))
      .Key("error")
      .Value(status.message())
      .EndObject();
  return json.str();
}

}  // namespace

struct QueryService::Request {
  std::string verb;
  /// Full cache key (fingerprint + canonical line); empty = uncacheable.
  std::string cache_key;
  TopKQuery topk;
  Itemset items;
  CorrectiveOptions corrective;
};

QueryService::QueryService(const ServingTable* table,
                           const QueryServiceOptions& options)
    : table_(table),
      options_(options),
      cache_(options.cache),
      fingerprint_prefix_(HexU64(table->view().fingerprint) + " ") {
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Default();
  query_counter_ = reg.GetCounter("serve.queries");
  error_counter_ = reg.GetCounter("serve.errors");
  for (const char* verb : kVerbs) {
    latency_.emplace(verb,
                     reg.GetHistogram("serve.query_us." + std::string(verb)));
  }
}

std::string QueryService::HandleLine(const std::string& line) {
  Stopwatch timer;
  std::vector<std::string> tokens;
  for (std::string& token : Split(Trim(line), ' ')) {
    if (!token.empty()) tokens.push_back(std::move(token));
  }
  if (tokens.empty()) {
    error_counter_->Add(1);
    return ErrorJson(Status::InvalidArgument("empty request"));
  }

  Request request;
  request.verb = tokens[0];
  std::vector<std::pair<std::string, std::string>> args;
  for (size_t i = 1; i < tokens.size(); ++i) {
    const size_t eq = tokens[i].find('=');
    if (eq == std::string::npos) {
      error_counter_->Add(1);
      return ErrorJson(Status::InvalidArgument(
          "arguments must be key=value, got: " + tokens[i]));
    }
    args.emplace_back(tokens[i].substr(0, eq), tokens[i].substr(eq + 1));
  }

  // --- Canonicalize: validate arguments, fill defaults, and build the
  // canonical form whose spelling is unique per semantic query.
  std::string canonical = request.verb;
  Status parse_status;
  const auto reject_unknown = [&](std::initializer_list<const char*> known) {
    for (const auto& [key, value] : args) {
      (void)value;
      if (std::find_if(known.begin(), known.end(), [&](const char* k) {
            return key == k;
          }) == known.end()) {
        parse_status = Status::InvalidArgument(
            "unknown argument for " + request.verb + ": " + key);
        return false;
      }
    }
    return true;
  };
  const auto arg_value = [&](const char* key) -> const std::string* {
    for (const auto& [k, v] : args) {
      if (k == key) return &v;
    }
    return nullptr;
  };
  const auto parse_items = [&]() -> Status {
    const std::string* spec = arg_value("items");
    if (spec == nullptr || spec->empty()) {
      return Status::InvalidArgument(request.verb +
                                     " requires items=attr=val[,attr=val]");
    }
    std::vector<std::pair<std::string, std::string>> pairs;
    for (const std::string& part : Split(*spec, ',')) {
      const size_t eq = part.find('=');
      if (eq == std::string::npos) {
        return Status::InvalidArgument("items entries must be attr=val, got: " +
                                       part);
      }
      pairs.emplace_back(part.substr(0, eq), part.substr(eq + 1));
    }
    DIVEXP_ASSIGN_OR_RETURN(request.items,
                            ParseItemset(*table_->view().catalog, pairs));
    // Canonical itemset spelling: sorted, de-duplicated item ids.
    canonical += " items=";
    for (size_t i = 0; i < request.items.size(); ++i) {
      if (i) canonical += ',';
      canonical += std::to_string(request.items[i]);
    }
    return Status::OK();
  };

  if (request.verb == "topk") {
    if (reject_unknown(
            {"k", "key", "order", "min_support", "min_len", "max_len"})) {
      TopKQuery& q = request.topk;
      if (const std::string* v = arg_value("k")) {
        auto r = ParseU64Arg("k", *v);
        if (r.ok()) {
          q.k = static_cast<size_t>(r.value());
        } else {
          parse_status = r.status();
        }
      }
      if (const std::string* v = arg_value("key")) {
        if (*v == "divergence") {
          q.key = PatternTable::RankKey::kDivergence;
        } else if (*v == "significance") {
          q.key = PatternTable::RankKey::kSignificance;
        } else if (*v == "support") {
          q.key = PatternTable::RankKey::kSupport;
        } else {
          parse_status = Status::InvalidArgument(
              "key must be divergence|significance|support, got: " + *v);
        }
      }
      if (const std::string* v = arg_value("order")) {
        if (*v == "desc") {
          q.descending = true;
        } else if (*v == "asc") {
          q.descending = false;
        } else {
          parse_status =
              Status::InvalidArgument("order must be desc|asc, got: " + *v);
        }
      }
      if (const std::string* v = arg_value("min_support")) {
        auto r = ParseDoubleArg("min_support", *v);
        if (r.ok()) {
          q.min_support = r.value();
        } else {
          parse_status = r.status();
        }
      }
      if (const std::string* v = arg_value("min_len")) {
        auto r = ParseU64Arg("min_len", *v);
        if (r.ok()) {
          q.min_len = static_cast<size_t>(r.value());
        } else {
          parse_status = r.status();
        }
      }
      if (const std::string* v = arg_value("max_len")) {
        auto r = ParseU64Arg("max_len", *v);
        if (r.ok()) {
          q.max_len = static_cast<size_t>(r.value());
        } else {
          parse_status = r.status();
        }
      }
      if (parse_status.ok()) {
        const char* key_name =
            q.key == PatternTable::RankKey::kDivergence     ? "divergence"
            : q.key == PatternTable::RankKey::kSignificance ? "significance"
                                                            : "support";
        canonical += " k=" + std::to_string(q.k);
        canonical += std::string(" key=") + key_name;
        canonical += " max_len=" + std::to_string(q.max_len);
        canonical += " min_len=" + std::to_string(q.min_len);
        canonical += " min_support=" + CanonDouble(q.min_support);
        canonical += std::string(" order=") + (q.descending ? "desc" : "asc");
      }
    }
  } else if (request.verb == "browse" || request.verb == "shapley") {
    if (reject_unknown({"items"})) parse_status = parse_items();
  } else if (request.verb == "corrective") {
    if (reject_unknown({"k", "min_factor"})) {
      if (const std::string* v = arg_value("k")) {
        auto r = ParseU64Arg("k", *v);
        if (r.ok()) {
          request.corrective.top_k = static_cast<size_t>(r.value());
        } else {
          parse_status = r.status();
        }
      }
      if (const std::string* v = arg_value("min_factor")) {
        auto r = ParseDoubleArg("min_factor", *v);
        if (r.ok()) {
          request.corrective.min_factor = r.value();
        } else {
          parse_status = r.status();
        }
      }
      if (parse_status.ok()) {
        canonical += " k=" + std::to_string(request.corrective.top_k);
        canonical +=
            " min_factor=" + CanonDouble(request.corrective.min_factor);
      }
    }
  } else if (request.verb == "stats" || request.verb == "quit") {
    if (!args.empty()) {
      parse_status = Status::InvalidArgument(request.verb +
                                             " takes no arguments");
    }
  } else {
    parse_status =
        Status::InvalidArgument("unknown verb: " + request.verb);
  }
  if (!parse_status.ok()) {
    error_counter_->Add(1);
    return ErrorJson(parse_status);
  }

  if (request.verb == "quit") {
    obs::JsonWriter json;
    json.BeginObject().Key("ok").Value(true).Key("quit").Value(true)
        .EndObject();
    return json.str();
  }

  query_counter_->Add(1);
  // stats reads live cache counters — never cache it.
  const bool cacheable = options_.cache_enabled && request.verb != "stats";
  if (cacheable) {
    request.cache_key = fingerprint_prefix_ + canonical;
    if (std::optional<std::string> hit = cache_.Get(request.cache_key)) {
      RecordLatency(request.verb, timer);
      return *hit;
    }
  }

  bool ok = false;
  std::string response = Execute(request, &ok);
  // Errors are never cached: a transient guard breach would otherwise be
  // served as a hit long after load subsides, and cached error hits
  // would bypass serve.errors accounting.
  if (cacheable && ok && !request.cache_key.empty()) {
    cache_.Put(request.cache_key, response);
  }
  RecordLatency(request.verb, timer);
  return response;
}

void QueryService::RecordLatency(const std::string& verb,
                                 const Stopwatch& timer) {
  const auto it = latency_.find(verb);
  if (it != latency_.end()) {
    it->second->Record(static_cast<uint64_t>(timer.Millis() * 1000.0));
  }
}

std::string QueryService::Execute(const Request& request, bool* ok) {
  const TableView& view = table_->view();
  RunGuard guard(options_.limits);
  obs::JsonWriter json;
  *ok = false;

  if (request.verb == "topk") {
    Result<std::vector<size_t>> rows = TopKRows(view, request.topk, &guard);
    if (!rows.ok()) {
      error_counter_->Add(1);
      return ErrorJson(rows.status());
    }
    *ok = true;
    json.BeginObject().Key("ok").Value(true).Key("rows").BeginArray();
    for (const size_t i : rows.value()) {
      json.BeginObject()
          .Key("items")
          .Value(ItemsetName(*view.catalog, view.row_items(i)))
          .Key("support")
          .Value(view.support(i))
          .Key("rate")
          .Value(view.rate(i))
          .Key("divergence")
          .Value(view.divergence(i))
          .Key("t")
          .Value(view.t(i))
          .EndObject();
    }
    json.EndArray().EndObject();
    return json.str();
  }

  if (request.verb == "browse") {
    Result<Lattice> lattice = BuildLattice(view, request.items, &guard);
    if (!lattice.ok()) {
      error_counter_->Add(1);
      return ErrorJson(lattice.status());
    }
    *ok = true;
    json.BeginObject()
        .Key("ok")
        .Value(true)
        .Key("target")
        .Value(ItemsetName(*view.catalog, ItemSpan(lattice.value().target)))
        .Key("nodes")
        .BeginArray();
    for (const LatticeNode& node : lattice.value().nodes) {
      json.BeginObject()
          .Key("items")
          .Value(ItemsetName(*view.catalog, ItemSpan(node.items)))
          .Key("level")
          .Value(static_cast<uint64_t>(node.level))
          .Key("divergence")
          .Value(node.divergence)
          .Key("t")
          .Value(node.t)
          .Key("corrective")
          .Value(node.corrective)
          .EndObject();
    }
    json.EndArray().Key("edges").BeginArray();
    for (const LatticeEdge& edge : lattice.value().edges) {
      json.BeginObject()
          .Key("from")
          .Value(static_cast<uint64_t>(edge.from))
          .Key("to")
          .Value(static_cast<uint64_t>(edge.to))
          .EndObject();
    }
    json.EndArray().EndObject();
    return json.str();
  }

  if (request.verb == "shapley") {
    Result<std::vector<ItemContribution>> contribs =
        ShapleyContributions(view, request.items, &guard);
    if (!contribs.ok()) {
      error_counter_->Add(1);
      return ErrorJson(contribs.status());
    }
    *ok = true;
    json.BeginObject()
        .Key("ok")
        .Value(true)
        .Key("items")
        .Value(ItemsetName(*view.catalog, ItemSpan(request.items)))
        .Key("contributions")
        .BeginArray();
    for (const ItemContribution& c : contribs.value()) {
      json.BeginObject()
          .Key("item")
          .Value(ItemName(*view.catalog, c.item))
          .Key("contribution")
          .Value(c.contribution)
          .EndObject();
    }
    json.EndArray().EndObject();
    return json.str();
  }

  if (request.verb == "corrective") {
    Result<std::vector<CorrectiveItem>> pairs =
        ScanCorrectiveItems(view, request.corrective, &guard);
    if (!pairs.ok()) {
      error_counter_->Add(1);
      return ErrorJson(pairs.status());
    }
    *ok = true;
    json.BeginObject().Key("ok").Value(true).Key("pairs").BeginArray();
    for (const CorrectiveItem& c : pairs.value()) {
      json.BeginObject()
          .Key("base")
          .Value(ItemsetName(*view.catalog, ItemSpan(c.base)))
          .Key("item")
          .Value(ItemName(*view.catalog, c.item))
          .Key("base_divergence")
          .Value(c.base_divergence)
          .Key("with_divergence")
          .Value(c.with_divergence)
          .Key("factor")
          .Value(c.factor)
          .Key("t")
          .Value(c.t)
          .EndObject();
    }
    json.EndArray().EndObject();
    return json.str();
  }

  DIVEXP_CHECK(request.verb == "stats");
  *ok = true;
  const ResultCache::Stats cache_stats = cache_.stats();
  json.BeginObject()
      .Key("ok")
      .Value(true)
      .Key("rows")
      .Value(static_cast<uint64_t>(view.size()))
      .Key("dataset_rows")
      .Value(view.num_dataset_rows)
      .Key("global_rate")
      .Value(view.global_rate)
      .Key("fingerprint")
      .Value(HexU64(view.fingerprint))
      .Key("backing")  // always "mmap"; kept so the wire shape is stable
      .Value("mmap")
      .Key("cache")
      .BeginObject()
      .Key("hits")
      .Value(cache_stats.hits)
      .Key("misses")
      .Value(cache_stats.misses)
      .Key("evictions")
      .Value(cache_stats.evictions)
      .Key("entries")
      .Value(cache_stats.entries)
      .Key("bytes")
      .Value(cache_stats.bytes)
      .EndObject()
      .EndObject();
  return json.str();
}

void ServeLoop(QueryService& service, std::istream& in, std::ostream& out) {
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (Trim(line).empty()) continue;
    out << service.HandleLine(line) << '\n';
    out.flush();
    if (Split(Trim(line), ' ')[0] == "quit") return;
  }
}

SocketServer::SocketServer(QueryService* service,
                           const SocketServerOptions& options)
    : service_(service),
      options_(options),
      idle_counter_(obs::MetricsRegistry::Default().GetCounter(
          "serve.idle_disconnects")) {}

SocketServer::~SocketServer() { Stop(); }

Status SocketServer::Start(const std::string& socket_path,
                           size_t num_threads) {
  if (running_.load()) {
    return Status::AlreadyExists("server already running");
  }
  if (socket_path.size() >= sizeof(sockaddr_un{}.sun_path)) {
    return Status::InvalidArgument("socket path too long: " + socket_path);
  }
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) {
    return Status::IOError(std::string("socket: ") + std::strerror(errno));
  }
  ::unlink(socket_path.c_str());  // replace a stale socket file
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, socket_path.c_str(), socket_path.size());
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    const int err = errno;
    ::close(fd);
    return Status::IOError("bind " + socket_path + ": " +
                           std::strerror(err));
  }
  if (::listen(fd, 64) != 0) {
    const int err = errno;
    ::close(fd);
    ::unlink(socket_path.c_str());
    return Status::IOError("listen " + socket_path + ": " +
                           std::strerror(err));
  }
  socket_path_ = socket_path;
  listen_fd_ = fd;
  running_.store(true);
  threads_.reserve(num_threads == 0 ? 1 : num_threads);
  for (size_t t = 0; t < (num_threads == 0 ? 1 : num_threads); ++t) {
    threads_.emplace_back([this] { AcceptLoop(); });
  }
  return Status::OK();
}

void SocketServer::Stop(StopMode mode) {
  if (!running_.exchange(false)) return;
  // Wake every acceptor blocked in accept(), then every connection
  // blocked in poll()/read(). kDrain half-closes only the read side so
  // a response being written right now still reaches the client before
  // the connection thread sees EOF and exits.
  ::shutdown(listen_fd_, SHUT_RDWR);
  {
    MutexLock lock(mu_);
    for (const int fd : connections_) {
      ::shutdown(fd, mode == StopMode::kDrain ? SHUT_RD : SHUT_RDWR);
    }
  }
  for (std::thread& t : threads_) t.join();
  threads_.clear();
  ::close(listen_fd_);
  listen_fd_ = -1;
  ::unlink(socket_path_.c_str());
}

void SocketServer::AcceptLoop() {
  while (running_.load()) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (!running_.load()) return;
      if (errno == EINTR || errno == ECONNABORTED) continue;
      return;
    }
    {
      MutexLock lock(mu_);
      connections_.push_back(fd);
    }
    ServeConnection(fd);
    {
      MutexLock lock(mu_);
      connections_.erase(
          std::remove(connections_.begin(), connections_.end(), fd),
          connections_.end());
    }
    ::close(fd);
  }
}

void SocketServer::ServeConnection(int fd) {
  std::string pending;
  char buf[4096];
  uint64_t idle_left_ms = options_.idle_timeout_ms;
  while (running_.load()) {
    // Wait for readable bytes in short slices so both the stop flag
    // and the idle deadline are honored while the peer stays silent.
    pollfd pfd{};
    pfd.fd = fd;
    pfd.events = POLLIN;
    const uint64_t slice =
        options_.idle_timeout_ms == 0
            ? 100
            : std::min<uint64_t>(100, idle_left_ms);
    const int pr = ::poll(&pfd, 1, static_cast<int>(slice));
    if (pr < 0) {
      if (errno == EINTR) continue;
      return;
    }
    if (pr == 0) {
      if (options_.idle_timeout_ms == 0) continue;
      idle_left_ms -= slice;
      if (idle_left_ms == 0) {
        // Idle deadline reached: reclaim the thread from a client that
        // connected and walked away.
        idle_counter_->Add(1);
        return;
      }
      continue;
    }
    ssize_t n;
    do {
      n = ::read(fd, buf, sizeof(buf));
    } while (n < 0 && errno == EINTR);
    if (n <= 0) return;  // EOF, shutdown, or error: drop the connection
    idle_left_ms = options_.idle_timeout_ms;
    pending.append(buf, static_cast<size_t>(n));
    size_t newline;
    while ((newline = pending.find('\n')) != std::string::npos) {
      std::string line = pending.substr(0, newline);
      pending.erase(0, newline + 1);
      if (!line.empty() && line.back() == '\r') line.pop_back();
      if (Trim(line).empty()) continue;
      const std::string response = service_->HandleLine(line) + "\n";
      size_t written = 0;
      while (written < response.size()) {
        // MSG_NOSIGNAL: a client that disconnects mid-response must be
        // an EPIPE for this connection, not a SIGPIPE for the daemon.
        const ssize_t w = ::send(fd, response.data() + written,
                                 response.size() - written, MSG_NOSIGNAL);
        if (w < 0 && errno == EINTR) continue;
        if (w <= 0) return;  // EPIPE/ECONNRESET: a normal client drop
        written += static_cast<size_t>(w);
      }
      if (Split(Trim(line), ' ')[0] == "quit") return;
    }
  }
}

}  // namespace serve
}  // namespace divexp
