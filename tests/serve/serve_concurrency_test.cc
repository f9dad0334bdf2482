// Concurrency coverage for the serving stack: many threads over one
// QueryService (shared immutable mapping + sharded cache), and a real
// unix-socket daemon exercised by concurrent clients. CI's serve-smoke
// job reruns this binary under TSan.
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.h"
#include "recovery/atomic_file.h"
#include "serve/artifact.h"
#include "serve/server.h"
#include "testing/test_explore.h"

namespace divexp {
namespace serve {
namespace {

using divexp::testing::ScratchDir;

ServingTable OpenTestTable(const std::string& leaf) {
  const PatternTable table =
      divexp::testing::RandomTableForTest(42, 200, 4, 2, 0.02);
  const std::string path = ScratchDir("conc/" + leaf) + "/table.dvt";
  DIVEXP_CHECK_OK(WritePatternTableArtifact(path, table));
  auto opened = OpenServingTable(path);
  DIVEXP_CHECK_OK(opened.status());
  return std::move(opened).value();
}

/// A request mix covering every verb plus parse errors; indexed
/// per-thread so workloads interleave differently.
std::vector<std::string> RequestMix(const TableView& view) {
  std::vector<std::string> mix = {
      "topk k=5",
      "topk k=5 order=asc",
      "topk k=3 key=support",
      "corrective k=4",
      "stats",
      "topk k=banana",  // parse error; must not poison shared state
  };
  for (size_t i = 0; i < view.size() && mix.size() < 10; ++i) {
    const ItemSpan items = view.row_items(i);
    if (items.size() != 2) continue;
    std::string spec;
    for (size_t j = 0; j < items.size(); ++j) {
      if (j) spec += ',';
      spec += view.catalog->ItemName(items[j]);
    }
    mix.push_back("shapley items=" + spec);
    mix.push_back("browse items=" + spec);
  }
  return mix;
}

TEST(ServeConcurrencyTest, ManyThreadsOneServiceAgreeWithSequential) {
  ServingTable table = OpenTestTable("service");
  QueryService service(&table);
  const std::vector<std::string> mix = RequestMix(table.view());

  // Sequential reference answers (from a separate service so the
  // shared one starts cold).
  QueryService reference(&table);
  std::vector<std::string> expected;
  for (const std::string& line : mix) {
    expected.push_back(reference.HandleLine(line));
  }

  constexpr int kThreads = 8;
  constexpr int kRounds = 50;
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int r = 0; r < kRounds; ++r) {
        const size_t q = (t + r) % mix.size();
        const std::string response = service.HandleLine(mix[q]);
        if (mix[q] == "stats") {
          // stats reads live cache counters, so only the envelope is
          // deterministic under concurrency.
          if (response.find("\"ok\":true") == std::string::npos) {
            mismatches.fetch_add(1);
          }
        } else if (response != expected[q]) {
          mismatches.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(mismatches.load(), 0);

  // Conservation: every cacheable request was either a hit or a miss.
  const ResultCache::Stats stats = service.cache().stats();
  EXPECT_GT(stats.hits, 0u);
  EXPECT_GT(stats.misses, 0u);
}

/// Minimal blocking line client against a unix socket.
class LineClient {
 public:
  explicit LineClient(const std::string& path) {
    fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    DIVEXP_CHECK(fd_ >= 0);
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::memcpy(addr.sun_path, path.c_str(), path.size());
    DIVEXP_CHECK(::connect(fd_, reinterpret_cast<const sockaddr*>(&addr),
                           sizeof(addr)) == 0);
  }
  ~LineClient() { ::close(fd_); }

  std::string RoundTrip(const std::string& line) {
    const std::string request = line + "\n";
    DIVEXP_CHECK(::write(fd_, request.data(), request.size()) ==
                 static_cast<ssize_t>(request.size()));
    std::string response;
    char c;
    while (::read(fd_, &c, 1) == 1) {
      if (c == '\n') return response;
      response += c;
    }
    return response;
  }

  /// Blocks until the server closes the connection; true on clean EOF.
  bool WaitForEof() {
    char c;
    ssize_t n;
    while ((n = ::read(fd_, &c, 1)) == 1) {
    }
    return n == 0;
  }

 private:
  int fd_ = -1;
};

TEST(ServeConcurrencyTest, SocketDaemonServesConcurrentClients) {
  ServingTable table = OpenTestTable("daemon");
  QueryService service(&table);
  SocketServer server(&service);
  const std::string socket_path = ScratchDir("conc/daemon") + "/serve.sock";
  ASSERT_TRUE(server.Start(socket_path, /*num_threads=*/4).ok());

  const std::vector<std::string> mix = RequestMix(table.view());
  QueryService reference(&table);
  std::vector<std::string> expected;
  for (const std::string& line : mix) {
    expected.push_back(reference.HandleLine(line));
  }

  constexpr int kClients = 4;
  constexpr int kRounds = 25;
  std::atomic<int> mismatches{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      LineClient client(socket_path);
      for (int r = 0; r < kRounds; ++r) {
        const size_t q = (c * 3 + r) % mix.size();
        const std::string response = client.RoundTrip(mix[q]);
        if (mix[q] == "stats") {
          if (response.find("\"ok\":true") == std::string::npos) {
            mismatches.fetch_add(1);
          }
        } else if (response != expected[q]) {
          mismatches.fetch_add(1);
        }
      }
      // quit closes this connection; the daemon keeps serving others.
      client.RoundTrip("quit");
    });
  }
  for (std::thread& t : clients) t.join();
  EXPECT_EQ(mismatches.load(), 0);

  server.Stop();
  // Stop is idempotent and removes the socket file.
  server.Stop();
  EXPECT_FALSE(recovery::FileExists(socket_path));
}

uint64_t IdleDisconnects() {
  return obs::MetricsRegistry::Default()
      .GetCounter("serve.idle_disconnects")
      ->Value();
}

TEST(ServeConcurrencyTest, SilentConnectionIsDisconnectedAtIdleDeadline) {
  ServingTable table = OpenTestTable("idle");
  QueryService service(&table);
  SocketServerOptions options;
  options.idle_timeout_ms = 200;
  SocketServer server(&service, options);
  const std::string socket_path = ScratchDir("conc/idle") + "/serve.sock";
  ASSERT_TRUE(server.Start(socket_path, /*num_threads=*/2).ok());

  const uint64_t idle_before = IdleDisconnects();
  LineClient quiet(socket_path);
  // One request proves the connection is live; then go silent. The
  // server must hang up on its own — a walked-away client can never
  // pin a server thread forever.
  ASSERT_FALSE(quiet.RoundTrip("stats").empty());
  EXPECT_TRUE(quiet.WaitForEof());
  EXPECT_GT(IdleDisconnects(), idle_before);
  server.Stop();
}

TEST(ServeConcurrencyTest, ActiveConnectionOutlivesTheIdleDeadline) {
  ServingTable table = OpenTestTable("active");
  QueryService service(&table);
  SocketServerOptions options;
  options.idle_timeout_ms = 300;
  SocketServer server(&service, options);
  const std::string socket_path = ScratchDir("conc/active") + "/serve.sock";
  ASSERT_TRUE(server.Start(socket_path, /*num_threads=*/2).ok());

  // Requests spaced well inside the deadline, for several deadlines'
  // worth of wall clock: every byte read must refresh the countdown.
  LineClient client(socket_path);
  for (int i = 0; i < 10; ++i) {
    const std::string response = client.RoundTrip("topk k=1");
    EXPECT_NE(response.find("\"ok\":true"), std::string::npos) << i;
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
  server.Stop();
}

TEST(ServeConcurrencyTest, DrainStopDeliversResponsesThenEof) {
  ServingTable table = OpenTestTable("drain");
  QueryService service(&table);
  SocketServer server(&service);
  const std::string socket_path = ScratchDir("conc/drain") + "/serve.sock";
  ASSERT_TRUE(server.Start(socket_path, /*num_threads=*/2).ok());

  LineClient client(socket_path);
  const std::string response = client.RoundTrip("stats");
  EXPECT_NE(response.find("\"ok\":true"), std::string::npos);
  // Drain half-closes the read side only: the connection winds down
  // with a clean EOF (the daemon's SIGTERM path), never a mid-response
  // cut or an ECONNRESET.
  std::thread stopper(
      [&server] { server.Stop(SocketServer::StopMode::kDrain); });
  EXPECT_TRUE(client.WaitForEof());
  stopper.join();
}

TEST(ServeConcurrencyTest, StopUnblocksIdleConnections) {
  ServingTable table = OpenTestTable("stop");
  QueryService service(&table);
  SocketServer server(&service);
  const std::string socket_path = ScratchDir("conc/stop") + "/serve.sock";
  ASSERT_TRUE(server.Start(socket_path, /*num_threads=*/2).ok());

  // An idle client holds a connection open; Stop must still return
  // (shutting the connection down) instead of joining forever.
  LineClient idle(socket_path);
  ASSERT_FALSE(idle.RoundTrip("stats").empty());
  server.Stop();
  SUCCEED();
}

}  // namespace
}  // namespace serve
}  // namespace divexp
