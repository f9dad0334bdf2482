#include "tools/cli_serve.h"

#include <poll.h>
#include <unistd.h>

#include <cerrno>
#include <csignal>
#include <cstdlib>
#include <iostream>
#include <istream>
#include <ostream>

#include "serve/artifact.h"

namespace divexp {
namespace cli {
namespace {

Result<long> ParseInt(const std::string& flag, const std::string& value) {
  char* end = nullptr;
  const long v = std::strtol(value.c_str(), &end, 10);
  if (end != value.c_str() + value.size() || value.empty()) {
    return Status::InvalidArgument("bad value for " + flag + ": '" + value +
                                   "'");
  }
  return v;
}

// Self-pipe for SIGTERM/SIGINT: the handler may only make
// async-signal-safe calls, so it writes one byte here and the daemon's
// wait loop polls the read end alongside stdin.
volatile int g_signal_pipe_write = -1;

extern "C" void HandleShutdownSignal(int /*signo*/) {
  const int fd = g_signal_pipe_write;
  if (fd < 0) return;
  const char byte = 1;
  const int saved_errno = errno;
  [[maybe_unused]] const ssize_t n = ::write(fd, &byte, 1);
  errno = saved_errno;
}

/// Blocks until the daemon should shut down: `in` reaches EOF or sends
/// a `quit` line, or — when `in` is the process's real stdin — a
/// SIGTERM/SIGINT arrives. Signal wiring only engages for std::cin:
/// unit tests drive shutdown through stream EOF instead.
void WaitForShutdown(std::istream& in, std::ostream& log) {
  if (&in != &std::cin) {
    std::string line;
    while (std::getline(in, line)) {
      if (line == "quit") break;
    }
    return;
  }

  int pipe_fds[2];
  if (::pipe(pipe_fds) != 0) {
    // No self-pipe: fall back to the plain blocking loop; SIGTERM then
    // takes the default (non-draining) disposition.
    std::string line;
    while (std::getline(std::cin, line)) {
      if (line == "quit") break;
    }
    return;
  }
  g_signal_pipe_write = pipe_fds[1];
  struct sigaction action {};
  action.sa_handler = HandleShutdownSignal;
  ::sigemptyset(&action.sa_mask);
  struct sigaction old_term {}, old_int {};
  ::sigaction(SIGTERM, &action, &old_term);
  ::sigaction(SIGINT, &action, &old_int);

  std::string pending;
  bool done = false;
  while (!done) {
    pollfd pfds[2] = {};
    pfds[0].fd = STDIN_FILENO;
    pfds[0].events = POLLIN;
    pfds[1].fd = pipe_fds[0];
    pfds[1].events = POLLIN;
    const int pr = ::poll(pfds, 2, -1);
    if (pr < 0) {
      if (errno == EINTR) continue;  // the handler ran; loop re-polls
      break;
    }
    if (pfds[1].revents != 0) {
      log << "shutdown signal received; draining connections\n";
      break;
    }
    if (pfds[0].revents != 0) {
      char buf[256];
      ssize_t n;
      do {
        n = ::read(STDIN_FILENO, buf, sizeof(buf));
      } while (n < 0 && errno == EINTR);
      if (n <= 0) break;  // stdin EOF stops the daemon
      pending.append(buf, static_cast<size_t>(n));
      size_t newline;
      while ((newline = pending.find('\n')) != std::string::npos) {
        std::string line = pending.substr(0, newline);
        pending.erase(0, newline + 1);
        if (!line.empty() && line.back() == '\r') line.pop_back();
        if (line == "quit") {
          done = true;
          break;
        }
      }
    }
  }

  ::sigaction(SIGTERM, &old_term, nullptr);
  ::sigaction(SIGINT, &old_int, nullptr);
  g_signal_pipe_write = -1;
  ::close(pipe_fds[0]);
  ::close(pipe_fds[1]);
}

}  // namespace

Result<ServeOptions> ParseServeOptions(const std::vector<std::string>& args) {
  ServeOptions opts;
  std::vector<std::string> expanded;
  expanded.reserve(args.size());
  for (const std::string& arg : args) {
    size_t eq;
    if (arg.rfind("--", 0) == 0 &&
        (eq = arg.find('=')) != std::string::npos) {
      expanded.push_back(arg.substr(0, eq));
      expanded.push_back(arg.substr(eq + 1));
    } else {
      expanded.push_back(arg);
    }
  }
  for (size_t i = 0; i < expanded.size(); ++i) {
    const std::string& arg = expanded[i];
    auto next = [&]() -> Result<std::string> {
      if (i + 1 >= expanded.size()) {
        return Status::InvalidArgument("missing value for " + arg);
      }
      return expanded[++i];
    };
    if (arg == "--help" || arg == "-h") {
      opts.show_help = true;
    } else if (arg == "--table") {
      DIVEXP_ASSIGN_OR_RETURN(opts.table_path, next());
    } else if (arg == "--socket") {
      DIVEXP_ASSIGN_OR_RETURN(opts.socket_path, next());
    } else if (arg == "--threads") {
      DIVEXP_ASSIGN_OR_RETURN(std::string v, next());
      DIVEXP_ASSIGN_OR_RETURN(long t, ParseInt(arg, v));
      if (t < 1 || t > 256) {
        return Status::InvalidArgument("--threads must be in [1, 256]");
      }
      opts.num_threads = static_cast<size_t>(t);
    } else if (arg == "--verify") {
      opts.verify = true;
    } else if (arg == "--deadline-ms") {
      DIVEXP_ASSIGN_OR_RETURN(std::string v, next());
      DIVEXP_ASSIGN_OR_RETURN(long d, ParseInt(arg, v));
      if (d < 0) {
        return Status::InvalidArgument("--deadline-ms must be >= 0");
      }
      opts.service.limits.deadline_ms = static_cast<int64_t>(d);
    } else if (arg == "--max-memory-mb") {
      DIVEXP_ASSIGN_OR_RETURN(std::string v, next());
      DIVEXP_ASSIGN_OR_RETURN(long m, ParseInt(arg, v));
      if (m < 0) {
        return Status::InvalidArgument("--max-memory-mb must be >= 0");
      }
      opts.service.limits.max_memory_mb = static_cast<uint64_t>(m);
    } else if (arg == "--cache-mb") {
      DIVEXP_ASSIGN_OR_RETURN(std::string v, next());
      DIVEXP_ASSIGN_OR_RETURN(long m, ParseInt(arg, v));
      if (m < 0) {
        return Status::InvalidArgument("--cache-mb must be >= 0");
      }
      opts.service.cache.capacity_bytes =
          static_cast<size_t>(m) << 20;
    } else if (arg == "--no-cache") {
      opts.service.cache_enabled = false;
    } else if (arg == "--idle-timeout-ms") {
      DIVEXP_ASSIGN_OR_RETURN(std::string v, next());
      DIVEXP_ASSIGN_OR_RETURN(long t, ParseInt(arg, v));
      if (t < 0) {
        return Status::InvalidArgument("--idle-timeout-ms must be >= 0");
      }
      opts.socket.idle_timeout_ms = static_cast<uint64_t>(t);
    } else {
      return Status::InvalidArgument("unknown flag '" + arg + "'");
    }
  }
  if (!opts.show_help && opts.table_path.empty()) {
    return Status::InvalidArgument("serve requires --table");
  }
  return opts;
}

std::string ServeUsageString() {
  return
      "divexp serve — query a pattern-table artifact interactively or\n"
      "as a daemon\n"
      "\n"
      "usage: divexp serve --table FILE [options]\n"
      "\n"
      "  --table FILE       pattern-table artifact (divexp\n"
      "                     --save-artifact), mmapped zero-copy\n"
      "  --socket PATH      listen on a unix socket instead of the\n"
      "                     stdin/stdout REPL; serves until stdin EOF\n"
      "  --threads N        server threads sharing the mapping\n"
      "                     (default: 4)\n"
      "  --verify           fully validate the artifact (all section\n"
      "                     CRCs + fingerprint) before serving\n"
      "  --deadline-ms MS   per-query wall-clock budget (0 = none)\n"
      "  --max-memory-mb M  per-query tracked-memory budget\n"
      "  --cache-mb M       result cache capacity (default 64,\n"
      "                     0 disables)\n"
      "  --no-cache         disable the result cache\n"
      "  --idle-timeout-ms MS  disconnect socket clients idle for MS\n"
      "                     (default 60000, 0 = never; counted in\n"
      "                     serve.idle_disconnects)\n"
      "\n"
      "protocol (one request per line, one JSON response per line):\n"
      "  topk [k=10] [key=divergence|significance|support]\n"
      "       [order=desc|asc] [min_support=S] [min_len=N] [max_len=N]\n"
      "  browse items=attr=val[,attr=val...]\n"
      "  shapley items=attr=val[,attr=val...]\n"
      "  corrective [k=10] [min_factor=F]\n"
      "  stats\n"
      "  quit\n";
}

Status RunServe(const ServeOptions& opts, std::istream& in,
                std::ostream& out, std::ostream& log) {
  const serve::ArtifactValidation validation =
      opts.verify ? serve::ArtifactValidation::kFull
                  : serve::ArtifactValidation::kHeader;
  DIVEXP_ASSIGN_OR_RETURN(serve::ServingTable table,
                          serve::OpenServingTable(opts.table_path,
                                                  validation));
  const serve::TableView& view = table.view();
  log << "serving " << (view.size() - 1) << " patterns from "
      << opts.table_path << " (mmap backing)\n";

  serve::QueryService service(&table, opts.service);
  if (opts.socket_path.empty()) {
    serve::ServeLoop(service, in, out);
    return Status::OK();
  }

  serve::SocketServer server(&service, opts.socket);
  DIVEXP_RETURN_NOT_OK(server.Start(opts.socket_path, opts.num_threads));
  log << "listening on " << opts.socket_path << " with "
      << opts.num_threads << " thread(s); EOF on stdin, SIGTERM, or "
      << "SIGINT stops\n";
  // Block until the controlling stream closes or a shutdown signal
  // arrives, then drain: in-flight responses finish before the
  // listener goes away.
  WaitForShutdown(in, log);
  server.Stop(serve::SocketServer::StopMode::kDrain);
  return Status::OK();
}

}  // namespace cli
}  // namespace divexp
