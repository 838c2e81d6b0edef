// ringsimd — multi-tenant serving daemon for the ring-protection machine.
//
//   ringsimd --socket=PATH [--threads=T] [--slice-cycles=N] [--max-cycles=N]
//
// Listens on a Unix-domain stream socket and turns workload submissions
// into machines served by the work-stealing pool in src/serve/server.h.
// The first submission of a distinct program boots a golden image; every
// later submission of the same program is a copy-on-write clone. A
// submission's fingerprint is bit-identical to a standalone
// `ringsim program.asm` run of the same guest (the CI smoke job pins
// this).
//
// Wire protocol: newline-terminated command lines per connection, state
// accumulating until `run`.
//
//   tenant <name>            attribute the next submission to <name>
//   budget <tenant> <max-cycles|-> <max-memory-words|->
//                            set a tenant's budget (`-` = unlimited)
//   stdin <text>             tty input fed to the machine before it runs
//   max-cycles <n>           per-submission simulated-cycle cap
//   source <n-bytes>         next <n-bytes> raw bytes are kasm source
//                            (with its `;;` manifest)
//   image <n-bytes>          next <n-bytes> raw bytes are a snapshot
//                            image (as written by ringsim --snapshot-out)
//   run                      submit; replies `queued <id>`, then blocks
//                            until retirement and replies
//                            `done <id> status=<s> exit=<n> cycles=<n>
//                             fingerprint=<hex16> [error=...]` followed
//                            by `tty <n-bytes>` + that many raw bytes
//   ping                     replies `pong` (readiness probe)
//   shutdown                 replies `bye`, drains queued work, exits
//
// A command line longer than kMaxLineBytes gets `error line too long` and
// the connection is closed; other connections are unaffected.
//
// SIGINT/SIGTERM drain and exit cleanly, removing the socket file.
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <list>
#include <string>
#include <thread>
#include <vector>

#include "src/base/strings.h"
#include "src/serve/server.h"

namespace rings {
namespace {

// Longest accepted command line, terminator excluded. Payloads travel as
// raw bytes after `source`/`image`, so real command lines are short.
constexpr size_t kMaxLineBytes = 64 * 1024;

std::atomic<int> g_listen_fd{-1};
std::atomic<bool> g_stop{false};

// Async-signal-safe: flag the stop and shut the listening socket down so
// the blocked accept() returns and the main loop drains. shutdown(), not
// close() — closing an fd another thread is accept()ing on does not wake
// it; the main loop owns the close.
void HandleSignal(int) {
  g_stop.store(true);
  const int fd = g_listen_fd.exchange(-1);
  if (fd >= 0) {
    shutdown(fd, SHUT_RDWR);
  }
}

// Minimal buffered reader over a connection fd: text lines for commands,
// exact byte counts for source/image payloads.
class ConnReader {
 public:
  explicit ConnReader(int fd) : fd_(fd) {}

  // Reads one '\n'-terminated line (terminator stripped). False on EOF,
  // on error, or once kMaxLineBytes arrive without a terminator (then
  // line_too_long() is true).
  bool ReadLine(std::string* line) {
    line->clear();
    while (true) {
      for (; pos_ < buffer_.size(); ++pos_) {
        if (buffer_[pos_] == '\n') {
          line->assign(buffer_.begin(), buffer_.begin() + pos_);
          buffer_.erase(buffer_.begin(), buffer_.begin() + pos_ + 1);
          pos_ = 0;
          return true;
        }
      }
      if (pos_ > kMaxLineBytes) {
        line_too_long_ = true;
        return false;
      }
      if (!Fill()) {
        return false;
      }
    }
  }

  bool line_too_long() const { return line_too_long_; }

  // Reads exactly `n` raw bytes. False on EOF or error.
  bool ReadBytes(size_t n, std::vector<uint8_t>* out) {
    while (buffer_.size() < n) {
      if (!Fill()) {
        return false;
      }
    }
    out->assign(buffer_.begin(), buffer_.begin() + n);
    buffer_.erase(buffer_.begin(), buffer_.begin() + n);
    pos_ = 0;
    return true;
  }

 private:
  bool Fill() {
    char chunk[4096];
    const ssize_t got = read(fd_, chunk, sizeof(chunk));
    if (got <= 0) {
      return false;
    }
    buffer_.insert(buffer_.end(), chunk, chunk + got);
    return true;
  }

  int fd_;
  std::vector<char> buffer_;
  size_t pos_ = 0;
  bool line_too_long_ = false;
};

bool WriteAll(int fd, const void* data, size_t n) {
  const char* p = static_cast<const char*>(data);
  while (n > 0) {
    const ssize_t wrote = write(fd, p, n);
    if (wrote <= 0) {
      return false;
    }
    p += wrote;
    n -= static_cast<size_t>(wrote);
  }
  return true;
}

bool WriteLine(int fd, const std::string& line) {
  const std::string out = line + "\n";
  return WriteAll(fd, out.data(), out.size());
}

// A malformed flag value: a structured usage error, exit 2.
int BadFlag(const std::string& flag, const char* want) {
  std::fprintf(stderr, "ringsimd: %s: %s\n", flag.c_str(), want);
  return 2;
}

std::vector<std::string> SplitWords(const std::string& line) {
  std::vector<std::string> words;
  size_t i = 0;
  while (i < line.size()) {
    while (i < line.size() && line[i] == ' ') ++i;
    const size_t start = i;
    while (i < line.size() && line[i] != ' ') ++i;
    if (i > start) {
      words.push_back(line.substr(start, i - start));
    }
  }
  return words;
}

std::string FormatDone(const Completion& completion) {
  std::string line = StrFormat(
      "done %llu status=%s exit=%d cycles=%llu fingerprint=%016llx",
      static_cast<unsigned long long>(completion.id),
      std::string(ServeStatusName(completion.status)).c_str(), completion.exit_code,
      static_cast<unsigned long long>(completion.cycles),
      static_cast<unsigned long long>(completion.fingerprint));
  if (!completion.error.empty()) {
    std::string sanitized = completion.error;
    for (char& c : sanitized) {
      if (c == '\n') c = ' ';
    }
    line += " error=" + sanitized;
  }
  return line;
}

// One client connection: accumulate submission state line by line,
// submit on `run`, stream the completion back.
void ServeConnection(Server* server, int fd) {
  ConnReader reader(fd);
  Submission pending;
  std::string line;
  while (!g_stop.load() && reader.ReadLine(&line)) {
    const std::vector<std::string> words = SplitWords(line);
    if (words.empty()) {
      continue;
    }
    const std::string& cmd = words[0];
    if (cmd == "ping") {
      if (!WriteLine(fd, "pong")) break;
    } else if (cmd == "tenant" && words.size() == 2) {
      pending.tenant = words[1];
      if (!WriteLine(fd, "ok")) break;
    } else if (cmd == "budget" && words.size() == 4) {
      TenantBudget budget;
      if ((words[2] != "-" && !ParseU64(words[2], &budget.max_cycles_total)) ||
          (words[3] != "-" && !ParseU64(words[3], &budget.max_memory_words))) {
        if (!WriteLine(fd, "error budget: expected <tenant> <max-cycles|-> <max-memory|->"))
          break;
        continue;
      }
      server->SetTenantBudget(words[1], budget);
      if (!WriteLine(fd, "ok")) break;
    } else if (cmd == "stdin") {
      pending.stdin_text = line.size() > 6 ? line.substr(6) : "";
      if (!WriteLine(fd, "ok")) break;
    } else if (cmd == "max-cycles" && words.size() == 2) {
      if (!ParseU64(words[1], &pending.max_cycles)) {
        if (!WriteLine(fd, "error max-cycles: not a number")) break;
        continue;
      }
      if (!WriteLine(fd, "ok")) break;
    } else if ((cmd == "source" || cmd == "image") && words.size() == 2) {
      uint64_t n = 0;
      if (!ParseU64(words[1], &n) || n == 0 || n > (uint64_t{1} << 30)) {
        if (!WriteLine(fd, StrFormat("error %s: expected a byte count", cmd.c_str()))) break;
        continue;
      }
      std::vector<uint8_t> bytes;
      if (!reader.ReadBytes(static_cast<size_t>(n), &bytes)) {
        break;  // client hung up mid-payload
      }
      if (cmd == "source") {
        pending.source.assign(bytes.begin(), bytes.end());
        pending.image.clear();
      } else {
        pending.image = std::move(bytes);
        pending.source.clear();
      }
      if (!WriteLine(fd, "ok")) break;
    } else if (cmd == "run") {
      const uint64_t id = server->Submit(std::move(pending));
      pending = Submission{};
      if (!WriteLine(fd, StrFormat("queued %llu", static_cast<unsigned long long>(id)))) break;
      const Completion completion = server->Wait(id);
      if (!WriteLine(fd, FormatDone(completion))) break;
      if (!WriteLine(fd, StrFormat("tty %zu", completion.tty.size()))) break;
      if (!completion.tty.empty() &&
          !WriteAll(fd, completion.tty.data(), completion.tty.size())) {
        break;
      }
    } else if (cmd == "shutdown") {
      WriteLine(fd, "bye");
      HandleSignal(0);
      break;
    } else {
      if (!WriteLine(fd, StrFormat("error unknown command '%s'", cmd.c_str()))) break;
    }
  }
  if (reader.line_too_long()) {
    WriteLine(fd, "error line too long");
  }
  close(fd);
}

int RunDaemon(const std::string& socket_path, const ServeConfig& config) {
  const int listen_fd = socket(AF_UNIX, SOCK_STREAM, 0);
  if (listen_fd < 0) {
    std::fprintf(stderr, "ringsimd: socket: %s\n", std::strerror(errno));
    return 2;
  }
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (socket_path.size() >= sizeof(addr.sun_path)) {
    std::fprintf(stderr, "ringsimd: socket path too long: %s\n", socket_path.c_str());
    close(listen_fd);
    return 2;
  }
  std::strncpy(addr.sun_path, socket_path.c_str(), sizeof(addr.sun_path) - 1);
  unlink(socket_path.c_str());  // stale socket from a previous run
  if (bind(listen_fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0 ||
      listen(listen_fd, 64) < 0) {
    std::fprintf(stderr, "ringsimd: bind %s: %s\n", socket_path.c_str(), std::strerror(errno));
    close(listen_fd);
    return 2;
  }
  g_listen_fd.store(listen_fd);
  std::signal(SIGINT, HandleSignal);
  std::signal(SIGTERM, HandleSignal);
  std::signal(SIGPIPE, SIG_IGN);  // a vanished client must not kill the daemon

  Server server(config);
  std::printf("ringsimd: listening on %s (%d worker thread(s))\n", socket_path.c_str(),
              server.config().threads);
  std::fflush(stdout);

  // One thread per open connection. Each flags its own end, and the
  // accept loop joins the finished ones before taking the next
  // connection, so a long-lived daemon holds threads (and their stacks)
  // only for connections still open.
  struct Connection {
    std::thread thread;
    std::atomic<bool> done{false};
  };
  std::list<Connection> connections;
  while (!g_stop.load()) {
    const int fd = accept(listen_fd, nullptr, nullptr);
    if (fd < 0) {
      break;  // listening socket closed by a signal or `shutdown`
    }
    std::erase_if(connections, [](Connection& c) {
      if (!c.done.load()) {
        return false;
      }
      c.thread.join();
      return true;
    });
    Connection& c = connections.emplace_back();
    c.thread = std::thread([&server, fd, &c] {
      ServeConnection(&server, fd);
      c.done.store(true);
    });
  }
  g_listen_fd.store(-1);
  close(listen_fd);
  // Drain: refuse new work, finish everything queued, then join the
  // connection threads (their pending Waits complete during Shutdown).
  server.Shutdown();
  for (Connection& c : connections) {
    c.thread.join();
  }
  unlink(socket_path.c_str());
  std::printf("ringsimd: shut down cleanly\n");
  return 0;
}

}  // namespace
}  // namespace rings

int main(int argc, char** argv) {
  std::string socket_path;
  rings::ServeConfig config;
  uint64_t threads = 0;
  constexpr char kUsage[] =
      "usage: ringsimd --socket=PATH [--threads=T] [--slice-cycles=N]\n"
      "                [--max-cycles=N]\n";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--socket=", 0) == 0) {
      socket_path = arg.substr(9);
      if (socket_path.empty()) return rings::BadFlag(arg, "expected a path");
    } else if (arg.rfind("--threads=", 0) == 0) {
      if (!rings::ParseU64(arg.substr(10), &threads) || threads == 0 || threads > 1024)
        return rings::BadFlag(arg, "expected a thread count in 1..1024");
      config.threads = static_cast<int>(threads);
    } else if (arg.rfind("--slice-cycles=", 0) == 0) {
      if (!rings::ParseU64(arg.substr(15), &config.slice_cycles) || config.slice_cycles == 0)
        return rings::BadFlag(arg, "expected a cycle count >= 1");
    } else if (arg.rfind("--max-cycles=", 0) == 0) {
      if (!rings::ParseU64(arg.substr(13), &config.default_max_cycles) ||
          config.default_max_cycles == 0) {
        return rings::BadFlag(arg, "expected a cycle count >= 1");
      }
    } else if (arg == "--help" || arg == "-h") {
      std::printf("%s", kUsage);
      return 0;
    } else {
      std::fprintf(stderr, "ringsimd: unknown option %s (try --help)\n", arg.c_str());
      return 2;
    }
  }
  if (socket_path.empty()) {
    std::fprintf(stderr, "%s", kUsage);
    return 2;
  }
  return rings::RunDaemon(socket_path, config);
}
