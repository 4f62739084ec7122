#include "client.h"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <spawn.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <fstream>
#include <sstream>

extern char** environ;

namespace perfbench {

namespace {

void sleep_until_ns(std::int64_t target_ns) {
  timespec ts{};
  ts.tv_sec = static_cast<time_t>(target_ns / 1'000'000'000);
  ts.tv_nsec = static_cast<long>(target_ns % 1'000'000'000);
  while (clock_nanosleep(CLOCK_MONOTONIC, TIMER_ABSTIME, &ts, nullptr) ==
         EINTR) {
  }
}

bool write_all(int fd, const char* data, std::size_t size) {
  std::size_t written = 0;
  while (written < size) {
    const ssize_t n = ::send(fd, data + written, size - written, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    written += static_cast<std::size_t>(n);
  }
  return true;
}

}  // namespace

std::unique_ptr<ServerProcess> ServerProcess::spawn(
    const std::string& itm, const std::string& snapshot,
    const std::string& socket_path, int threads, const std::string& log_path,
    std::string* error) {
  ::unlink(socket_path.c_str());
  std::vector<std::string> args = {itm,         "served",
                                   "--snapshot", snapshot,
                                   "--listen",   socket_path,
                                   "--threads",  std::to_string(threads),
                                   "--cache-size", "0"};
  std::vector<char*> argv;
  for (std::string& a : args) argv.push_back(a.data());
  argv.push_back(nullptr);

  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_addopen(&actions, 0, "/dev/null", O_RDONLY, 0);
  posix_spawn_file_actions_addopen(&actions, 1, log_path.c_str(),
                                   O_WRONLY | O_CREAT | O_APPEND, 0644);
  posix_spawn_file_actions_adddup2(&actions, 1, 2);
  pid_t pid = 0;
  const int rc =
      posix_spawn(&pid, itm.c_str(), &actions, nullptr, argv.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  if (rc != 0) {
    if (error != nullptr) *error = itm + ": spawn failed: " + std::strerror(rc);
    return nullptr;
  }
  return std::unique_ptr<ServerProcess>(new ServerProcess(pid, socket_path));
}

ServerProcess::~ServerProcess() { stop(); }

int ServerProcess::connect(double timeout_s) const {
  const std::int64_t deadline =
      monotonic_ns() + static_cast<std::int64_t>(timeout_s * 1e9);
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, socket_path_.c_str(), sizeof addr.sun_path - 1);
  while (monotonic_ns() < deadline) {
    const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd < 0) return -1;
    if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) ==
        0) {
      return fd;
    }
    ::close(fd);
    // The server exited (bad snapshot, bad flags): stop waiting.
    int status = 0;
    if (::waitpid(pid_, &status, WNOHANG) == pid_) return -1;
    sleep_until_ns(monotonic_ns() + 200'000);
  }
  return -1;
}

std::uint64_t ServerProcess::peak_rss_bytes() const {
  std::ifstream status("/proc/" + std::to_string(pid_) + "/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream is(line.substr(6));
      std::uint64_t kb = 0;
      is >> kb;
      return kb * 1024;
    }
  }
  return 0;
}

bool ServerProcess::stop() {
  if (stopped_) return true;
  stopped_ = true;
  int status = 0;
  if (::waitpid(pid_, &status, WNOHANG) == pid_) {
    return WIFEXITED(status) && WEXITSTATUS(status) == 0;
  }
  ::kill(pid_, SIGTERM);
  const std::int64_t deadline = monotonic_ns() + 5'000'000'000;
  while (monotonic_ns() < deadline) {
    if (::waitpid(pid_, &status, WNOHANG) == pid_) {
      ::unlink(socket_path_.c_str());
      return WIFEXITED(status) && WEXITSTATUS(status) == 0;
    }
    sleep_until_ns(monotonic_ns() + 1'000'000);
  }
  ::kill(pid_, SIGKILL);
  ::waitpid(pid_, &status, 0);
  ::unlink(socket_path_.c_str());
  return false;
}

std::optional<std::string> round_trip(int fd, const std::string& line,
                                      double timeout_s) {
  const std::string out = line + "\n";
  if (!write_all(fd, out.data(), out.size())) return std::nullopt;
  std::string buffer;
  const std::int64_t deadline =
      monotonic_ns() + static_cast<std::int64_t>(timeout_s * 1e9);
  for (;;) {
    const std::size_t nl = buffer.find('\n');
    if (nl != std::string::npos) {
      // Closed loop: exactly one reply is in flight, so nothing follows it.
      return buffer.substr(0, nl);
    }
    const std::int64_t left_ms = (deadline - monotonic_ns()) / 1'000'000;
    if (left_ms <= 0) return std::nullopt;
    pollfd pfd{fd, POLLIN, 0};
    if (::poll(&pfd, 1, static_cast<int>(left_ms)) <= 0) continue;
    char chunk[4096];
    const ssize_t n = ::read(fd, chunk, sizeof chunk);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      return std::nullopt;
    }
    buffer.append(chunk, static_cast<std::size_t>(n));
  }
}

PhaseResult run_open_loop(int fd, const std::vector<Request>& requests,
                          double reply_timeout_s) {
  const std::size_t n = requests.size();
  PhaseResult result;
  result.timing.resize(n);
  result.replies.resize(n);
  if (n == 0) return result;
  for (std::size_t i = 0; i < n; ++i) {
    result.timing[i].due_ns = requests[i].due_ns;
  }
  result.backlog.reserve(n);
  // One thread polls without sleeping: a timer wake-up on an idle virtual
  // CPU can come milliseconds late, a spinning loop sees each due time and
  // each reply within a microsecond. The socket is non-blocking so a server
  // that stops reading cannot wedge the loop with replies left unread.
  const int flags = ::fcntl(fd, F_GETFL);
  ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
  const std::int64_t start = monotonic_ns() + 1'000'000;
  std::string out;  // sent lines not yet accepted by the socket
  std::size_t out_pos = 0;
  std::string in;
  std::size_t next = 0;  // first request not yet handed to `out`
  std::size_t k = 0;     // replies received
  std::int64_t last_progress = 0;
  char chunk[65536];
  while (k < n) {
    std::int64_t now = monotonic_ns() - start;
    if (next < n && requests[next].due_ns <= now) {
      result.backlog.push_back({now, static_cast<std::int64_t>(next - k)});
      while (next < n && requests[next].due_ns <= now) {
        out += requests[next].line;
        out += '\n';
        result.timing[next].sent_ns = now;
        ++next;
      }
    }
    if (out_pos < out.size()) {
      const ssize_t w = ::send(fd, out.data() + out_pos, out.size() - out_pos,
                               MSG_NOSIGNAL | MSG_DONTWAIT);
      if (w > 0) {
        out_pos += static_cast<std::size_t>(w);
        if (out_pos == out.size()) {
          out.clear();
          out_pos = 0;
        }
      } else if (w < 0 && errno != EAGAIN && errno != EINTR) {
        break;
      }
    }
    const ssize_t got = ::recv(fd, chunk, sizeof chunk, MSG_DONTWAIT);
    if (got > 0) {
      now = monotonic_ns() - start;
      in.append(chunk, static_cast<std::size_t>(got));
      std::size_t pos = 0;
      for (std::size_t nl; k < n && (nl = in.find('\n', pos)) != std::string::npos;) {
        result.replies[k] = in.substr(pos, nl - pos);
        result.timing[k].recv_ns = now;
        ++k;
        pos = nl + 1;
      }
      in.erase(0, pos);
      last_progress = now;
    } else if (got == 0 || (errno != EAGAIN && errno != EINTR)) {
      break;
    } else if (next == n && out.empty() &&
               now - last_progress >
                   static_cast<std::int64_t>(reply_timeout_s * 1e9)) {
      break;
    }
  }
  ::fcntl(fd, F_SETFL, flags);
  std::int64_t last = 0;
  for (const Timing& t : result.timing) last = std::max(last, t.recv_ns);
  result.wall_s =
      static_cast<double>(last - result.timing.front().due_ns) * 1e-9;
  return result;
}

}  // namespace perfbench
