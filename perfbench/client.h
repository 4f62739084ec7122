// Process and socket side of the benchmark: spawning `itm served`, one
// client connection, and the open-loop generator that drives it.
#pragma once

#include <sys/types.h>

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "bench_lib.h"

namespace perfbench {

// One `itm served --listen` child process. The destructor stops it (SIGTERM,
// then SIGKILL after a grace period) and waits until it has exited.
class ServerProcess {
 public:
  // Spawns `itm served` on `snapshot`, listening on `socket_path`, with
  // `threads` workers and the per-slot answer cache off. Server output goes
  // to `log_path`. Null and `error` set when the spawn fails.
  [[nodiscard]] static std::unique_ptr<ServerProcess> spawn(
      const std::string& itm, const std::string& snapshot,
      const std::string& socket_path, int threads, const std::string& log_path,
      std::string* error);

  ~ServerProcess();
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  // Connects to the socket, retrying until it accepts or `timeout_s`
  // passes. Returns the connected fd, or -1.
  [[nodiscard]] int connect(double timeout_s) const;

  // Peak resident set of the server (VmHWM), in bytes; 0 when unreadable.
  [[nodiscard]] std::uint64_t peak_rss_bytes() const;

  // Stops the server and waits for it. True when it exited with status 0.
  bool stop();

 private:
  ServerProcess(pid_t pid, std::string socket_path)
      : pid_(pid), socket_path_(std::move(socket_path)) {}
  pid_t pid_;
  std::string socket_path_;
  bool stopped_ = false;
};

// Sends `line` and reads one reply line (closed loop). nullopt on EOF,
// error or `timeout_s` without a full line.
[[nodiscard]] std::optional<std::string> round_trip(int fd,
                                                    const std::string& line,
                                                    double timeout_s);

// One open-loop request: the line sent and when it falls due, in
// nanoseconds from the phase start.
struct Request {
  std::string line;
  std::int64_t due_ns = 0;
};

struct PhaseResult {
  std::vector<Timing> timing;                       // per request
  std::vector<std::optional<std::string>> replies;  // per request
  std::vector<BacklogSample> backlog;  // one sample per send
  double wall_s = 0;                   // first due time to last reply
};

// Runs one open-loop phase over the connected `fd` on the calling thread:
// at each request's due time it sends every request already due, and it
// reads replies, which the server returns in request order, as they come.
// Gives up after `reply_timeout_s` without a reply once everything is sent;
// the requests left unanswered keep recv_ns = -1.
[[nodiscard]] PhaseResult run_open_loop(int fd,
                                        const std::vector<Request>& requests,
                                        double reply_timeout_s);

}  // namespace perfbench
