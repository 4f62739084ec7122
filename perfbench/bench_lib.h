// Pure logic of the repo benchmark, kept apart from process and socket code
// so bench_lib_test.cpp can pin it down: the percentile rule, open-loop
// latency timed from the due time, the ladder's backlog rule, reply
// checking, and the in-memory span log written as a Chrome trace.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <ostream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace perfbench {

// ---- Percentiles ----

// The highest of 99.99, 99.9, 99, 90 and 50 that has at least ten samples
// beyond it among `n`; 0 when even the median lacks them (n < 20).
[[nodiscard]] double supported_percentile(std::size_t n);

// Nearest-rank percentile `p` (0 < p <= 100) of ascending `sorted`.
// Infinite samples (failed requests) sort last and can be returned.
[[nodiscard]] double percentile(const std::vector<double>& sorted, double p);

// ---- Fastest windows ----
//
// The shared host runs a CPU-bound loop at one speed for seconds at a time
// and up to 1.7x slower for the next seconds, so a percentile over a whole
// run moves with the share of slow stretches the run happened to hit. The
// in-process figures therefore come from the run's fastest windows of
// consecutive samples: what the program does when the host gives it a
// whole core. Each figure picks its own fast windows (the 2nd percentile of
// the windows' p99 for a p99), because lookups slow down with the host's
// processor and the rollup scans that set the tail with its memory, and the
// two do not slow down together.

// Half-open index ranges of consecutive samples of `in_order`, each closed
// once it holds at least `min_count` samples summing to at least `min_sum`.
// A last window that falls short joins the one before it; a single short
// window is kept.
[[nodiscard]] std::vector<std::pair<std::size_t, std::size_t>> windows(
    const std::vector<double>& in_order, std::size_t min_count, double min_sum);

// Each window's percentile `p` of its samples, in window order.
[[nodiscard]] std::vector<double> window_percentiles(
    const std::vector<double>& in_order,
    const std::vector<std::pair<std::size_t, std::size_t>>& ranges, double p);

// Each window's samples per unit of their sum (queries per microsecond for
// latencies in microseconds), in window order.
[[nodiscard]] std::vector<double> window_rates(
    const std::vector<double>& in_order,
    const std::vector<std::pair<std::size_t, std::size_t>>& ranges);

// Median of `values` (upper median for even counts); 0 for none.
[[nodiscard]] double median(std::vector<double> values);

// ---- Open-loop timing ----

// One request of an open-loop phase, in nanoseconds from the phase start.
// recv_ns < 0 marks a reply that never arrived.
struct Timing {
  std::int64_t due_ns = 0;
  std::int64_t sent_ns = 0;
  std::int64_t recv_ns = -1;
};

// Latency of each request in microseconds, timed from when it was due, so a
// stall also charges every request queued behind it. A request that failed
// (`ok[i]` false) or got no reply is +infinity: it misses any limit.
[[nodiscard]] std::vector<double> latencies_from_due_us(
    const std::vector<Timing>& timing, const std::vector<bool>& ok);

// How late the generator sent each request, in microseconds.
[[nodiscard]] std::vector<double> lateness_us(const std::vector<Timing>& timing);

// ---- Ladder backlog rule ----

// Requests sent but not yet answered, sampled by the sender at `t_ns`.
struct BacklogSample {
  std::int64_t t_ns = 0;
  std::int64_t outstanding = 0;
};

// True when the backlog grew over the phase: the median outstanding count
// in the last quarter of the phase exceeds the first quarter's by more than
// one millisecond of arrivals at `rate_qps` (and by more than 8 requests).
[[nodiscard]] bool backlog_grew(const std::vector<BacklogSample>& samples,
                                double rate_qps);

// ---- Reply checking ----

// The reference reply to one request. Control replies carry live counters
// after a fixed head, so for them only the head (`prefix`) is compared.
struct Expected {
  std::string text;
  bool prefix = false;
};

struct ReplyCheck {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<bool> ok;        // per request
  std::string first_failure;   // "" when none failed
};

// Compares replies with the reference answers. A missing reply, an
// "error:" line or any difference from the reference is a failure.
[[nodiscard]] ReplyCheck check_replies(
    const std::vector<Expected>& expected,
    const std::vector<std::optional<std::string>>& got);

// ---- Spans ----

// In-memory span log for the traced run: name, start, end and parent of
// each span opened by the benchmark around a call into one layer. Spans
// nest on the benchmark's single timing thread. A disabled log records
// nothing, so untraced runs pay one branch per span.
class SpanLog {
 public:
  explicit SpanLog(bool enabled);

  struct Span {
    std::string name;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = -1;  // -1 while open
    int parent = -1;           // index into spans(), -1 at the root
    int depth = 0;
  };

  // Opens a span under the innermost open one; returns its index (-1 when
  // disabled).
  int open(std::string_view name);
  void close(int index);

  // Records a finished span directly (for intervals measured elsewhere).
  void add(std::string_view name, std::int64_t start_ns, std::int64_t end_ns,
           int parent);

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }
  [[nodiscard]] std::int64_t now_ns() const;
  // Self time per span name: each span's duration minus the part its
  // children cover, summed per name, in seconds.
  [[nodiscard]] std::vector<std::pair<std::string, double>> self_seconds()
      const;

  // Chrome trace-event JSON (complete "X" events, microseconds; args carry
  // depth, id and parent id), the format `itm obs trace` reads.
  void write_chrome_trace(std::ostream& os) const;

  // RAII span.
  class Scope {
   public:
    Scope(SpanLog& log, std::string_view name)
        : log_(&log), index_(log.open(name)) {}
    ~Scope() { log_->close(index_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanLog* log_;
    int index_;
  };

 private:
  bool enabled_;
  std::int64_t epoch_ns_;
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

// Monotonic clock in nanoseconds (CLOCK_MONOTONIC, the clock the open-loop
// sender sleeps on).
[[nodiscard]] std::int64_t monotonic_ns();

// JSON string escaping for the result lines.
[[nodiscard]] std::string json_escape(std::string_view s);

}  // namespace perfbench
