// Flight recorder, progress heartbeat, and stage scopes — the postmortem
// half of the run-analysis layer.
//
// A huge-tier build that dies (OOM kill, SIGTERM, crash) must leave evidence
// behind. The FlightRecorder keeps the last N events in a ring of fixed-size
// slots and flushes them as line-delimited JSON to `--events-out` — on
// normal exit through flush(), and from a signal/terminate handler through
// flush_from_signal(), which touches only pre-opened file descriptors and
// pre-formatted slot bytes (write/lseek/itoa — async-signal-safe by POSIX).
// The ring bounds both memory (kSlots * kSlotBytes, ~192 KiB) and journal
// file size; a build that emits millions of events still leaves a journal of
// the *last* kSlots of them, which is what a postmortem needs.
//
// The ProgressMeter prints a heartbeat line to stderr every ~1 s with the
// current stage, elapsed wall time, RSS, and an ETA extrapolated from shard
// completions the executor reports. StageScope ties the pieces together for
// one pipeline stage: a trace Span, an RSS delta gauge, begin/end journal
// events, the progress meter's stage pointer, and the crash handler's
// current-stage tag.
//
// Everything here is wall-clock — journal and heartbeat are run artifacts,
// never diffed across thread counts (DESIGN.md decision #11).
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>

#include "obs/resource.h"
#include "obs/trace.h"

namespace itm::obs {

class FlightRecorder {
 public:
  static constexpr std::size_t kSlots = 256;
  static constexpr std::size_t kSlotBytes = 768;

  FlightRecorder() = default;
  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;
  ~FlightRecorder();

  // Opens (creates/truncates) the journal file and starts recording. Throws
  // std::runtime_error when the path cannot be opened.
  void enable(const std::string& path);
  [[nodiscard]] bool enabled() const {
    return fd_.load(std::memory_order_acquire) >= 0;
  }

  // Records one event. `fields` is an optional pre-rendered JSON fragment of
  // extra key/values (e.g. `"wall_s": 1.25, "rss_bytes": 1024`) appended to
  // the line's fixed keys (ts_ms, seq, event[, stage]). A line that would
  // overflow its slot degrades to the fixed keys only — the journal stays
  // valid JSONL no matter what a caller passes. No-op until enable().
  void event(std::string_view name, std::string_view fields = {});

  // Normal-exit flush: writes the ring (oldest first) and closes the file.
  // Idempotent; later event() calls are dropped.
  void flush();

  // Async-signal-safe flush: appends a final {"event":"signal",...} line
  // naming the in-flight stage, then writes the ring and closes. Safe to
  // call from a signal handler or std::terminate handler.
  void flush_from_signal(int signo) noexcept;

  [[nodiscard]] std::uint64_t events_recorded() const {
    return seq_.load(std::memory_order_relaxed);
  }

 private:
  struct Slot {
    // len is written (release) only after bytes are fully formatted; the
    // signal path skips slots whose len reads 0, so a torn slot is dropped
    // rather than emitted as garbage.
    std::atomic<std::uint32_t> len{0};
    char bytes[kSlotBytes];
  };

  void write_ring(int fd) noexcept;

  Slot slots_[kSlots];
  std::atomic<std::uint64_t> seq_{0};
  std::atomic<int> fd_{-1};
  std::atomic<bool> flushed_{false};
  std::mutex record_mutex_;
};

// The process-wide recorder (journaling is a per-process concern — there is
// exactly one `--events-out` per run).
[[nodiscard]] FlightRecorder& recorder();

// Installs SIGTERM/SIGINT/SIGSEGV/SIGABRT handlers and a std::terminate
// handler that flush the recorder, then re-raise with default disposition so
// the exit status still reflects the signal. Idempotent.
void install_crash_flush();

// The stage currently executing, for crash tagging and executor rollups.
// Returns "" outside any StageScope. The returned pointer is a stable
// internal buffer holding [a-z0-9_.]-safe text — readable from a signal
// handler.
[[nodiscard]] const char* current_stage();

// Periodic progress heartbeat on stderr. Disabled by default; the CLI's
// --progress flag enables it. Work accounting: stages declare themselves via
// StageScope; the executor adds expected/completed shard counts, from which
// the heartbeat extrapolates a per-stage ETA once any shard has finished.
class ProgressMeter {
 public:
  ProgressMeter() = default;
  ProgressMeter(const ProgressMeter&) = delete;
  ProgressMeter& operator=(const ProgressMeter&) = delete;
  ~ProgressMeter();

  void enable();  // starts the heartbeat thread (idempotent)
  [[nodiscard]] bool enabled() const {
    return enabled_.load(std::memory_order_acquire);
  }
  void disable();  // stops the thread (joins); safe if never enabled

  // Stage lifecycle (called by StageScope).
  void begin_stage(std::string_view name, std::size_t index,
                   std::size_t total);
  void end_stage();

  // Work accounting (called by the executor; cheap relaxed atomics).
  void add_expected(std::uint64_t units) {
    units_expected_.fetch_add(units, std::memory_order_relaxed);
  }
  void add_completed(std::uint64_t units) {
    units_completed_.fetch_add(units, std::memory_order_relaxed);
  }

  [[nodiscard]] std::uint64_t heartbeats_emitted() const {
    return heartbeats_.load(std::memory_order_relaxed);
  }

 private:
  void heartbeat_loop();
  void emit_line();

  std::atomic<bool> enabled_{false};
  std::atomic<bool> stop_{false};
  std::thread thread_;
  std::mutex stage_mutex_;
  std::string stage_name_;
  std::size_t stage_index_ = 0;
  std::size_t stage_total_ = 0;
  Stopwatch run_watch_;
  Stopwatch stage_watch_;
  std::atomic<std::uint64_t> units_expected_{0};
  std::atomic<std::uint64_t> units_completed_{0};
  std::atomic<std::uint64_t> heartbeats_{0};
};

[[nodiscard]] ProgressMeter& progress();

// RAII for one pipeline stage: opens a Span named `name`, samples RSS at the
// ends, journals stage.begin/stage.end, publishes `<name>.rss_delta_bytes` /
// `<name>.rss_bytes` / `<name>.wall_us` wall-clock gauges, and sets the
// crash handler's current-stage tag. close() returns the wall duration in
// seconds (like Span::close).
class StageScope {
 public:
  explicit StageScope(std::string_view name, std::size_t index = 0,
                      std::size_t total = 0);
  ~StageScope();
  StageScope(const StageScope&) = delete;
  StageScope& operator=(const StageScope&) = delete;

  double close();

 private:
  std::string name_;
  Span span_;
  std::uint64_t rss_before_;
  Stopwatch watch_;
  bool open_ = true;
};

}  // namespace itm::obs
