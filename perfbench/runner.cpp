// The repo benchmark runner: runs one workload from a seed, checks every
// output against an in-process reference, and prints the metrics as one
// JSON line (see perfbench/README.md for the workloads, the metrics and the
// layer -> end-to-end table).
//
// Usage (perfbench/run.py builds this binary and passes the paths):
//   perfbench_runner --workload build-default|serve-mixed|serve-update
//                    --seed N --seconds S --trace 0|1
//                    --itm PATH --work-dir DIR --cache-dir DIR
//
// The program is driven only through public library functions and the
// `itm` binary; layer numbers come from the spans and counters the program
// already records (obs::ScopedTracer / obs::ScopedMetrics) plus the
// benchmark's own spans around each layer call.
#include <sys/resource.h>
#include <sys/wait.h>
#include <spawn.h>
#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "bench_lib.h"
#include "client.h"
#include "core/scale.h"
#include "core/scenario.h"
#include "core/traffic_map.h"
#include "net/rng.h"
#include "obs/metrics.h"
#include "obs/resource.h"
#include "obs/trace.h"
#include "serve/delta.h"
#include "serve/format.h"
#include "serve/query_engine.h"
#include "serve/server.h"
#include "serve/snapshot_reader.h"
#include "serve/snapshot_writer.h"
#include "traffic/demand.h"

extern char** environ;

namespace {

using namespace itm;
using perfbench::SpanLog;

// ---- Fixed benchmark constants (recorded in BENCHMARK.json and README) ----

// Open-loop rates, queries per second on one connection.
constexpr double kMixedQps = 2000;   // serve-mixed
constexpr double kUpdateQps = 2000;  // serve-update lookups
// Ladder rates, tried in order until one fails. Each workload's top rung
// sits far past the uncached server's capacity on one connection (mixed:
// 16k-50k qps, lookups: 100k-200k qps at this commit, depending on the
// host's load) and the others far below it, so the passing rung does not
// flip from run to run.
constexpr double kMixedLadderQps[] = {4000, 8000, 160000};
constexpr double kUpdateLadderQps[] = {4000, 16000, 640000};
// A rung lasts its share of --seconds but at most this many requests:
// overload shows as a growing backlog within a fraction of a second.
constexpr double kMaxRungRequests = 100'000;
// The limit on p99 latency from the due time. On a 4-vCPU virtual machine
// host scheduling stalls of 5-15 ms reach the p99 of an open loop at any
// rate, and an apply-delta stalls the reads queued behind it for 25-80 ms,
// so a 1 ms limit is never met; 250 ms separates a loaded server from an
// overloaded one.
constexpr double kLimitUs = 250'000;
// The generator fell behind (the run is invalid) when its median lateness
// exceeds 1 ms. Its p99 lateness is reported, not judged: host scheduling
// stalls of tens of ms hit the client now and then, and latency is timed
// from the due time, so they are charged to the requests anyway.
constexpr double kMaxGeneratorMedianLateUs = 1'000;
// serve-update: one apply-delta (plus an `epoch` check) per period.
constexpr double kApplyPeriodS = 0.25;
constexpr int kServerThreads = 2;
constexpr int kMapThreads = 4;
// Serving runs spawn the server kServerSpawns times, once per fixed-rate
// segment, and each time kSpawnsPerSegment - 1 more that only time set-up.
constexpr int kServerSpawns = 6;
constexpr int kSpawnsPerSegment = 4;
constexpr int kIdleApplies = 6;
// Shares of --seconds spent at the fixed rate and on the ladder.
constexpr double kFixedShare = 0.15;
constexpr double kLadderShare = 0.25;
// In-process delta refreshes timed on the serving workloads.
constexpr int kInProcessApplies = 60;
// The serving world: the default scenario at its default seed.
constexpr std::uint64_t kServeWorldSeed = 42;
// Engine layer: queries answered in-process in the traced run, at most.
constexpr std::size_t kEngineQueries = 100'000;
constexpr double kEngineSeconds = 3.0;
// Share of --seconds spent answering the workload's stream in-process.
constexpr double kEngineShare = 0.6;
// In-process windows: at least this many queries and this much answer
// time, so each window has a supported p99 and spans a few host time slices.
constexpr std::size_t kWindowQueries = 2000;
constexpr double kWindowUs = 50'000;
constexpr double kFastestPercent = 2;
// build-default: world generations and map builds per run, and the share
// of --seconds spent answering queries on the maps built.
constexpr int kBuilds = 8;
constexpr double kBuildEngineShare = 0.3;
constexpr int kOverheadPairs = 3;

constexpr const char* kVerbs[] = {"lookup",  "as",     "outage", "country",
                                  "top-as",  "top-country", "stats"};

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10;
  bool trace = false;
  std::string itm;
  std::string work_dir;
  std::string cache_dir;
};

// ---- Result accounting ----

struct Result {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<std::string> problems;  // reasons the run is not correct
  std::vector<std::tuple<std::string, double, std::string>> metrics;
  std::vector<std::pair<std::string, std::string>> fields;  // name -> JSON

  void metric(const std::string& name, double value, const std::string& unit) {
    metrics.emplace_back(name, value, unit);
  }
  void field(const std::string& name, double value) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.10g", value);
    fields.emplace_back(name, buf);
  }
  void field(const std::string& name, const std::string& value) {
    fields.emplace_back(name, "\"" + perfbench::json_escape(value) + "\"");
  }
  // One operation that was attempted; a failure is recorded with its reason.
  void op(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) {
      ++failed;
      problem(what);
    }
  }
  void problem(const std::string& what) {
    problems.push_back(what);
    std::cerr << "[perfbench] FAIL: " << what << "\n";
  }
};

std::string number(double v) {
  if (!std::isfinite(v)) return "1e300";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.9g", v);
  return buf;
}

std::string hex64(std::uint64_t v) {
  std::ostringstream os;
  os << std::hex << v;
  return os.str();
}

double cpu_seconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
         static_cast<double>(usage.ru_utime.tv_usec + usage.ru_stime.tv_usec) *
             1e-6;
}

double seconds_since(std::int64_t start_ns) {
  return static_cast<double>(perfbench::monotonic_ns() - start_ns) * 1e-9;
}

bool write_file(const std::string& path, std::string_view bytes) {
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    if (!out) return false;
  }
  std::error_code ec;
  std::filesystem::rename(tmp, path, ec);
  return !ec;
}

std::optional<std::string> read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return std::nullopt;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return std::move(buffer).str();
}

// Runs a child to completion (used for `itm obs trace`); its exit status.
int run_child(std::vector<std::string> args, const std::string& log_path) {
  std::vector<char*> argv;
  for (std::string& a : args) argv.push_back(a.data());
  argv.push_back(nullptr);
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_addopen(&actions, 1, log_path.c_str(),
                                   O_WRONLY | O_CREAT | O_TRUNC, 0644);
  posix_spawn_file_actions_adddup2(&actions, 1, 2);
  pid_t pid = 0;
  const int rc = posix_spawn(&pid, argv[0], &actions, nullptr, argv.data(),
                             environ);
  posix_spawn_file_actions_destroy(&actions);
  if (rc != 0) return -1;
  int status = 0;
  waitpid(pid, &status, 0);
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

// ---- Snapshots ----

// Snapshot bytes with a validated zero-copy view and a cache-free reference
// engine over them. Held by pointer: the view aliases `bytes`.
struct Snap {
  std::string bytes;
  std::string path;
  std::uint64_t checksum = 0;
  serve::SnapshotView view;
  std::unique_ptr<serve::QueryEngine> engine;
};

std::unique_ptr<Snap> make_snap(std::string bytes, std::string path,
                                std::string* error) {
  auto snap = std::make_unique<Snap>();
  snap->bytes = std::move(bytes);
  snap->path = std::move(path);
  const auto view = serve::borrow_snapshot(snap->bytes, error);
  if (!view) return nullptr;
  snap->view = *view;
  snap->checksum = serve::snapshot_checksum(snap->bytes);
  snap->engine = std::make_unique<serve::QueryEngine>(snap->view, 0);
  return snap;
}

// World -> validated snapshot bytes: the map build, the compile and the
// validation, each under its own span.
struct MapRun {
  std::string bytes;
  double map_s = 0;
  double build_s = 0;
  double compile_s = 0;
  double validate_s = 0;
  double cpu_util = 0;
  std::size_t client_prefixes = 0;
  bool valid = false;
  std::string error;
};

MapRun build_map(core::Scenario& scenario, const core::MapBuildOptions& options,
                 SpanLog& spans) {
  MapRun run;
  const SpanLog::Scope whole(spans, "map");
  const std::int64_t start = perfbench::monotonic_ns();
  const double cpu0 = cpu_seconds();
  core::MapBuilder builder(scenario);
  core::TrafficMap map;
  {
    const SpanLog::Scope s(spans, "map.build");
    map = builder.build(options);
  }
  run.build_s = seconds_since(start);
  run.cpu_util = (cpu_seconds() - cpu0) / std::max(run.build_s, 1e-9);
  run.client_prefixes = map.client_prefixes.size();
  std::int64_t t = perfbench::monotonic_ns();
  {
    const SpanLog::Scope s(spans, "serve.compile");
    std::ostringstream out;
    serve::write_snapshot(map, scenario, out);
    run.bytes = std::move(out).str();
  }
  run.compile_s = seconds_since(t);
  t = perfbench::monotonic_ns();
  {
    const SpanLog::Scope s(spans, "serve.validate");
    run.valid = serve::borrow_snapshot(run.bytes, &run.error).has_value();
  }
  run.validate_s = seconds_since(t);
  run.map_s = seconds_since(start);
  return run;
}

core::MapBuildOptions serve_world_options(std::size_t probe_rounds) {
  core::MapBuildOptions options;
  options.threads = kMapThreads;
  options.probe_rounds = probe_rounds;
  return options;
}

// ---- Query streams ----

std::string lookup_query(const serve::SnapshotView& v, Rng rng) {
  // 95% inside a detected client prefix, 5% anywhere (mostly off-map).
  if (rng.next_below(20) == 0 || v.prefixes.size() == 0) {
    return "lookup " +
           Ipv4Addr(static_cast<std::uint32_t>(rng.next_u64())).to_string();
  }
  const auto prefix = v.prefixes[rng.next_below(v.prefixes.size())].prefix();
  return "lookup " + prefix.address_at(rng.next_below(prefix.size())).to_string();
}

// bench/serve_load's mix: 70% lookup, 10% as, 8% outage, 5% country,
// 4% top-as, 2% top-country, 1% stats.
std::string mixed_query(const serve::SnapshotView& v, Rng rng) {
  const std::uint64_t pick = rng.next_below(100);
  if (pick < 70) return lookup_query(v, rng);
  if (pick < 80) {
    return "as " + std::to_string(v.ases[rng.next_below(v.ases.size())].asn);
  }
  if (pick < 88) {
    return "outage " +
           std::to_string(v.ases[rng.next_below(v.ases.size())].asn);
  }
  if (pick < 93) {
    return "country " + std::to_string(
                            v.countries[rng.next_below(v.countries.size())]
                                .country);
  }
  if (pick < 97) return "top-as " + std::to_string(1 + rng.next_below(20));
  if (pick < 99) return "top-country " + std::to_string(1 + rng.next_below(8));
  return "stats";
}

std::string verb_of(const std::string& line) {
  return line.substr(0, line.find(' '));
}

// ---- One serving session under an open loop ----

// What the served epochs are: epoch parity 0 serves `a`, parity 1 `b`.
struct ServeSetup {
  const Snap* a = nullptr;
  const Snap* b = nullptr;  // null: no updates possible
  std::string delta_ab;     // path of the a -> b delta
  std::string delta_ba;
  bool lookup_only = false;
  bool inline_updates = false;
  double fixed_qps = 0;
  std::vector<double> ladder;
};

// Session state the checks need: which epoch is live.
struct SessionState {
  std::uint64_t epoch_id = 0;
  int parity = 0;
};

struct PhaseOutcome {
  std::vector<double> latency_us;  // from due; +inf for failures
  std::vector<double> apply_rtt_ms;
  std::size_t requests = 0;
  std::size_t failed = 0;
  double late_p50_us = 0;
  double late_p99_us = 0;
  bool backlog_grew = false;
  double achieved_qps = 0;
  std::uint64_t answer_hash = 0;
};

// Builds the open-loop request list for `duration_s` at `qps`, stream
// indices from `first`, inline updates every kApplyPeriodS when enabled.
PhaseOutcome run_phase(int fd, const ServeSetup& setup, SessionState& state,
                       Rng stream, std::uint64_t first, double qps,
                       double duration_s, Result& result,
                       const std::string& label) {
  std::vector<perfbench::Request> requests;
  std::vector<perfbench::Expected> expected;
  std::vector<bool> is_query;
  std::vector<bool> is_apply;
  const auto n = static_cast<std::size_t>(qps * duration_s);
  const double period_ns = 1e9 / qps;
  double next_apply_ns = kApplyPeriodS * 1e9 / 2;
  for (std::size_t i = 0; i < n; ++i) {
    const auto due = static_cast<std::int64_t>(static_cast<double>(i) * period_ns);
    if (setup.inline_updates && due >= next_apply_ns) {
      next_apply_ns += kApplyPeriodS * 1e9;
      const Snap* target = state.parity == 0 ? setup.b : setup.a;
      requests.push_back({"apply-delta " + (state.parity == 0 ? setup.delta_ab
                                                              : setup.delta_ba),
                          due});
      state.parity ^= 1;
      ++state.epoch_id;
      expected.push_back({"ok epoch=" + std::to_string(state.epoch_id) +
                              " checksum=" + hex64(target->checksum),
                          false});
      is_query.push_back(false);
      is_apply.push_back(true);
      requests.push_back({"epoch", due});
      expected.push_back({"epoch " + std::to_string(state.epoch_id) +
                              " checksum=" + hex64(target->checksum) + " ",
                          true});
      is_query.push_back(false);
      is_apply.push_back(false);
    }
    const Snap* live = state.parity == 0 ? setup.a : setup.b;
    const Rng rng = stream.split(first + i);
    std::string line = setup.lookup_only ? lookup_query(live->view, rng)
                                         : mixed_query(live->view, rng);
    expected.push_back({live->engine->answer(line), false});
    requests.push_back({std::move(line), due});
    is_query.push_back(true);
    is_apply.push_back(false);
  }

  const perfbench::PhaseResult phase =
      perfbench::run_open_loop(fd, requests, 5.0);

  PhaseOutcome out;
  out.requests = requests.size();
  const perfbench::ReplyCheck check =
      perfbench::check_replies(expected, phase.replies);
  out.failed = check.failed;
  out.answer_hash = serve::fnv1a64("");
  for (std::size_t i = 0; i < requests.size(); ++i) {
    const auto& reply = phase.replies[i];
    if (is_query[i] && reply) {
      out.answer_hash ^= serve::fnv1a64(*reply);
      out.answer_hash *= 0x100000001b3ull;
    }
    if (is_apply[i] && phase.timing[i].recv_ns >= 0) {
      out.apply_rtt_ms.push_back(
          static_cast<double>(phase.timing[i].recv_ns - phase.timing[i].sent_ns) /
          1e6);
    }
  }
  result.attempted += requests.size();
  result.failed += out.failed;
  if (out.failed > 0) {
    result.problem(label + ": " + std::to_string(out.failed) +
                   " failed requests; first: " + check.first_failure);
  }
  // Latency counts the query requests; a control line's reply waits for
  // the apply, which the queries queued behind it already show.
  std::vector<perfbench::Timing> timing;
  std::vector<bool> query_ok;
  for (std::size_t i = 0; i < requests.size(); ++i) {
    if (!is_query[i]) continue;
    timing.push_back(phase.timing[i]);
    query_ok.push_back(check.ok[i]);
  }
  out.latency_us = perfbench::latencies_from_due_us(timing, query_ok);
  std::sort(out.latency_us.begin(), out.latency_us.end());
  auto late = perfbench::lateness_us(phase.timing);
  std::sort(late.begin(), late.end());
  out.late_p50_us = perfbench::percentile(late, 50);
  out.late_p99_us = perfbench::percentile(late, 99);
  out.backlog_grew = perfbench::backlog_grew(phase.backlog, qps);
  out.achieved_qps = phase.wall_s > 0 ? timing.size() / phase.wall_s : 0;
  return out;
}

bool fell_behind(const PhaseOutcome& phase) {
  return phase.late_p50_us > kMaxGeneratorMedianLateUs;
}

struct ServeOutcome {
  std::vector<double> setup_s;  // one per spawn
  double p50_us = 0;
  double p99_us = 0;
  double tail_percentile = 0;
  std::size_t samples = 0;
  double max_qps = 0;
  std::vector<double> apply_ms;  // serve-update: under load; else idle
  double peak_rss_mb = 0;
  std::uint64_t answer_hash = 0;
};

// A spawned `itm served` on the workload's snapshot and its connection.
struct ReadyServer {
  std::unique_ptr<perfbench::ServerProcess> server;
  int fd = -1;
};

// Spawns `itm served` and times it to its first correct reply, appending
// the seconds to `setup_s`.
std::optional<ReadyServer> spawn_ready(const Args& args,
                                       const ServeSetup& setup,
                                       std::vector<double>& setup_s,
                                       Result& result) {
  const std::string log = args.work_dir + "/served.log";
  std::string error;
  ReadyServer ready;
  const std::int64_t start = perfbench::monotonic_ns();
  ready.server = perfbench::ServerProcess::spawn(
      args.itm, setup.a->path, args.work_dir + "/served.sock", kServerThreads,
      log, &error);
  if (!ready.server) {
    result.problem(error);
    return std::nullopt;
  }
  ready.fd = ready.server->connect(20.0);
  if (ready.fd < 0) {
    result.problem("cannot connect to itm served (see " + log + ")");
    return std::nullopt;
  }
  const auto reply = perfbench::round_trip(ready.fd, "stats", 20.0);
  setup_s.push_back(seconds_since(start));
  const std::string reference = setup.a->engine->answer("stats");
  result.op(reply && *reply == reference,
            "first reply '" + reply.value_or("<none>") +
                "' differs from reference '" + reference + "'");
  return ready;
}

// Spawns `itm served` kServerSpawns times. Each spawn is timed to its
// first correct reply and then serves one segment of the fixed-rate phase:
// where the scheduler places a fresh server's threads moves its idle
// wake-up latency, so pooling segments from several spawns steadies the
// percentiles. Before each, kSpawnsPerSegment - 1 spawns are timed to their
// first reply and stopped. The last server then runs the ladder, and idle
// applies when the workload has no inline updates. `after_segment` runs
// after each segment, while the server idles.
std::optional<ServeOutcome> serve_workload(
    const Args& args, const ServeSetup& setup,
    const std::function<void(int segment)>& after_segment, Result& result) {
  ServeOutcome out;
  std::unique_ptr<perfbench::ServerProcess> server;
  int fd = -1;
  const Rng stream = Rng(args.seed).split("serve");
  const double segment_s = args.seconds * kFixedShare / kServerSpawns;
  SessionState state;
  std::vector<double> latency_us;
  out.answer_hash = serve::fnv1a64("");
  for (int k = 0; k < kServerSpawns; ++k) {
    if (server) {
      ::close(fd);
      result.op(server->stop(), "itm served did not exit cleanly");
      server.reset();
    }
    for (int quick = 1; quick < kSpawnsPerSegment; ++quick) {
      auto ready = spawn_ready(args, setup, out.setup_s, result);
      if (!ready) return std::nullopt;
      ::close(ready->fd);
      result.op(ready->server->stop(), "itm served did not exit cleanly");
    }
    auto ready = spawn_ready(args, setup, out.setup_s, result);
    if (!ready) return std::nullopt;
    server = std::move(ready->server);
    fd = ready->fd;

    state = SessionState{};
    const PhaseOutcome segment =
        run_phase(fd, setup, state, stream, static_cast<std::uint64_t>(k) << 32,
                  setup.fixed_qps, segment_s, result, "fixed-rate");
    latency_us.insert(latency_us.end(), segment.latency_us.begin(),
                      segment.latency_us.end());
    out.apply_ms.insert(out.apply_ms.end(), segment.apply_rtt_ms.begin(),
                        segment.apply_rtt_ms.end());
    out.answer_hash ^= segment.answer_hash;
    out.answer_hash *= 0x100000001b3ull;
    std::cerr << "[perfbench] fixed " << setup.fixed_qps << " qps, server "
              << k << ": " << segment.requests << " requests, generator late p50 "
              << segment.late_p50_us << " us, p99 " << segment.late_p99_us
              << " us\n";
    // An open loop that could not keep its schedule measured nothing: the
    // run is invalid, never fast.
    if (fell_behind(segment)) {
      result.problem("invalid run: the generator fell behind at the fixed "
                     "rate (lateness p50 " + number(segment.late_p50_us) +
                     " us, p99 " + number(segment.late_p99_us) + " us)");
    }
    if (segment.backlog_grew) {
      result.problem("invalid run: backlog grew at the fixed rate");
    }
    after_segment(k);
  }
  std::sort(latency_us.begin(), latency_us.end());
  out.samples = latency_us.size();
  out.tail_percentile = perfbench::supported_percentile(out.samples);
  out.p50_us = perfbench::percentile(latency_us, 50);
  out.p99_us = perfbench::percentile(latency_us, 99);
  std::cerr << "[perfbench] fixed " << setup.fixed_qps << " qps: p50 "
            << out.p50_us << " us, p99 " << out.p99_us << " us (tail p"
            << out.tail_percentile << " of " << out.samples << ")\n";
  if (out.tail_percentile < 99) {
    result.problem("too few samples for p99: " + std::to_string(out.samples));
  }

  // The ladder: each rung passes when every request succeeded, p99 meets
  // the limit, the backlog did not grow and the generator kept up.
  const std::span<const double> ladder(setup.ladder);
  const double rung_s =
      args.seconds * kLadderShare / static_cast<double>(ladder.size());
  std::uint64_t first = 1ull << 40;
  for (const double rate : ladder) {
    const std::size_t failed_before = result.failed;
    const PhaseOutcome rung =
        run_phase(fd, setup, state, stream, first, rate,
                  std::min(rung_s, kMaxRungRequests / rate), result, "ladder");
    first += 1ull << 40;
    const double p99 = perfbench::percentile(rung.latency_us, 99);
    const bool pass = result.failed == failed_before && p99 <= kLimitUs &&
                      !rung.backlog_grew &&
                      !fell_behind(rung) &&
                      perfbench::supported_percentile(rung.latency_us.size()) >= 99;
    std::cerr << "[perfbench] ladder " << rate << " qps: p99 " << p99
              << " us, achieved " << rung.achieved_qps << " qps, backlog "
              << (rung.backlog_grew ? "grew" : "steady") << ", generator p99 late "
              << rung.late_p99_us << " us -> " << (pass ? "pass" : "fail")
              << "\n";
    if (!pass) break;
    out.max_qps = rung.achieved_qps;
    if (setup.inline_updates) {
      out.apply_ms.insert(out.apply_ms.end(), rung.apply_rtt_ms.begin(),
                          rung.apply_rtt_ms.end());
    }
  }
  if (out.max_qps <= 0) {
    result.problem("no ladder rung met the limit");
  }

  if (!setup.inline_updates && setup.b != nullptr) {
    // Idle refresh: apply-delta on a server with nothing else queued.
    for (int k = 0; k < kIdleApplies; ++k) {
      const Snap* target = state.parity == 0 ? setup.b : setup.a;
      const std::string& path =
          state.parity == 0 ? setup.delta_ab : setup.delta_ba;
      state.parity ^= 1;
      ++state.epoch_id;
      const std::int64_t start = perfbench::monotonic_ns();
      const auto reply = perfbench::round_trip(fd, "apply-delta " + path, 20.0);
      out.apply_ms.push_back(seconds_since(start) * 1e3);
      const std::string want = "ok epoch=" + std::to_string(state.epoch_id) +
                               " checksum=" + hex64(target->checksum);
      result.op(reply && *reply == want,
                "apply-delta reply '" + reply.value_or("<none>") + "', want '" +
                    want + "'");
      const auto epoch = perfbench::round_trip(fd, "epoch", 20.0);
      const std::string epoch_want = "epoch " + std::to_string(state.epoch_id) +
                                     " checksum=" + hex64(target->checksum) + " ";
      result.op(epoch && epoch->rfind(epoch_want, 0) == 0,
                "epoch reply '" + epoch.value_or("<none>") + "', want '" +
                    epoch_want + "...'");
    }
  }

  out.peak_rss_mb = static_cast<double>(server->peak_rss_bytes()) / (1 << 20);
  ::close(fd);
  result.op(server->stop(), "itm served did not exit cleanly");
  return out;
}

// ---- Serving inputs, prepared before timing ----

// The default world's map (A) and the same world after `extra` more probe
// rounds (B), with the deltas both ways. Cached in --cache-dir, which
// run.py keys by the runner and `itm` binaries, so a changed program rebuilds them.
struct ServeInputs {
  std::unique_ptr<Snap> a;
  std::unique_ptr<Snap> b;
  std::string delta_ab;
  std::string delta_ba;
  std::size_t delta_ab_bytes = 0;
  int variant = 0;
};

std::optional<std::string> build_serve_world_snapshot(std::size_t probe_rounds,
                                                      std::string* error) {
  auto scenario = core::Scenario::generate(core::default_config(kServeWorldSeed));
  SpanLog quiet(false);
  MapRun run = build_map(*scenario, serve_world_options(probe_rounds), quiet);
  if (!run.valid) {
    *error = "serving snapshot failed validation: " + run.error;
    return std::nullopt;
  }
  return std::move(run.bytes);
}

bool delta_matches(const std::string& path, const Snap& base, const Snap& target) {
  const auto bytes = read_file(path);
  if (!bytes) return false;
  const auto info = serve::read_delta_info(*bytes, nullptr);
  return info && info->base_checksum == base.checksum &&
         info->target_checksum == target.checksum;
}

std::optional<ServeInputs> prepare_serve_inputs(const Args& args,
                                                std::string* error) {
  ServeInputs in;
  in.variant = static_cast<int>(args.seed % 3);
  const std::size_t base_rounds = core::MapBuildOptions{}.probe_rounds;
  std::filesystem::create_directories(args.cache_dir);
  const auto load = [&](const std::string& name, std::size_t rounds)
      -> std::unique_ptr<Snap> {
    const std::string path = args.cache_dir + "/" + name;
    if (auto bytes = read_file(path)) {
      if (auto snap = make_snap(std::move(*bytes), path, nullptr)) return snap;
    }
    std::cerr << "[perfbench] preparing " << name << " (" << rounds
              << " probe rounds)...\n";
    auto bytes = build_serve_world_snapshot(rounds, error);
    if (!bytes || !write_file(path, *bytes)) return nullptr;
    return make_snap(std::move(*bytes), path, error);
  };
  in.a = load("A.itms", base_rounds);
  in.b = load("B" + std::to_string(in.variant) + ".itms",
              base_rounds + 1 + static_cast<std::size_t>(in.variant));
  if (!in.a || !in.b) return std::nullopt;
  if (in.a->checksum == in.b->checksum) {
    *error = "variant map equals the base map; no delta to serve";
    return std::nullopt;
  }
  const std::string v = std::to_string(in.variant);
  in.delta_ab = args.cache_dir + "/A-B" + v + ".itmsd";
  in.delta_ba = args.cache_dir + "/B" + v + "-A.itmsd";
  for (const auto& [path, from, to] :
       {std::tuple{in.delta_ab, in.a.get(), in.b.get()},
        std::tuple{in.delta_ba, in.b.get(), in.a.get()}}) {
    if (delta_matches(path, *from, *to)) continue;
    const auto delta = serve::diff_snapshots(from->bytes, to->bytes, error);
    if (!delta || !write_file(path, *delta)) return std::nullopt;
  }
  in.delta_ab_bytes = std::filesystem::file_size(in.delta_ab);
  return in;
}

// ---- Traced run: per-layer metrics ----

struct WorldSpec {
  core::ScenarioConfig config;
  core::MapBuildOptions options;
};

double gauge_or(const obs::MetricsRegistry& reg, const std::string& name,
                double fallback) {
  const auto v = reg.gauge_value(name);
  return v ? static_cast<double>(*v) : fallback;
}

double counter_or_zero(const obs::MetricsRegistry& reg, const std::string& name) {
  return static_cast<double>(reg.counter_value(name).value_or(0));
}

// QueryEngine::answer in-process on one thread, closed loop, over the
// serve-mixed stream: per-verb and overall latency, and throughput. Stops
// after `max_s` seconds or `max_queries` queries.
struct EngineRun {
  std::map<std::string, std::vector<double>> by_verb;  // us, answer order
  std::vector<double> all_us;                          // us, answer order
  double total_us = 0;
};

// The in-process latency figures of `run`: for each, the 2nd percentile
// over the run's windows of the window's figure (see bench_lib.h). Returns
// the windows.
std::vector<std::pair<std::size_t, std::size_t>> report_in_process(
    const EngineRun& run, Result& result) {
  const auto ranges = perfbench::windows(run.all_us, kWindowQueries, kWindowUs);
  const auto fastest = [&](double p) {
    auto values = perfbench::window_percentiles(run.all_us, ranges, p);
    std::sort(values.begin(), values.end());
    return perfbench::percentile(values, kFastestPercent);
  };
  std::size_t smallest = ranges.empty() ? 0 : SIZE_MAX;
  for (const auto& [begin, end] : ranges) {
    smallest = std::min(smallest, end - begin);
  }
  result.metric("serve.p50_us", fastest(50), "us");
  result.metric("serve.p99_us", fastest(99), "us");
  result.field("serve.samples", static_cast<double>(run.all_us.size()));
  result.field("serve.windows", static_cast<double>(ranges.size()));
  result.field("serve.tail_percentile",
               perfbench::supported_percentile(smallest));
  return ranges;
}

// Answers stream indices from `first` until `max_s` seconds or
// `max_queries` queries have passed, appending to `run`.
void answer_in_process(EngineRun& run, const Snap& snap, const Rng& stream,
                       std::uint64_t first, double max_s,
                       std::size_t max_queries, bool lookup_only,
                       Result& result) {
  const obs::Stopwatch elapsed;
  std::size_t i = 0;
  for (; i < max_queries; ++i) {
    if (i % 64 == 0 && elapsed.elapsed_s() > max_s) break;
    const Rng rng = stream.split(first + i);
    const std::string line = lookup_only ? lookup_query(snap.view, rng)
                                         : mixed_query(snap.view, rng);
    const obs::Stopwatch watch;
    const std::string answer = snap.engine->answer(line);
    const double us = static_cast<double>(watch.elapsed_ns()) / 1000.0;
    const bool ok = answer.rfind("error:", 0) != 0;
    result.op(ok, ok ? std::string() : "engine error for '" + line + "'");
    run.by_verb[verb_of(line)].push_back(us);
    run.all_us.push_back(us);
    run.total_us += us;
  }
}

// Per-verb latency of the engine layer and each verb's share of the total
// answer time.
void engine_layer(const Snap& snap, std::uint64_t seed, SpanLog& spans,
                  Result& result) {
  const SpanLog::Scope s(spans, "engine.answer");
  EngineRun run;
  answer_in_process(run, snap, Rng(seed).split("engine"), 0, kEngineSeconds,
                    kEngineQueries, false, result);
  for (const char* verb : kVerbs) {
    auto& samples = run.by_verb[verb];
    std::sort(samples.begin(), samples.end());
    double sum = 0;
    for (const double v : samples) sum += v;
    const std::string base = std::string("engine.") + verb;
    result.metric(base + ".p50_us", perfbench::percentile(samples, 50), "us");
    result.metric(base + ".p99_us", perfbench::percentile(samples, 99), "us");
    result.metric(base + ".time_share",
                  run.total_us > 0 ? sum / run.total_us : 0, "ratio");
    result.field(base + ".samples", static_cast<double>(samples.size()));
    result.field(base + ".tail_percentile",
                 perfbench::supported_percentile(samples.size()));
  }
}

// Snapshot load, delta apply and epoch install, in-process.
void serve_layers(const Snap& snap, const std::string& delta,
                  const std::string& target_bytes, SpanLog& spans,
                  Result& result) {
  std::vector<double> load_ms, apply_ms, install_ms;
  std::string error;
  {
    const SpanLog::Scope s(spans, "serve.load");
    for (int k = 0; k < 5; ++k) {
      const obs::Stopwatch watch;
      auto epoch = serve::Epoch::from_file(0, snap.path, 0, &error);
      load_ms.push_back(static_cast<double>(watch.elapsed_ns()) / 1e6);
      result.op(epoch && epoch->checksum() == snap.checksum,
                "Epoch::from_file: " + error);
    }
  }
  {
    const SpanLog::Scope s(spans, "serve.delta_apply");
    for (int k = 0; k < 5; ++k) {
      const obs::Stopwatch watch;
      const auto applied = serve::apply_delta(snap.bytes, delta, &error);
      apply_ms.push_back(static_cast<double>(watch.elapsed_ns()) / 1e6);
      result.op(applied && *applied == target_bytes, "apply_delta: " + error);
    }
  }
  {
    const SpanLog::Scope s(spans, "serve.epoch_install");
    serve::EpochManager epochs;
    (void)epochs.install(serve::Epoch::from_bytes(0, snap.bytes, 0, &error));
    for (int k = 1; k <= 5; ++k) {
      auto next = serve::Epoch::from_bytes(
          static_cast<std::uint64_t>(k), k % 2 ? target_bytes : snap.bytes, 0,
          &error);
      if (!next) {
        result.op(false, "Epoch::from_bytes: " + error);
        continue;
      }
      const obs::Stopwatch watch;
      const auto retired = epochs.install(std::move(next));
      install_ms.push_back(static_cast<double>(watch.elapsed_ns()) / 1e6);
      result.op(retired != nullptr, "EpochManager::install returned no epoch");
    }
  }
  result.metric("serve.load_ms", perfbench::median(load_ms), "ms");
  result.metric("serve.delta_apply_ms", perfbench::median(apply_ms), "ms");
  result.metric("serve.epoch_install_ms", perfbench::median(install_ms), "ms");
  result.metric("serve.delta_bytes", static_cast<double>(delta.size()), "bytes");
}

// Server front end: idle round trip, and the epoch verb's own latency
// quantiles after a short fixed-rate phase of the workload's stream.
void server_layer(const Args& args, const ServeSetup& setup, SpanLog& spans,
                  Result& result) {
  const SpanLog::Scope s(spans, "server.session");
  std::string error;
  auto server = perfbench::ServerProcess::spawn(
      args.itm, setup.a->path, args.work_dir + "/served.sock", kServerThreads,
      args.work_dir + "/served.log", &error);
  const int fd = server ? server->connect(20.0) : -1;
  if (fd < 0) {
    result.problem("cannot start itm served: " + error);
    return;
  }
  const std::string stats = setup.a->engine->answer("stats");
  std::vector<double> rtt_us;
  for (int k = 0; k < 200; ++k) {
    const obs::Stopwatch watch;
    const auto reply = perfbench::round_trip(fd, "stats", 20.0);
    rtt_us.push_back(static_cast<double>(watch.elapsed_ns()) / 1000.0);
    result.op(reply && *reply == stats, "stats reply differs from reference");
  }
  SessionState state;
  ServeSetup quiet = setup;
  quiet.inline_updates = false;
  (void)run_phase(fd, quiet, state, Rng(args.seed).split("server"), 0,
                  setup.fixed_qps, 1.0, result, "server");
  const auto epoch = perfbench::round_trip(fd, "epoch", 20.0);
  double p50 = -1, p99 = -1;
  if (epoch) {
    const auto field = [&](const std::string& key) {
      const auto at = epoch->find(" " + key + "=");
      return at == std::string::npos
                 ? -1.0
                 : std::strtod(epoch->c_str() + at + key.size() + 2, nullptr);
    };
    p50 = field("p50_us");
    p99 = field("p99_us");
  }
  result.op(p50 >= 0 && p99 >= 0, "epoch reply '" + epoch.value_or("<none>") +
                                      "' lacks latency quantiles");
  result.metric("server.epoch_p50_us", p50, "us");
  result.metric("server.epoch_p99_us", p99, "us");
  result.metric("server.rtt_idle_us", perfbench::median(rtt_us), "us");
  ::close(fd);
  result.op(server->stop(), "itm served did not exit cleanly");
}

// World generation with the traffic matrix re-invoked on its inputs, then
// the map build of that world under a scoped registry and tracer. Returns
// the validated snapshot bytes.
std::string trace_build(const WorldSpec& world, SpanLog& spans,
                        Result& result) {
  std::unique_ptr<core::Scenario> scenario;
  double generate_s = 0;
  {
    const SpanLog::Scope s(spans, "scenario.generate");
    const std::int64_t start = perfbench::monotonic_ns();
    scenario = core::Scenario::generate(world.config);
    generate_s = seconds_since(start);
  }
  double matrix_s = 0, matrix_cpu = 0;
  {
    const SpanLog::Scope s(spans, "traffic.matrix");
    std::vector<CityId> pop_cities;
    for (const auto& pop : scenario->dns().public_pops()) {
      pop_cities.push_back(pop.city);
    }
    const double cpu0 = cpu_seconds();
    const std::int64_t start = perfbench::monotonic_ns();
    const auto matrix = traffic::TrafficMatrix::build(
        scenario->topo(), scenario->users(), scenario->catalog(),
        scenario->mapper(), pop_cities, world.config.demand);
    matrix_s = seconds_since(start);
    matrix_cpu = (cpu_seconds() - cpu0) / std::max(matrix_s, 1e-9);
    result.op(matrix.total_bytes() == scenario->matrix().total_bytes(),
              "re-invoked TrafficMatrix::build differs from the world's");
  }
  result.metric("traffic.matrix_s", matrix_s, "s");
  result.metric("traffic.matrix_cpu_util", matrix_cpu, "ratio");
  result.metric("scenario.rest_s", generate_s - matrix_s, "s");
  result.field("scenario.generate_s", generate_s);

  obs::MetricsRegistry registry;
  obs::Tracer tracer;
  MapRun traced;
  {
    const obs::ScopedMetrics metrics_scope(registry);
    const obs::ScopedTracer tracer_scope(tracer);
    traced = build_map(*scenario, world.options, spans);
  }
  scenario.reset();
  result.op(traced.valid, "snapshot failed validation: " + traced.error);
  const char* stage_metric[] = {"map.workload_probe_s", "map.tls_scan_s",
                                "map.ecs_map_s", "map.routing_s",
                                "map.inference_s"};
  double staged = 0;
  for (std::size_t k = 0; k < std::size(core::kMapStageNames); ++k) {
    const double s = tracer.total_seconds(core::kMapStageNames[k]);
    staged += s;
    result.metric(stage_metric[k], s, "s");
  }
  // No gauge means the stage ran no executor batch: one shard, balanced.
  result.metric("map.workload_probe.imbalance",
                gauge_or(registry, "map.workload_probe.imbalance_x1000", 1000) /
                    1000.0,
                "ratio");
  result.metric(
      "map.workload_probe.rss_delta_mb",
      gauge_or(registry, "map.workload_probe.rss_delta_bytes", 0) / (1 << 20),
      "MB");
  result.metric("map.cpu_util", traced.cpu_util, "ratio");
  result.field("map.stage_coverage", staged / std::max(traced.map_s, 1e-9));
  result.field("map.traced_s", traced.map_s);
  result.field("snapshot_checksum",
               hex64(traced.valid ? serve::snapshot_checksum(traced.bytes) : 0));
  result.field("map.client_prefixes",
               static_cast<double>(traced.client_prefixes));

  result.metric("core.workload_events",
                counter_or_zero(registry, "map.workload_events"), "count");
  result.metric("dns.queries", counter_or_zero(registry, "dns.queries"),
                "count");
  const double hits = counter_or_zero(registry, "dns.isp.cache_hits");
  const double misses = counter_or_zero(registry, "dns.isp.cache_misses");
  result.metric("dns.isp.cache_hit_ratio",
                hits + misses > 0 ? hits / (hits + misses) : 0, "ratio");
  result.field("dns.isp.cache_lookups", hits + misses);
  result.metric("scan.cache_probe.probes_sent",
                counter_or_zero(registry, "scan.cache_probe.probes_sent"),
                "count");
  result.metric("serve.compile_s", traced.compile_s, "s");
  result.metric("serve.validate_s", traced.validate_s, "s");
  result.metric("serve.snapshot_bytes",
                static_cast<double>(traced.bytes.size()), "bytes");
  return traced.valid ? std::move(traced.bytes) : std::string();
}

// Tracing overhead: map_s of the pinned tiny world built with tracing
// (scoped registry and tracer, benchmark spans) over map_s built without,
// median of kOverheadPairs alternating pairs. Each build gets a fresh world
// because a build consumes its world's resolver caches. Measured on the
// tiny tier so it costs every workload seconds, not two more builds of its
// world.
void trace_overhead(SpanLog& spans, Result& result) {
  const SpanLog::Scope s(spans, "obs.overhead");
  const WorldSpec tiny{core::tier_config(core::ScaleTier::kTiny),
                       core::tier_build_options(core::ScaleTier::kTiny)};
  std::vector<double> ratios;
  for (int pair = 0; pair < kOverheadPairs; ++pair) {
    double seconds[2] = {0, 0};
    std::string bytes[2];
    for (int traced = 0; traced < 2; ++traced) {
      auto scenario = core::Scenario::generate(tiny.config);
      obs::MetricsRegistry registry;
      obs::Tracer tracer;
      SpanLog off(false);
      MapRun run;
      if (traced == 1) {
        const obs::ScopedMetrics metrics_scope(registry);
        const obs::ScopedTracer tracer_scope(tracer);
        run = build_map(*scenario, tiny.options, spans);
      } else {
        run = build_map(*scenario, tiny.options, off);
      }
      seconds[traced] = run.map_s;
      bytes[traced] = std::move(run.bytes);
    }
    result.op(!bytes[0].empty() && bytes[0] == bytes[1],
              "traced and untraced tiny builds differ");
    ratios.push_back(seconds[1] / std::max(seconds[0], 1e-9));
  }
  result.metric("obs.trace_overhead", perfbench::median(ratios), "ratio");
}

// The serving layers over the workload's snapshot, then the span file
// (checked by `itm obs trace`) and self time per layer.
void trace_serving(const Args& args, const ServeSetup& setup,
                   const std::string& delta, const std::string& delta_target,
                   SpanLog& spans, Result& result) {
  serve_layers(*setup.a, delta, delta_target, spans, result);
  engine_layer(*setup.a, args.seed, spans, result);
  server_layer(args, setup, spans, result);
  trace_overhead(spans, result);
}

void finish_trace(const Args& args, SpanLog& spans, int root, Result& result) {
  spans.close(root);
  const std::string trace_path = args.work_dir + "/trace.json";
  {
    std::ofstream out(trace_path);
    spans.write_chrome_trace(out);
  }
  const int rc = run_child({args.itm, "obs", "trace", trace_path},
                           args.work_dir + "/obs_trace.txt");
  result.op(rc == 0, "itm obs trace rejected " + trace_path);
  result.field("trace_file", trace_path);
  std::cerr << "[perfbench] self time per layer (s):\n";
  for (const auto& [name, self] : spans.self_seconds()) {
    std::cerr << "  " << name << " " << self << "\n";
    result.field("self_s." + name, self);
  }
}

// Map refreshes as the server performs them for `apply-delta`, in-process:
// apply_delta on the live epoch's bytes, an epoch over the result
// (validation and engine indexes), and its install; alternating A -> B and
// B -> A across calls.
class Refresher {
 public:
  explicit Refresher(const ServeInputs& in)
      : in_(&in),
        delta_ab_(read_file(in.delta_ab).value_or("")),
        delta_ba_(read_file(in.delta_ba).value_or("")) {
    (void)epochs_.install(serve::Epoch::from_bytes(0, in.a->bytes, 0, nullptr));
  }

  // Times `n` refreshes, appending milliseconds to `ms`.
  void run(int n, std::vector<double>& ms, Result& result) {
    for (int k = 0; k < n; ++k) {
      const bool to_b = next_id_ % 2 == 1;
      const Snap& target = to_b ? *in_->b : *in_->a;
      std::string error;
      const obs::Stopwatch watch;
      auto bytes = serve::apply_delta(epochs_.current()->bytes(),
                                      to_b ? delta_ab_ : delta_ba_, &error);
      auto next = bytes ? serve::Epoch::from_bytes(next_id_, std::move(*bytes),
                                                   0, &error)
                        : nullptr;
      const bool ok = next != nullptr && next->checksum() == target.checksum;
      if (ok) (void)epochs_.install(std::move(next));
      ms.push_back(static_cast<double>(watch.elapsed_ns()) / 1e6);
      result.op(ok, "in-process refresh failed: " + error);
      if (!ok) return;
      ++next_id_;
    }
  }

 private:
  const ServeInputs* in_;
  std::string delta_ab_;
  std::string delta_ba_;
  serve::EpochManager epochs_;
  std::uint64_t next_id_ = 1;
};

// ---- Workloads ----

int print_result(const Args& args, const Result& result) {
  const bool correct = result.problems.empty() && result.failed == 0;
  std::ostringstream info;
  info << "{\"workload\": \"" << args.workload << "\", \"seed\": " << args.seed
       << ", \"trace\": " << (args.trace ? 1 : 0) << ", \"fields\": {";
  for (std::size_t i = 0; i < result.fields.size(); ++i) {
    info << (i ? ", " : "") << "\"" << result.fields[i].first
         << "\": " << result.fields[i].second;
  }
  info << "}}";
  std::cout << info.str() << "\n";
  std::ostringstream line;
  line << "{\"correct\": " << (correct ? "true" : "false")
       << ", \"attempted\": " << std::max<std::size_t>(result.attempted, 1)
       << ", \"failed\": " << result.failed << ", \"metrics\": {";
  for (std::size_t i = 0; i < result.metrics.size(); ++i) {
    const auto& [name, value, unit] = result.metrics[i];
    line << (i ? ", " : "") << "\"" << name << "\": {\"value\": "
         << number(value) << ", \"unit\": \"" << unit << "\"}";
  }
  line << "}}";
  std::cout << line.str() << std::endl;
  return correct ? 0 : 1;
}

int build_default(const Args& args) {
  Result result;
  // The serving workloads' world, built with the sampled measurement
  // options of the medium tier (a lighter simulated day, fewer probe
  // sweeps, strided routing destinations; every stage still runs). A
  // build takes about 2 s instead of 12 s, so a run holds several and
  // reports the fastest: the host's speed drifts by a fifth over a minute,
  // which a single long build cannot escape. The world is the same for
  // every --seed, which picks only the query stream.
  WorldSpec world{core::default_config(kServeWorldSeed),
                  core::tier_build_options(core::ScaleTier::kMedium)};
  world.options.threads = kMapThreads;
  result.field("world_seed", static_cast<double>(world.config.seed));

  if (args.trace) {
    // The traced build's snapshot is then served; a no-op delta (the map
    // against itself) exercises the apply path.
    SpanLog spans(true);
    const int root = spans.open("perfbench.build-default");
    std::string bytes = trace_build(world, spans, result);
    const std::string path = args.work_dir + "/default.itms";
    std::string error;
    auto snap = !bytes.empty() && write_file(path, bytes)
                    ? make_snap(std::move(bytes), path, &error)
                    : nullptr;
    if (!snap) {
      result.problem("cannot serve the built snapshot: " + error);
      return print_result(args, result);
    }
    const auto delta = serve::diff_snapshots(snap->bytes, snap->bytes, &error);
    result.op(delta.has_value(), "diff_snapshots: " + error);
    const ServeSetup setup{snap.get(), nullptr, "", "", false, false,
                           kMixedQps, {}};
    trace_serving(args, setup, delta.value_or(""), snap->bytes, spans, result);
    finish_trace(args, spans, root, result);
    return print_result(args, result);
  }

  // kBuilds world generations, each followed by a map build (a build
  // consumes its world's resolver caches) and a slice of in-process
  // queries against the map just built.
  std::vector<double> generate_s, map_s;
  std::string first_bytes;
  std::size_t client_prefixes = 0;
  EngineRun queried;
  const Rng stream = Rng(args.seed).split("serve");
  const std::string path = args.work_dir + "/default.itms";
  for (int k = 0; k < kBuilds; ++k) {
    const std::int64_t gen_start = perfbench::monotonic_ns();
    auto scenario = core::Scenario::generate(world.config);
    generate_s.push_back(seconds_since(gen_start));
    SpanLog quiet(false);
    MapRun run = build_map(*scenario, world.options, quiet);
    scenario.reset();
    map_s.push_back(run.map_s);
    result.op(run.valid, "snapshot failed validation: " + run.error);
    if (k == 0) {
      first_bytes = run.bytes;
      client_prefixes = run.client_prefixes;
    } else {
      result.op(run.bytes == first_bytes, "map builds of one world differ");
    }
    // Round trip through the file the server maps: the bytes read back must
    // validate and equal the bytes written.
    std::string error;
    std::unique_ptr<Snap> snap;
    if (run.valid && write_file(path, run.bytes)) {
      const auto back = read_file(path);
      result.op(back && *back == run.bytes, "snapshot file round trip differs");
      snap = make_snap(std::move(run.bytes), path, &error);
    }
    result.op(snap != nullptr, "snapshot round trip failed: " + error);
    if (!snap) return print_result(args, result);
    // serve-mixed's stream through the engine, one thread, closed loop.
    answer_in_process(queried, *snap, stream,
                      static_cast<std::uint64_t>(k) << 32,
                      args.seconds * kBuildEngineShare / kBuilds, SIZE_MAX,
                      false, result);
  }
  const double peak_rss_mb =
      static_cast<double>(obs::peak_rss_bytes()) / (1 << 20);
  result.field("snapshot_checksum",
               hex64(serve::snapshot_checksum(first_bytes)));
  result.field("snapshot_bytes", static_cast<double>(first_bytes.size()));
  result.field("client_prefixes", static_cast<double>(client_prefixes));
  result.field("map_s.median", perfbench::median(map_s));

  result.metric("setup_s", perfbench::median(generate_s), "s");
  result.metric("refresh_s", *std::min_element(map_s.begin(), map_s.end()),
                "s");
  // Closed-loop queries per second of answer time, the 98th percentile over
  // the windows.
  const auto ranges = report_in_process(queried, result);
  auto rates = perfbench::window_rates(queried.all_us, ranges);
  std::sort(rates.begin(), rates.end());
  result.metric("serve.max_qps",
                perfbench::percentile(rates, 100 - kFastestPercent) * 1e6,
                "1/s");
  result.metric("peak_rss_mb", peak_rss_mb, "MB");
  return print_result(args, result);
}

int serve_run(const Args& args, bool update) {
  Result result;
  std::string error;
  auto inputs = prepare_serve_inputs(args, &error);
  if (!inputs) {
    std::cerr << "[perfbench] cannot prepare serving inputs: " << error << "\n";
    return 2;
  }
  const ServeSetup setup{
      inputs->a.get(),
      inputs->b.get(),
      inputs->delta_ab,
      inputs->delta_ba,
      update,
      update,
      update ? kUpdateQps : kMixedQps,
      update ? std::vector<double>(std::begin(kUpdateLadderQps),
                                   std::end(kUpdateLadderQps))
             : std::vector<double>(std::begin(kMixedLadderQps),
                                   std::end(kMixedLadderQps))};
  result.field("variant", inputs->variant);
  result.field("snapshot_a_checksum", hex64(inputs->a->checksum));
  result.field("snapshot_b_checksum", hex64(inputs->b->checksum));
  result.field("delta_bytes", static_cast<double>(inputs->delta_ab_bytes));
  result.field("client_prefixes", static_cast<double>(inputs->a->view.prefixes.size()));

  if (args.trace) {
    const WorldSpec world{
        core::default_config(kServeWorldSeed),
        serve_world_options(core::MapBuildOptions{}.probe_rounds)};
    SpanLog spans(true);
    const int root = spans.open("perfbench." + args.workload);
    const std::string bytes = trace_build(world, spans, result);
    result.op(bytes == inputs->a->bytes,
              "the traced map build differs from the served snapshot");
    const auto delta = read_file(inputs->delta_ab);
    trace_serving(args, setup, delta.value_or(""), inputs->b->bytes, spans,
                  result);
    finish_trace(args, spans, root, result);
    return print_result(args, result);
  }

  // The gated latency and refresh figures are measured in-process, where
  // host scheduling stalls do not dominate them, in slices between the
  // socket segments, and taken from the fastest windows or refresh so that
  // the host's slow stretches do not set them; the socket figures are
  // reported as fields (see README: their run-to-run spread on a shared
  // virtual machine exceeds any usable bound).
  EngineRun queried;
  std::vector<double> refresh_ms;
  Refresher refresher(*inputs);
  const Rng engine_stream = Rng(args.seed).split("engine");
  // Refreshes alternate with stretches of queries, so that the fastest
  // refresh, like the fastest query windows, can come from anywhere in the
  // run.
  constexpr int kRefreshesPerSlice = kInProcessApplies / kServerSpawns;
  const double stretch_s =
      args.seconds * kEngineShare / kServerSpawns / kRefreshesPerSlice;
  const auto in_process = [&](int segment) {
    for (int r = 0; r < kRefreshesPerSlice; ++r) {
      const auto stretch =
          static_cast<std::uint64_t>(segment * kRefreshesPerSlice + r);
      answer_in_process(queried, *inputs->a, engine_stream, stretch << 32,
                        stretch_s, SIZE_MAX, update, result);
      refresher.run(1, refresh_ms, result);
    }
  };
  const auto served = serve_workload(args, setup, in_process, result);
  if (!served) return print_result(args, result);
  result.metric("setup_s", perfbench::median(served->setup_s), "s");
  result.metric("refresh_s",
                *std::min_element(refresh_ms.begin(), refresh_ms.end()) / 1e3,
                "s");
  (void)report_in_process(queried, result);
  result.metric("serve.max_qps", served->max_qps, "1/s");
  result.metric("peak_rss_mb", served->peak_rss_mb, "MB");
  result.field("setup_spawns", static_cast<double>(served->setup_s.size()));
  result.field("refresh_ms.median", perfbench::median(refresh_ms));
  result.field("socket.p50_us", served->p50_us);
  result.field("socket.p99_us", served->p99_us);
  result.field("socket.samples", static_cast<double>(served->samples));
  result.field("socket.tail_percentile", served->tail_percentile);
  result.field("socket.apply_ms", perfbench::median(served->apply_ms));
  result.field("socket.applies", static_cast<double>(served->apply_ms.size()));
  result.field("socket.answer_hash", hex64(served->answer_hash));
  return print_result(args, result);
}

std::optional<Args> parse_args(int argc, char** argv) {
  Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      args.workload = value;
    } else if (key == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      args.seconds = std::strtod(value.c_str(), nullptr);
    } else if (key == "--trace") {
      args.trace = value == "1";
    } else if (key == "--itm") {
      args.itm = value;
    } else if (key == "--work-dir") {
      args.work_dir = value;
    } else if (key == "--cache-dir") {
      args.cache_dir = value;
    } else {
      return std::nullopt;
    }
  }
  if (args.workload.empty() || args.itm.empty() || args.work_dir.empty() ||
      args.cache_dir.empty() || !(args.seconds > 0)) {
    return std::nullopt;
  }
  return args;
}

}  // namespace

int main(int argc, char** argv) {
  const auto args = parse_args(argc, argv);
  if (!args) {
    std::cerr << "usage: perfbench_runner --workload W --seed N --seconds S "
                 "--trace 0|1 --itm PATH --work-dir DIR --cache-dir DIR\n";
    return 2;
  }
  std::filesystem::create_directories(args->work_dir);
  if (args->workload == "build-default") return build_default(*args);
  if (args->workload == "serve-mixed") return serve_run(*args, false);
  if (args->workload == "serve-update") return serve_run(*args, true);
  std::cerr << "unknown workload '" << args->workload << "'\n";
  return 2;
}
