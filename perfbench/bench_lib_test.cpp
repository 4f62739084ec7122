// Tests of the benchmark's own logic: the percentile rule, latency timed
// from the due time (an injected server stall must inflate the requests
// queued behind it), failure counting, the ladder's backlog rule and span
// self time.
//
//   cmake --build .bench_build/perfbench --target perfbench_test
//   ctest --test-dir .bench_build/perfbench -R perfbench_test
#include <sys/socket.h>
#include <unistd.h>

#include <cmath>
#include <limits>
#include <sstream>
#include <string>
#include <thread>

#include <gtest/gtest.h>

#include "bench_lib.h"
#include "client.h"

namespace perfbench {
namespace {

TEST(PercentileRule, HighestPercentileWithTenSamplesBeyond) {
  EXPECT_EQ(supported_percentile(19), 0.0);
  EXPECT_EQ(supported_percentile(20), 50.0);
  EXPECT_EQ(supported_percentile(99), 50.0);
  EXPECT_EQ(supported_percentile(100), 90.0);
  EXPECT_EQ(supported_percentile(999), 90.0);
  EXPECT_EQ(supported_percentile(1000), 99.0);
  EXPECT_EQ(supported_percentile(9999), 99.0);
  EXPECT_EQ(supported_percentile(10000), 99.9);
  EXPECT_EQ(supported_percentile(100000), 99.99);
}

TEST(PercentileRule, NearestRank) {
  std::vector<double> v;
  for (int i = 1; i <= 1000; ++i) v.push_back(i);
  EXPECT_EQ(percentile(v, 50), 500);
  EXPECT_EQ(percentile(v, 99), 990);
  EXPECT_EQ(percentile(v, 100), 1000);
  EXPECT_EQ(median({3, 1, 2}), 2);
}

TEST(FastestWindow, WindowsCloseOnCountAndSum) {
  // Windows need two samples summing to at least 10.
  const std::vector<double> v = {1, 1, 9, 5, 5, 2, 2};
  const auto w = windows(v, 2, 10);
  ASSERT_EQ(w.size(), 2u);
  EXPECT_EQ(w[0], (std::pair<std::size_t, std::size_t>{0, 3}));
  // {5, 5} closes a window; the short tail {2, 2} joins it.
  EXPECT_EQ(w[1], (std::pair<std::size_t, std::size_t>{3, 7}));
  // Too few samples for one window: a single short window.
  const auto one = windows({3, 1}, 5, 100);
  ASSERT_EQ(one.size(), 1u);
  EXPECT_EQ(one[0], (std::pair<std::size_t, std::size_t>{0, 2}));
  EXPECT_TRUE(windows({}, 1, 1).empty());
}

TEST(FastestWindow, SlowStretchesDoNotSetTheFigure) {
  // 100 windows of 100 samples; all but three ran 1.5x slower (the host's
  // slow state). The 2nd percentile of the windows' figures is the fast
  // windows' figure.
  std::vector<double> v;
  for (int w = 0; w < 100; ++w) {
    const bool fast = w == 10 || w == 50 || w == 90;
    for (int i = 1; i <= 100; ++i) v.push_back(fast ? i : 1.5 * i);
  }
  const auto w = windows(v, 100, 0);
  ASSERT_EQ(w.size(), 100u);
  auto p50 = window_percentiles(v, w, 50);
  auto p99 = window_percentiles(v, w, 99);
  auto rates = window_rates(v, w);
  ASSERT_EQ(p50.size(), 100u);
  EXPECT_EQ(p50[10], 50);
  EXPECT_EQ(p50[11], 75);
  std::sort(p50.begin(), p50.end());
  std::sort(p99.begin(), p99.end());
  std::sort(rates.begin(), rates.end());
  EXPECT_EQ(percentile(p50, 2), 50);
  EXPECT_EQ(percentile(p99, 2), 99);
  EXPECT_DOUBLE_EQ(percentile(rates, 98), 100.0 / 5050.0);
  EXPECT_TRUE(window_rates(v, {}).empty());
}

TEST(FastestWindow, OneLuckyWindowDoesNotSetTheFigure) {
  // One window drew no costly query: its ten costliest samples are ten
  // times cheaper than the other windows'. The 2nd percentile over 100
  // windows skips it.
  std::vector<double> v;
  for (int w = 0; w < 100; ++w) {
    for (int i = 1; i <= 100; ++i) v.push_back(w == 7 && i > 90 ? i / 10.0 : i);
  }
  auto p99 = window_percentiles(v, windows(v, 100, 0), 99);
  std::sort(p99.begin(), p99.end());
  EXPECT_EQ(p99.front(), 89);
  EXPECT_EQ(percentile(p99, 2), 99);
}

TEST(PercentileRule, FailuresMissTheLimit) {
  // Two failed requests in 100: +inf sorts last, so p99 is infinite while
  // the median is untouched.
  std::vector<Timing> timing(100);
  std::vector<bool> ok(100, true);
  for (int i = 0; i < 100; ++i) {
    timing[i] = {i * 1000, i * 1000, i * 1000 + 5000};
  }
  ok[10] = false;
  timing[20].recv_ns = -1;
  auto lat = latencies_from_due_us(timing, ok);
  std::sort(lat.begin(), lat.end());
  EXPECT_EQ(percentile(lat, 50), 5.0);
  EXPECT_TRUE(std::isinf(percentile(lat, 99)));
}

TEST(DueTime, LatencyCountsFromDueNotFromSend) {
  // Sent 300 us late, answered 100 us after sending: 400 us from due.
  const std::vector<Timing> timing = {{1'000'000, 1'300'000, 1'400'000}};
  EXPECT_DOUBLE_EQ(latencies_from_due_us(timing, {true})[0], 400.0);
  EXPECT_DOUBLE_EQ(lateness_us(timing)[0], 300.0);
}

TEST(DueTime, InjectedServerStallInflatesLaterRequests) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  static constexpr int kStallAt = 50;
  static constexpr int kStallMs = 60;
  static constexpr int kRequests = 200;
  // Echo server that stalls once, before answering request kStallAt.
  std::thread server([fd = fds[1]] {
    std::string buffer;
    char chunk[4096];
    int answered = 0;
    while (answered < kRequests) {
      const ssize_t n = ::read(fd, chunk, sizeof chunk);
      if (n <= 0) break;
      buffer.append(chunk, static_cast<std::size_t>(n));
      std::size_t nl;
      while ((nl = buffer.find('\n')) != std::string::npos) {
        const std::string line = buffer.substr(0, nl);
        buffer.erase(0, nl + 1);
        if (answered == kStallAt) {
          std::this_thread::sleep_for(std::chrono::milliseconds(kStallMs));
        }
        const std::string reply = "re " + line + "\n";
        (void)!::write(fd, reply.data(), reply.size());
        ++answered;
      }
    }
  });
  std::vector<Request> requests;
  for (int i = 0; i < kRequests; ++i) {
    requests.push_back({"q" + std::to_string(i), i * 1'000'000LL});  // 1 ms
  }
  const PhaseResult phase = run_open_loop(fds[0], requests, 5.0);
  server.join();
  ::close(fds[0]);
  ::close(fds[1]);

  std::vector<Expected> expected;
  for (int i = 0; i < kRequests; ++i) {
    expected.push_back({"re q" + std::to_string(i)});
  }
  const ReplyCheck check = check_replies(expected, phase.replies);
  ASSERT_EQ(check.failed, 0u) << check.first_failure;
  const auto lat = latencies_from_due_us(phase.timing, check.ok);
  // Request kStallAt + 20 fell due 20 ms into the 60 ms stall and was sent
  // on time, yet waits out the remaining ~40 ms: timing from the due time
  // charges the stall to it.
  EXPECT_LT(lateness_us(phase.timing)[kStallAt + 20], 5'000.0);
  EXPECT_GT(lat[kStallAt + 20], 30'000.0);
  EXPECT_GT(lat[kStallAt], 50'000.0);
  // Well before the stall, latency is small.
  EXPECT_LT(lat[10], 20'000.0);
  // The stall shows as a backlog that was then worked off: its samples
  // peak above 20 outstanding requests.
  std::int64_t peak = 0;
  for (const BacklogSample& s : phase.backlog) peak = std::max(peak, s.outstanding);
  EXPECT_GT(peak, 20);
}

TEST(FailureCounting, CorruptedMissingAndErrorReplies) {
  const std::vector<Expected> expected = {{"a 1"}, {"b 2"}, {"c 3"}, {"d 4"}};
  const std::vector<std::optional<std::string>> got = {
      std::string("a 1"), std::string("b 9"), std::nullopt,
      std::string("error: bad address")};
  const ReplyCheck check = check_replies(expected, got);
  EXPECT_EQ(check.attempted, 4u);
  EXPECT_EQ(check.failed, 3u);
  EXPECT_EQ(check.ok, (std::vector<bool>{true, false, false, false}));
  EXPECT_NE(check.first_failure.find("request 1"), std::string::npos);
  // An error line fails even when the reference says the same.
  EXPECT_EQ(check_replies({{"error: x"}}, {std::string("error: x")}).failed,
            1u);
  // A control reply matches on its head; a different epoch id fails.
  const std::vector<Expected> epoch = {{"epoch 3 checksum=ab ", true}};
  EXPECT_EQ(check_replies(epoch, {std::string("epoch 3 checksum=ab swaps=4")})
                .failed,
            0u);
  EXPECT_EQ(check_replies(epoch, {std::string("epoch 2 checksum=ab swaps=4")})
                .failed,
            1u);
}

std::vector<BacklogSample> ramp(double per_ms, double noise_period) {
  std::vector<BacklogSample> samples;
  for (int ms = 0; ms < 1000; ++ms) {
    const double wobble = std::fmod(ms, noise_period) < noise_period / 2 ? 3 : 0;
    samples.push_back({ms * 1'000'000LL,
                       static_cast<std::int64_t>(2 + per_ms * ms + wobble)});
  }
  return samples;
}

TEST(BacklogRule, SteadyBacklogDoesNotGrow) {
  EXPECT_FALSE(backlog_grew(ramp(0, 7), 16000));
  EXPECT_FALSE(backlog_grew({}, 16000));
}

TEST(BacklogRule, GrowingBacklogGrows) {
  // 1000 qps of unserved arrivals (1 per ms) over one second.
  EXPECT_TRUE(backlog_grew(ramp(1.0, 7), 16000));
}

TEST(BacklogRule, SlackScalesWithRate) {
  // 12 extra requests over the run: growth at 4k qps (slack 8), within one
  // millisecond of arrivals at 64k qps (slack 64).
  const auto samples = ramp(0.016, 7);
  EXPECT_TRUE(backlog_grew(samples, 4000));
  EXPECT_FALSE(backlog_grew(samples, 64000));
}

TEST(Spans, SelfTimeSubtractsChildren) {
  SpanLog log(true);
  log.add("parent", 0, 10'000'000'000, -1);
  log.add("child", 1'000'000'000, 4'000'000'000, 0);
  log.add("child", 5'000'000'000, 9'000'000'000, 0);
  const auto self = log.self_seconds();
  ASSERT_EQ(self.size(), 2u);
  EXPECT_EQ(self[0].first, "child");
  EXPECT_NEAR(self[0].second, 7.0, 1e-9);
  EXPECT_EQ(self[1].first, "parent");
  EXPECT_NEAR(self[1].second, 3.0, 1e-9);
  std::ostringstream os;
  log.write_chrome_trace(os);
  EXPECT_NE(os.str().find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(os.str().find("\"parent\": 0"), std::string::npos);

  SpanLog off(false);
  { const SpanLog::Scope s(off, "x"); }
  EXPECT_TRUE(off.spans().empty());
}

}  // namespace
}  // namespace perfbench
