#include "bench_lib.h"

#include <time.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <map>

namespace perfbench {

double supported_percentile(std::size_t n) {
  for (const double p : {99.99, 99.9, 99.0, 90.0, 50.0}) {
    // Samples strictly beyond the nearest-rank position of p.
    const auto rank = static_cast<std::size_t>(
        std::ceil(p / 100.0 * static_cast<double>(n) - 1e-9));
    if (n >= rank + 10) return p;
  }
  return 0.0;
}

double percentile(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  auto rank = static_cast<std::size_t>(
      std::ceil(p / 100.0 * static_cast<double>(sorted.size()) - 1e-9));
  rank = std::clamp<std::size_t>(rank, 1, sorted.size());
  return sorted[rank - 1];
}

std::vector<std::pair<std::size_t, std::size_t>> windows(
    const std::vector<double>& in_order, std::size_t min_count,
    double min_sum) {
  std::vector<std::pair<std::size_t, std::size_t>> out;
  std::size_t begin = 0;
  double sum = 0;
  for (std::size_t i = 0; i < in_order.size(); ++i) {
    sum += in_order[i];
    if (i + 1 - begin >= min_count && sum >= min_sum) {
      out.emplace_back(begin, i + 1);
      begin = i + 1;
      sum = 0;
    }
  }
  if (begin < in_order.size()) {
    if (out.empty()) {
      out.emplace_back(begin, in_order.size());
    } else {
      out.back().second = in_order.size();
    }
  }
  return out;
}

std::vector<double> window_percentiles(
    const std::vector<double>& in_order,
    const std::vector<std::pair<std::size_t, std::size_t>>& ranges, double p) {
  std::vector<double> out;
  out.reserve(ranges.size());
  for (const auto& [begin, end] : ranges) {
    std::vector<double> window(
        in_order.begin() + static_cast<std::ptrdiff_t>(begin),
        in_order.begin() + static_cast<std::ptrdiff_t>(end));
    std::sort(window.begin(), window.end());
    out.push_back(percentile(window, p));
  }
  return out;
}

std::vector<double> window_rates(
    const std::vector<double>& in_order,
    const std::vector<std::pair<std::size_t, std::size_t>>& ranges) {
  std::vector<double> out;
  out.reserve(ranges.size());
  for (const auto& [begin, end] : ranges) {
    double sum = 0;
    for (std::size_t i = begin; i < end; ++i) sum += in_order[i];
    out.push_back(sum > 0 ? static_cast<double>(end - begin) / sum : 0.0);
  }
  return out;
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  const std::size_t mid = values.size() / 2;
  std::nth_element(values.begin(), values.begin() + mid, values.end());
  return values[mid];
}

std::vector<double> latencies_from_due_us(const std::vector<Timing>& timing,
                                          const std::vector<bool>& ok) {
  std::vector<double> out;
  out.reserve(timing.size());
  for (std::size_t i = 0; i < timing.size(); ++i) {
    const Timing& t = timing[i];
    if (t.recv_ns < 0 || i >= ok.size() || !ok[i]) {
      out.push_back(std::numeric_limits<double>::infinity());
    } else {
      out.push_back(static_cast<double>(t.recv_ns - t.due_ns) / 1000.0);
    }
  }
  return out;
}

std::vector<double> lateness_us(const std::vector<Timing>& timing) {
  std::vector<double> out;
  out.reserve(timing.size());
  for (const Timing& t : timing) {
    out.push_back(static_cast<double>(t.sent_ns - t.due_ns) / 1000.0);
  }
  return out;
}

bool backlog_grew(const std::vector<BacklogSample>& samples, double rate_qps) {
  if (samples.size() < 8) return false;
  const std::int64_t t0 = samples.front().t_ns;
  const std::int64_t span = samples.back().t_ns - t0;
  if (span <= 0) return false;
  std::vector<double> first, last;
  for (const BacklogSample& s : samples) {
    const std::int64_t at = s.t_ns - t0;
    if (at * 4 <= span) first.push_back(static_cast<double>(s.outstanding));
    if (at * 4 >= span * 3) last.push_back(static_cast<double>(s.outstanding));
  }
  const double slack = std::max(8.0, rate_qps * 1e-3);
  return median(last) - median(first) > slack;
}

ReplyCheck check_replies(const std::vector<Expected>& expected,
                         const std::vector<std::optional<std::string>>& got) {
  ReplyCheck check;
  check.attempted = expected.size();
  check.ok.assign(expected.size(), false);
  for (std::size_t i = 0; i < expected.size(); ++i) {
    const std::optional<std::string>* reply =
        i < got.size() ? &got[i] : nullptr;
    std::string why;
    if (reply == nullptr || !reply->has_value()) {
      why = "no reply";
    } else if ((*reply)->rfind("error:", 0) == 0) {
      why = "error reply '" + **reply + "'";
    } else if (expected[i].prefix ? (*reply)->rfind(expected[i].text, 0) != 0
                                  : **reply != expected[i].text) {
      why = "reply '" + **reply + "' differs from reference '" +
            expected[i].text + "'";
    } else {
      check.ok[i] = true;
      continue;
    }
    ++check.failed;
    if (check.first_failure.empty()) {
      check.first_failure = "request " + std::to_string(i) + ": " + why;
    }
  }
  return check;
}

std::int64_t monotonic_ns() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

SpanLog::SpanLog(bool enabled) : enabled_(enabled), epoch_ns_(monotonic_ns()) {}

std::int64_t SpanLog::now_ns() const { return monotonic_ns() - epoch_ns_; }

int SpanLog::open(std::string_view name) {
  if (!enabled_) return -1;
  Span span;
  span.name = std::string(name);
  span.start_ns = now_ns();
  span.parent = stack_.empty() ? -1 : stack_.back();
  span.depth = static_cast<int>(stack_.size());
  spans_.push_back(std::move(span));
  stack_.push_back(static_cast<int>(spans_.size()) - 1);
  return stack_.back();
}

void SpanLog::close(int index) {
  if (index < 0) return;
  spans_[static_cast<std::size_t>(index)].end_ns = now_ns();
  if (!stack_.empty() && stack_.back() == index) stack_.pop_back();
}

void SpanLog::add(std::string_view name, std::int64_t start_ns,
                  std::int64_t end_ns, int parent) {
  if (!enabled_) return;
  Span span;
  span.name = std::string(name);
  span.start_ns = start_ns;
  span.end_ns = end_ns;
  span.parent = parent;
  span.depth =
      parent < 0 ? 0 : spans_[static_cast<std::size_t>(parent)].depth + 1;
  spans_.push_back(std::move(span));
}

std::vector<std::pair<std::string, double>> SpanLog::self_seconds() const {
  std::vector<std::int64_t> self(spans_.size(), 0);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (s.end_ns < 0) continue;
    self[i] += s.end_ns - s.start_ns;
    // Children of one parent run one after another on the timing thread,
    // so the part of the parent they cover is the sum of their durations.
    if (s.parent >= 0) self[static_cast<std::size_t>(s.parent)] -= s.end_ns - s.start_ns;
  }
  std::map<std::string, double> by_name;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].end_ns >= 0) by_name[spans_[i].name] += self[i] * 1e-9;
  }
  return {by_name.begin(), by_name.end()};
}

void SpanLog::write_chrome_trace(std::ostream& os) const {
  os << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [";
  bool first = true;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (s.end_ns < 0) continue;
    os << (first ? "\n" : ",\n");
    first = false;
    char times[96];
    std::snprintf(times, sizeof times, "\"ts\": %.3f, \"dur\": %.3f",
                  s.start_ns / 1000.0, (s.end_ns - s.start_ns) / 1000.0);
    os << "  {\"name\": \"" << json_escape(s.name)
       << "\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, " << times
       << ", \"args\": {\"depth\": " << s.depth << ", \"id\": " << i
       << ", \"parent\": " << s.parent << "}}";
  }
  os << "\n]}\n";
}

std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out;
}

}  // namespace perfbench
