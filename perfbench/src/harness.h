// Measurement plumbing shared by every workload: clocks, nearest-rank
// percentiles, the in-memory span recorder of the traced run, and the report
// that prints every metric by name and unit and ends with the one-line JSON
// result.
//
// All timing is taken here, around calls into the library's public API; the
// library's own timers (Plan::optimize_seconds, ServiceStats percentiles) are
// never read.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <random>
#include <string>
#include <thread>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}
inline double seconds_since(Clock::time_point from) {
  return seconds_between(from, Clock::now());
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Where the traced run writes its spans.
  std::string out_dir = ".bench_out";
};

/// The ceil(q·N)-th smallest value (q = 0 gives the minimum). Requires a
/// non-empty sample.
double nearest_rank(std::vector<double> values, double q);
double mean(const std::vector<double>& values);
/// Sum of `values`.
double total(const std::vector<double>& values);

/// Completions of a timed loop, bucketed into fixed intervals from its start.
/// Rates and percentiles are taken per whole interval and summarized by
/// their median, so a short disturbance from outside the benchmark moves one
/// interval, not the reported figure. Each interval keeps a uniform sample of
/// at most kKept latencies (every one while fewer arrived), so the
/// benchmark's own memory does not grow with the system's throughput.
class IntervalSeries {
 public:
  static constexpr std::size_t kKept = 1u << 14;

  IntervalSeries(Clock::time_point start, double interval_s)
      : start_(start), interval_s_(interval_s) {}
  void add(Clock::time_point done, double latency_s);
  /// Completions added.
  std::uint64_t count() const { return count_; }
  /// Whole intervals (the last, partial one excluded).
  std::size_t intervals() const;
  /// Median over whole intervals of completions per second.
  double median_rate() const;
  /// Median over whole intervals of the interval's nearest-rank q-percentile.
  double median_percentile(double q) const;
  /// Every kept latency sample, interval by interval.
  std::vector<double> samples() const;
  /// Mean latency over every sample.
  double mean_latency() const;
  /// Per-interval completions per second, for the report.
  std::vector<double> rates() const;

 private:
  struct Interval {
    std::uint64_t count = 0;
    double sum_s = 0.0;
    std::vector<double> kept;
  };

  Clock::time_point start_;
  double interval_s_;
  std::vector<Interval> intervals_;
  std::uint64_t count_ = 0;
  Clock::time_point last_;
  std::mt19937_64 rng_{0x5A3C1E};
};

/// Peak resident set size of this process (VmHWM), MiB.
double peak_rss_mb();

// ---------------------------------------------------------------------------
// Spans. Off unless the run is traced; each is (name, start, end, parent,
// request id) and lives in memory until the run writes them out.

struct Span {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;   ///< 0 = root
  std::uint64_t request = 0;  ///< spans of one request share this id
  const char* name = "";      ///< "<layer>.<operation>"
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

namespace spans {
void set_enabled(bool on);
bool enabled();
std::int64_t now_ns();
/// Removes and returns every span recorded so far.
std::vector<Span> take();
/// Spans discarded because the in-memory buffer was full.
std::uint64_t dropped();
}  // namespace spans

/// Times the enclosing scope as a span, nested under the innermost open
/// ScopedSpan of the same thread. A request id of 0 inherits the parent's.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name, std::uint64_t request = 0);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  bool active_ = false;
  Span span_;
};

/// Self time per span name, seconds: each span's duration minus what its
/// child spans cover, summed.
std::map<std::string, double> self_time_by_name(const std::vector<Span>& spans);
/// Self time per layer (the name's prefix before the first '.').
std::map<std::string, double> self_time_by_layer(const std::vector<Span>& spans);
/// One CSV line per span: id,parent,request,name,start_ns,end_ns.
void write_spans(const std::string& path, const std::vector<Span>& spans);

// ---------------------------------------------------------------------------
// Results.

struct MetricSpec {
  const char* name;
  const char* unit;
};
/// Every end-to-end metric, in print order; each workload reports all of them.
extern const std::vector<MetricSpec> kEndToEndMetrics;
/// Every per-layer metric, in print order; a layer a workload never enters
/// reads 0.
extern const std::vector<MetricSpec> kPerLayerMetrics;

class Report {
 public:
  /// A metric of the untraced run (printed in the JSON with --trace 0). The
  /// name must be in kEndToEndMetrics.
  void end_to_end(const std::string& name, double value);
  /// A per-layer metric (printed in the JSON with --trace 1). The name must
  /// be in kPerLayerMetrics.
  void layer(const std::string& name, double value);
  /// A human-readable line (never part of the JSON).
  void info(const std::string& line);
  /// An output check; any failure makes the run incorrect.
  void check(bool ok, const std::string& what);

  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  bool correct() const { return failures_ == 0; }
  /// Prints the human lines, then the JSON result as the last line.
  void print(bool trace) const;

 private:
  std::map<std::string, double> end_to_end_;
  std::map<std::string, double> layer_;
  std::vector<std::string> lines_;
  int failures_ = 0;
};

/// Reports each layer's share of the summed self time as
/// selftime.<layer>_pct — every layer of the chain, 0 where the workload
/// never enters it — and names the largest.
void report_layer_shares(Report& report, const std::map<std::string, double>& layer_self_s);

/// Per-interval rates and the medians of the interval percentiles.
std::string interval_line(const IntervalSeries& series);

/// "<p50> ms (n=<samples>)"-style summary line for a latency sample.
std::string latency_line(const std::string& what, const std::vector<double>& seconds);

/// Runs `make` (returning a unique_ptr) `repeats` times, tearing down the
/// previous result first and keeping the last, and stores the median wall
/// time in `*median_s` — set-up is measured like any other metric. The
/// repeats are kSetupGap apart: on a shared host the speed of short
/// single-threaded work shifts every few hundred milliseconds, and set-ups
/// taken back to back would all see one of those states.
constexpr std::chrono::milliseconds kSetupGap{100};
template <class Make>
auto repeated_setup(int repeats, double* median_s, Make make) {
  std::vector<double> took;
  decltype(make()) built;
  for (int i = 0; i < repeats; ++i) {
    if (i > 0) std::this_thread::sleep_for(kSetupGap);
    built.reset();
    const auto t0 = Clock::now();
    built = make();
    took.push_back(seconds_since(t0));
  }
  *median_s = nearest_rank(took, 0.5);
  return built;
}

}  // namespace perfbench
