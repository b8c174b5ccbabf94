#include "harness.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <mutex>
#include <numeric>
#include <sstream>
#include <stdexcept>
#include <unordered_map>
#include <utility>

namespace perfbench {

double nearest_rank(std::vector<double> values, double q) {
  if (values.empty()) throw std::logic_error("percentile of an empty sample");
  std::sort(values.begin(), values.end());
  const std::size_t rank =
      q <= 0.0 ? 1
               : static_cast<std::size_t>(std::ceil(q * static_cast<double>(values.size())));
  return values[std::min(rank, values.size()) - 1];
}

double total(const std::vector<double>& values) {
  return std::accumulate(values.begin(), values.end(), 0.0);
}

double mean(const std::vector<double>& values) {
  return values.empty() ? 0.0 : total(values) / static_cast<double>(values.size());
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
  }
  return 0.0;
}

void IntervalSeries::add(Clock::time_point done, double latency_s) {
  const auto index = static_cast<std::size_t>(seconds_between(start_, done) / interval_s_);
  if (intervals_.size() <= index) intervals_.resize(index + 1);
  Interval& in = intervals_[index];
  ++in.count;
  in.sum_s += latency_s;
  if (in.kept.size() < kKept) {
    in.kept.push_back(latency_s);
  } else if (const std::uint64_t slot =
                 std::uniform_int_distribution<std::uint64_t>(0, in.count - 1)(rng_);
             slot < kKept) {
    in.kept[slot] = latency_s;  // reservoir sampling: every sample kept with equal odds
  }
  ++count_;
  last_ = std::max(last_, done);
}

std::size_t IntervalSeries::intervals() const {
  if (count_ == 0) return 0;
  // The last interval is partial unless the loop ran past its end.
  const auto whole = static_cast<std::size_t>(seconds_between(start_, last_) / interval_s_);
  return std::min(whole, intervals_.size());
}

std::vector<double> IntervalSeries::rates() const {
  std::vector<double> out;
  for (std::size_t i = 0; i < intervals(); ++i)
    out.push_back(static_cast<double>(intervals_[i].count) / interval_s_);
  return out;
}

double IntervalSeries::median_rate() const {
  if (count_ == 0) return 0.0;
  const std::vector<double> r = rates();
  return r.empty() ? static_cast<double>(count_) / seconds_between(start_, last_)
                   : nearest_rank(r, 0.5);
}

double IntervalSeries::median_percentile(double q) const {
  if (count_ == 0) return 0.0;
  std::vector<double> per;
  for (std::size_t i = 0; i < intervals(); ++i)
    if (!intervals_[i].kept.empty()) per.push_back(nearest_rank(intervals_[i].kept, q));
  return per.empty() ? nearest_rank(samples(), q) : nearest_rank(per, 0.5);
}

std::vector<double> IntervalSeries::samples() const {
  std::vector<double> out;
  for (const Interval& in : intervals_) out.insert(out.end(), in.kept.begin(), in.kept.end());
  return out;
}

double IntervalSeries::mean_latency() const {
  double sum = 0.0;
  for (const Interval& in : intervals_) sum += in.sum_s;
  return count_ ? sum / static_cast<double>(count_) : 0.0;
}

// ---------------------------------------------------------------------------

namespace {

/// Enough for every workload's traced run; beyond it spans are counted, not
/// kept, so the recorder's memory stays bounded.
constexpr std::size_t kMaxSpans = 1u << 20;

struct Recorder {
  std::atomic<bool> enabled{false};
  std::atomic<std::uint64_t> next_id{1};
  std::atomic<std::uint64_t> dropped{0};
  std::mutex mutex;
  std::vector<Span> spans;

  void push(const Span& span) {
    std::lock_guard<std::mutex> lock(mutex);
    if (spans.size() >= kMaxSpans) {
      dropped.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    spans.push_back(span);
  }
};

Recorder& recorder() {
  static Recorder r;
  return r;
}

/// Open ScopedSpans of this thread, innermost last.
thread_local std::vector<const Span*> open_spans;

const Clock::time_point kEpoch = Clock::now();

}  // namespace

namespace spans {

void set_enabled(bool on) { recorder().enabled.store(on); }
bool enabled() { return recorder().enabled.load(std::memory_order_relaxed); }

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - kEpoch).count();
}

std::vector<Span> take() {
  std::lock_guard<std::mutex> lock(recorder().mutex);
  return std::exchange(recorder().spans, {});
}

std::uint64_t dropped() { return recorder().dropped.load(); }

}  // namespace spans

ScopedSpan::ScopedSpan(const char* name, std::uint64_t request) {
  if (!spans::enabled()) return;
  active_ = true;
  span_.id = recorder().next_id.fetch_add(1, std::memory_order_relaxed);
  span_.name = name;
  span_.request = request;
  if (!open_spans.empty()) {
    span_.parent = open_spans.back()->id;
    if (request == 0) span_.request = open_spans.back()->request;
  }
  open_spans.push_back(&span_);
  span_.start_ns = spans::now_ns();
}

ScopedSpan::~ScopedSpan() {
  if (!active_) return;
  span_.end_ns = spans::now_ns();
  open_spans.pop_back();
  recorder().push(span_);
}

std::map<std::string, double> self_time_by_name(const std::vector<Span>& all) {
  std::unordered_map<std::uint64_t, std::int64_t> child_ns;
  for (const Span& s : all)
    if (s.parent != 0) child_ns[s.parent] += s.end_ns - s.start_ns;
  std::map<std::string, double> out;
  for (const Span& s : all) {
    const auto it = child_ns.find(s.id);
    const std::int64_t covered = it == child_ns.end() ? 0 : it->second;
    out[s.name] += static_cast<double>(s.end_ns - s.start_ns - covered) * 1e-9;
  }
  return out;
}

std::map<std::string, double> self_time_by_layer(const std::vector<Span>& all) {
  std::map<std::string, double> out;
  for (const auto& [name, self_s] : self_time_by_name(all))
    out[name.substr(0, name.find('.'))] += self_s;
  return out;
}

void write_spans(const std::string& path, const std::vector<Span>& all) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write spans to " + path);
  out << "id,parent,request,name,start_ns,end_ns\n";
  for (const Span& s : all)
    out << s.id << ',' << s.parent << ',' << s.request << ',' << s.name << ','
        << s.start_ns << ',' << s.end_ns << '\n';
}

// ---------------------------------------------------------------------------

const std::vector<MetricSpec> kEndToEndMetrics = {
    {"setup_s", "s"},          {"peak_rss_mb", "MB"},     {"plans_per_s", "1/s"},
    {"plan_p50_ms", "ms"},     {"plan_p99_ms", "ms"},     {"plan_cost_ratio", "ratio"},
};

const std::vector<MetricSpec> kPerLayerMetrics = {
    {"tracing.overhead_pct", "%"},
    {"core.solve_ms", "ms"},
    {"core.setup_ms", "ms"},
    {"core.search_ms", "ms"},
    {"core.evaluations", "1/solve"},
    {"core.tuples_pruned", "1/solve"},
    {"core.prune_ratio", "ratio"},
    {"core.tables_reuse_ratio", "ratio"},
    {"core.warm_seeds", "1/solve"},
    {"sim.replay_ms", "ms"},
    {"sim.history_ms", "ms"},
    {"sim.windows_per_run", "1/run"},
    {"sim.runs_per_s", "1/s"},
    {"sim.deadline_miss_ratio", "ratio"},
    {"trace.history_steps", "steps"},
    {"feed.offer_us", "us"},
    {"feed.publish_ms", "ms"},
    {"feed.estimates_computed", "1/epoch"},
    {"feed.columns_withheld", "1/epoch"},
    {"feed.ticks_per_s", "1/s"},
    {"sharded.fanout_ingest_ms", "ms"},
    {"sharded.route_us", "us"},
    {"sharded.forwarded", "1/request"},
    {"sharded.duplicate_solves", "count"},
    {"service.canonicalize_us", "us"},
    {"service.hit_us", "us"},
    {"service.serve_ms", "ms"},
    {"service.hit_ratio", "ratio"},
    {"service.joins", "1/request"},
    {"service.sheds", "1/request"},
    {"service.replans", "1/request"},
    {"net.encode_us", "us"},
    {"net.decode_us", "us"},
    {"net.bytes_per_request", "B"},
    {"net.transport_us", "us"},
    {"net.frames_rejected", "count"},
    {"net.wire_errors", "count"},
    {"window.queue_us", "us"},
    {"selftime.core_pct", "%"},
    {"selftime.sim_pct", "%"},
    {"selftime.trace_pct", "%"},
    {"selftime.feed_pct", "%"},
    {"selftime.sharded_pct", "%"},
    {"selftime.service_pct", "%"},
    {"selftime.net_pct", "%"},
};

namespace {

void require_known(const std::vector<MetricSpec>& specs, const std::string& name) {
  for (const MetricSpec& m : specs)
    if (name == m.name) return;
  throw std::logic_error("metric not in the benchmark's metric list: " + name);
}

}  // namespace

void Report::end_to_end(const std::string& name, double value) {
  require_known(kEndToEndMetrics, name);
  end_to_end_[name] = value;
}

void Report::layer(const std::string& name, double value) {
  require_known(kPerLayerMetrics, name);
  layer_[name] = value;
}

void Report::info(const std::string& line) { lines_.push_back(line); }

void Report::check(bool ok, const std::string& what) {
  lines_.push_back(std::string("check ") + (ok ? "PASS " : "FAIL ") + what);
  if (!ok) ++failures_;
}

namespace {

std::string number(double v) {
  if (!std::isfinite(v)) v = 0.0;
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

void Report::print(bool trace) const {
  for (const std::string& line : lines_) std::printf("%s\n", line.c_str());
  const std::vector<MetricSpec>& specs = trace ? kPerLayerMetrics : kEndToEndMetrics;
  const std::map<std::string, double>& values = trace ? layer_ : end_to_end_;
  const auto value_of = [&](const char* name) {
    const auto it = values.find(name);
    return it == values.end() ? 0.0 : it->second;
  };
  for (const MetricSpec& m : specs)
    std::printf("metric %-28s %16.6f %s\n", m.name, value_of(m.name), m.unit);
  std::ostringstream json;
  json << "{\"correct\": " << (correct() ? "true" : "false") << ", \"attempted\": "
       << attempted << ", \"failed\": " << failed << ", \"metrics\": {";
  for (std::size_t i = 0; i < specs.size(); ++i) {
    json << (i ? ", " : "") << '"' << specs[i].name << "\": {\"value\": "
         << number(value_of(specs[i].name)) << ", \"unit\": \"" << specs[i].unit << "\"}";
  }
  json << "}}";
  std::printf("%s\n", json.str().c_str());
  std::fflush(stdout);
}

void report_layer_shares(Report& report, const std::map<std::string, double>& layer_self_s) {
  static const char* const kLayers[] = {"core", "sim", "trace", "feed",
                                        "sharded", "service", "net"};
  double sum = 0.0;
  for (const char* layer : kLayers)
    if (const auto it = layer_self_s.find(layer); it != layer_self_s.end()) sum += it->second;
  std::string top = "none";
  double top_s = 0.0;
  for (const char* layer : kLayers) {
    const auto it = layer_self_s.find(layer);
    const double s = it == layer_self_s.end() ? 0.0 : it->second;
    report.layer(std::string("selftime.") + layer + "_pct", sum > 0.0 ? s / sum * 100.0 : 0.0);
    if (s > top_s) {
      top_s = s;
      top = layer;
    }
  }
  char buf[128];
  std::snprintf(buf, sizeof buf, "self time: largest layer %s (%.1f%% of %.3f s)", top.c_str(),
                sum > 0.0 ? top_s / sum * 100.0 : 0.0, sum);
  report.info(buf);
}

std::string interval_line(const IntervalSeries& series) {
  std::string out = "per-interval rate (1/s):";
  for (const double r : series.rates()) {
    out += ' ';
    out += std::to_string(static_cast<long long>(r));
  }
  char buf[200];
  std::snprintf(buf, sizeof buf,
                "; medians over %zu whole intervals of nearest-rank p50 %.4f ms, p99 %.4f ms "
                "(n=%llu)",
                series.intervals(), series.median_percentile(0.5) * 1e3,
                series.median_percentile(0.99) * 1e3,
                static_cast<unsigned long long>(series.count()));
  return out + buf;
}

std::string latency_line(const std::string& what, const std::vector<double>& seconds) {
  if (seconds.empty()) return what + ": no samples";
  char buf[256];
  std::snprintf(buf, sizeof buf, "%s: p50 %.4f ms, p99 %.4f ms, mean %.4f ms (n=%zu)",
                what.c_str(), nearest_rank(seconds, 0.5) * 1e3,
                nearest_rank(seconds, 0.99) * 1e3, mean(seconds) * 1e3, seconds.size());
  return buf;
}

}  // namespace perfbench
