// Shared helpers for the experiment-report binaries. Each binary regenerates
// one table or figure of the paper (see DESIGN.md's per-experiment index)
// and prints the same rows/series the paper reports, normalized to the
// Baseline exactly as in §5.1.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdio>
#include <string>
#include <vector>

#include "common/error.h"
#include "common/table.h"
#include "sim/experiment.h"

namespace sompi::bench {

/// Nearest-rank percentile: the ceil(q·N)-th smallest observation
/// (1-indexed; q = 0 → the minimum). The right estimator for tail latencies
/// over small samples — the linear-interpolation percentile (common/stats.h)
/// blends the two largest observations, so p99 of N < 100 samples reports a
/// value no request actually experienced and under-reports the tail until N
/// reaches ~100. q in [0, 1].
inline double percentile_nearest_rank(std::vector<double> values, double q) {
  SOMPI_REQUIRE(!values.empty());
  SOMPI_REQUIRE(q >= 0.0 && q <= 1.0);
  std::sort(values.begin(), values.end());
  const auto rank = q <= 0.0 ? std::size_t{1}
                             : static_cast<std::size_t>(
                                   std::ceil(q * static_cast<double>(values.size())));
  return values[rank - 1];
}

inline void banner(const std::string& id, const std::string& what) {
  std::printf("==============================================================\n");
  std::printf("%s — %s\n", id.c_str(), what.c_str());
  std::printf("==============================================================\n");
}

inline void note(const std::string& text) { std::printf("note: %s\n", text.c_str()); }

/// "cost (±std)" cell.
inline std::string cost_cell(const MethodResult& r) {
  return Table::num(r.norm_cost, 3) + " (±" + Table::num(r.norm_cost_std, 3) + ")";
}

// --- machine-readable results (--json <path>) -------------------------------
//
// Every bench that accepts `--json <path>` appends one record per measured
// series, so the perf trajectory can be tracked across PRs by diffing files
// instead of scraping stdout. Benches without per-sample latencies (the
// google-benchmark micro-benches) report p50 = p99 = mean.

struct JsonResult {
  std::string name;
  std::size_t iters = 0;
  double mean_ms = 0.0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  /// Optional work counters (evaluations, pruned tuples, ...), emitted as
  /// extra numeric fields of the record. Unlike the timing fields these are
  /// deterministic, which is what makes them gateable in CI
  /// (a wall-clock gate on a shared runner is noise; a work-count gate is
  /// exact).
  std::vector<std::pair<std::string, double>> counters;
};

/// JSON string escaping for names and counter keys: quotes, backslashes and
/// control characters (corruption-class names, error-frame messages) become
/// the standard \"/\\/\uXXXX escapes instead of leaking into the file raw.
inline std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", static_cast<unsigned>(c) & 0xff);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

/// The value following "--json", or "" when the flag is absent.
inline std::string json_path_from_args(int argc, char** argv) {
  for (int i = 1; i + 1 < argc; ++i)
    if (std::string(argv[i]) == "--json") return argv[i + 1];
  return "";
}

/// Writes the records as a JSON array. Names and counter keys are escaped.
inline void write_json(const std::string& path, const std::vector<JsonResult>& results) {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) throw IoError("cannot write json results to " + path);
  std::fprintf(out, "[\n");
  for (std::size_t i = 0; i < results.size(); ++i) {
    const JsonResult& r = results[i];
    std::fprintf(out,
                 "  {\"name\": \"%s\", \"iters\": %zu, \"mean_ms\": %.6f, "
                 "\"p50_ms\": %.6f, \"p99_ms\": %.6f",
                 json_escape(r.name).c_str(), r.iters, r.mean_ms, r.p50_ms, r.p99_ms);
    for (const auto& [key, value] : r.counters)
      std::fprintf(out, ", \"%s\": %.6f", json_escape(key).c_str(), value);
    std::fprintf(out, "}%s\n", i + 1 < results.size() ? "," : "");
  }
  std::fprintf(out, "]\n");
  std::fclose(out);
  std::printf("json: wrote %zu result(s) to %s\n", results.size(), path.c_str());
}

}  // namespace sompi::bench
