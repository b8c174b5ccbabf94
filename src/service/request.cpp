#include "service/request.h"

#include <algorithm>
#include <bit>
#include <charconv>
#include <concepts>
#include <string_view>

#include "common/error.h"

namespace sompi {

namespace {

/// One piece of a key, as std::ostream prints it: text verbatim, integers
/// in decimal. (A bool has no overload: callers pass it as an int, 0 or 1.)
void put(std::string& out, std::string_view text) { out.append(text); }
void put(std::string& out, char c) { out += c; }
template <std::integral Int>
void put(std::string& out, Int value) {
  char digits[24];
  out.append(digits, std::to_chars(digits, digits + sizeof digits, value).ptr);
}

template <typename... Parts>
void append(std::string& out, const Parts&... parts) {
  (put(out, parts), ...);
}

/// Doubles are keyed by bit pattern, in lowercase hex: "%.17g" round-trips
/// but is longer and slower, and the key must distinguish values that
/// differ in the last ulp — the optimizer would.
void put_double(std::string& out, std::string_view tag, double value) {
  char hex[16];
  const char* end =
      std::to_chars(hex, hex + sizeof hex, std::bit_cast<std::uint64_t>(value), 16).ptr;
  append(out, tag, '=', std::string_view(hex, static_cast<std::size_t>(end - hex)), '|');
}

/// Length-prefixed so a name containing '|' or '=' cannot forge field
/// boundaries.
void put_string(std::string& out, std::string_view tag, std::string_view value) {
  append(out, tag, '=', value.size(), ':', value, '|');
}

void put_names(std::string& out, std::string_view tag, const std::vector<std::string>& names) {
  append(out, tag, '=', names.size(), '[');
  for (const std::string& name : names) append(out, name.size(), ':', name, '|');
  out += ']';
}

void sort_unique(std::vector<std::string>& names) {
  std::sort(names.begin(), names.end());
  names.erase(std::unique(names.begin(), names.end()), names.end());
}

}  // namespace

PlanRequest canonicalized(PlanRequest request) {
  SOMPI_REQUIRE_MSG(request.deadline_h > 0.0, "PlanRequest.deadline_h must be positive");
  SOMPI_REQUIRE_MSG(request.app.processes >= 1, "PlanRequest.app.processes must be >= 1");
  sort_unique(request.allowed_types);
  sort_unique(request.allowed_zones);
  return request;
}

std::string canonical_key(const PlanRequest& request) {
  std::string key;
  key.reserve(256);
  put_string(key, "app", request.app.name);
  append(key, "cat=", static_cast<int>(request.app.category), "|n=", request.app.processes, '|');
  put_double(key, "instr", request.app.instr_gi);
  put_double(key, "comm", request.app.comm_gb);
  put_double(key, "msgs", request.app.msgs_per_rank);
  put_double(key, "ioseq", request.app.io_seq_gb);
  put_double(key, "iorand", request.app.io_rand_gb);
  put_double(key, "state", request.app.state_gb);
  put_double(key, "deadline", request.deadline_h);
  put_names(key, "types", request.allowed_types);
  put_names(key, "zones", request.allowed_zones);
  return key;
}

std::string plan_fingerprint(const Plan& plan) {
  std::string out;
  out.reserve(320 + 128 * plan.groups.size());
  put_string(out, "app", plan.app);
  put_double(out, "step", plan.step_hours);
  put_double(out, "deadline", plan.deadline_h);
  put_double(out, "state", plan.state_gb);
  append(out, "od=", plan.od.type_index, ',', plan.od.instances, ',',
         static_cast<int>(plan.od.feasible), '|');
  put_double(out, "od_t", plan.od.t_h);
  put_double(out, "od_rate", plan.od.rate_usd_h);
  append(out, "groups=", plan.groups.size(), '[');
  for (const GroupPlan& g : plan.groups) {
    append(out, g.spec.type_index, ',', g.spec.zone_index, ',');
    put_string(out, "name", g.name);
    append(out, g.instances, ',', g.t_steps, ',', g.f_steps, ',');
    put_double(out, "o", g.o_steps);
    put_double(out, "r", g.r_steps);
    put_double(out, "bid", g.bid_usd);
    // The flat S3 policy is omitted so degenerate plans keep their
    // pre-multilevel fingerprints byte-for-byte.
    if (g.ckpt_policy != "s3") put_string(out, "ckpt", g.ckpt_policy);
  }
  out += ']';
  put_double(out, "ecost", plan.expected.cost_usd);
  put_double(out, "etime", plan.expected.time_h);
  put_double(out, "escost", plan.expected.spot_cost_usd);
  put_double(out, "eocost", plan.expected.od_cost_usd);
  put_double(out, "estime", plan.expected.spot_time_h);
  put_double(out, "eotime", plan.expected.od_time_h);
  put_double(out, "pspot", plan.expected.p_complete_on_spot);
  put_double(out, "eratio", plan.expected.e_min_ratio);
  // model_evaluations is deterministic (same inputs ⇒ same count), so it
  // belongs in the fingerprint; the wall-clock timers do not.
  append(out, "feasible=", static_cast<int>(plan.spot_feasible), "|evals=",
         plan.model_evaluations);
  // Callers keep fingerprints (one per run in a campaign), so the result
  // holds only its own bytes, not the working reservation.
  out.shrink_to_fit();
  return out;
}

}  // namespace sompi
