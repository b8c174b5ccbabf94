#include "service/request.h"

#include <algorithm>
#include <bit>
#include <sstream>

#include "common/error.h"

namespace sompi {

namespace {

/// Doubles are keyed by bit pattern: "%.17g" round-trips but is longer and
/// slower, and the key must distinguish values that differ in the last ulp —
/// the optimizer would.
void put_double(std::ostringstream& os, const char* tag, double value) {
  os << tag << '=' << std::hex << std::bit_cast<std::uint64_t>(value) << std::dec << '|';
}

/// Length-prefixed so a name containing '|' or '=' cannot forge field
/// boundaries.
void put_string(std::ostringstream& os, const char* tag, const std::string& value) {
  os << tag << '=' << value.size() << ':' << value << '|';
}

void put_names(std::ostringstream& os, const char* tag,
               const std::vector<std::string>& names) {
  os << tag << '=' << names.size() << '[';
  for (const std::string& name : names) os << name.size() << ':' << name << '|';
  os << ']';
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
  std::ostringstream os;
  put_string(os, "app", request.app.name);
  os << "cat=" << static_cast<int>(request.app.category) << '|';
  os << "n=" << request.app.processes << '|';
  put_double(os, "instr", request.app.instr_gi);
  put_double(os, "comm", request.app.comm_gb);
  put_double(os, "msgs", request.app.msgs_per_rank);
  put_double(os, "ioseq", request.app.io_seq_gb);
  put_double(os, "iorand", request.app.io_rand_gb);
  put_double(os, "state", request.app.state_gb);
  put_double(os, "deadline", request.deadline_h);
  put_names(os, "types", request.allowed_types);
  put_names(os, "zones", request.allowed_zones);
  return os.str();
}

std::string plan_fingerprint(const Plan& plan) {
  std::ostringstream os;
  put_string(os, "app", plan.app);
  put_double(os, "step", plan.step_hours);
  put_double(os, "deadline", plan.deadline_h);
  put_double(os, "state", plan.state_gb);
  os << "od=" << plan.od.type_index << ',' << plan.od.instances << ','
     << plan.od.feasible << '|';
  put_double(os, "od_t", plan.od.t_h);
  put_double(os, "od_rate", plan.od.rate_usd_h);
  os << "groups=" << plan.groups.size() << '[';
  for (const GroupPlan& g : plan.groups) {
    os << g.spec.type_index << ',' << g.spec.zone_index << ',';
    put_string(os, "name", g.name);
    os << g.instances << ',' << g.t_steps << ',' << g.f_steps << ',';
    put_double(os, "o", g.o_steps);
    put_double(os, "r", g.r_steps);
    put_double(os, "bid", g.bid_usd);
    // The flat S3 policy is omitted so degenerate plans keep their
    // pre-multilevel fingerprints byte-for-byte.
    if (g.ckpt_policy != "s3") put_string(os, "ckpt", g.ckpt_policy);
  }
  os << ']';
  put_double(os, "ecost", plan.expected.cost_usd);
  put_double(os, "etime", plan.expected.time_h);
  put_double(os, "escost", plan.expected.spot_cost_usd);
  put_double(os, "eocost", plan.expected.od_cost_usd);
  put_double(os, "estime", plan.expected.spot_time_h);
  put_double(os, "eotime", plan.expected.od_time_h);
  put_double(os, "pspot", plan.expected.p_complete_on_spot);
  put_double(os, "eratio", plan.expected.e_min_ratio);
  os << "feasible=" << plan.spot_feasible << '|';
  // model_evaluations is deterministic (same inputs ⇒ same count), so it
  // belongs in the fingerprint; the wall-clock timers do not.
  os << "evals=" << plan.model_evaluations;
  return os.str();
}

}  // namespace sompi
