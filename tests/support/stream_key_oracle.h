// Test-support oracle for the service's canonical encodings.
//
// The std::ostringstream encoders that canonical_key() and
// plan_fingerprint() (src/service/request.cpp) were first written with.
// The product builds the same bytes with string appends and std::to_chars;
// tests/test_service.cpp compares the two over random requests and plans,
// so a formatting slip (hex case, sign, bool spelling, a separator) shows
// as a key or fingerprint that differs from this one.
#pragma once

#include <bit>
#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "core/plan.h"
#include "service/request.h"

namespace sompi::oracle {

namespace detail {

inline void put_double(std::ostringstream& os, const char* tag, double value) {
  os << tag << '=' << std::hex << std::bit_cast<std::uint64_t>(value) << std::dec << '|';
}

inline void put_string(std::ostringstream& os, const char* tag, const std::string& value) {
  os << tag << '=' << value.size() << ':' << value << '|';
}

inline void put_names(std::ostringstream& os, const char* tag,
                      const std::vector<std::string>& names) {
  os << tag << '=' << names.size() << '[';
  for (const std::string& name : names) os << name.size() << ':' << name << '|';
  os << ']';
}

}  // namespace detail

/// canonical_key() as a stream encoder.
inline std::string stream_canonical_key(const PlanRequest& request) {
  using namespace detail;
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

/// plan_fingerprint() as a stream encoder.
inline std::string stream_plan_fingerprint(const Plan& plan) {
  using namespace detail;
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
  os << "evals=" << plan.model_evaluations;
  return os.str();
}

}  // namespace sompi::oracle
