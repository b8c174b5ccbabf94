#include "profile/estimator.h"

#include <algorithm>

#include "common/error.h"

namespace sompi {

double ExecTimeEstimator::inter_instance_fraction(int cores, int n) {
  SOMPI_REQUIRE(cores >= 1);
  SOMPI_REQUIRE(n >= 1);
  if (n <= cores || n == 1) return 0.0;  // whole job fits on one instance
  return static_cast<double>(n - cores) / static_cast<double>(n - 1);
}

namespace {

/// The default estimator's platform: no hosts, links or zones, so
/// Platform::effective falls back to the InstanceType capability columns for
/// every (type, zone) — the paper's flat-constant model.
const platform::Platform& empty_platform() {
  static const platform::Platform empty({}, {}, {});
  return empty;
}

}  // namespace

ExecTimeEstimator::ExecTimeEstimator(const platform::Platform* platform)
    : platform_(platform != nullptr ? platform : &empty_platform()) {}

platform::EffectiveSpec ExecTimeEstimator::spec_for(const AppProfile& app,
                                                    const InstanceType& type,
                                                    std::string_view zone_name) const {
  SOMPI_REQUIRE_MSG(app.processes >= 1, "profile needs a process count");
  // Each instance of the group is one flow on the zone's shared links.
  const int instances = (app.processes + type.cores - 1) / type.cores;
  return platform_->effective(type, zone_name, instances);
}

TimeBreakdown ExecTimeEstimator::estimate(const AppProfile& app, const InstanceType& type,
                                          std::string_view zone_name) const {
  const platform::EffectiveSpec spec = spec_for(app, type, zone_name);
  const int n = app.processes;
  const int cores_used = std::min(spec.cores, n);

  TimeBreakdown b;

  // CPU: all N ranks compute in parallel, one rank per core.
  b.cpu_h = app.instr_gi / (static_cast<double>(n) * spec.gips_per_core) / 3600.0;

  // Network: each instance pushes its ranks' inter-instance share of the
  // total traffic through its own NIC; instances transmit concurrently.
  const double frac = inter_instance_fraction(spec.cores, n);
  const double egress_gbit_per_inst =
      app.comm_gb * 8.0 * (static_cast<double>(cores_used) / n) * frac;
  const double bw_s = egress_gbit_per_inst / spec.net_gbps;
  // Latency: a rank's messages are issued sequentially.
  const double lat_s = app.msgs_per_rank * frac * spec.net_latency_us * 1e-6;
  b.net_h = (bw_s + lat_s) / 3600.0;

  // I/O: aggregate bandwidth scales with the instance count.
  const int instances = (n + spec.cores - 1) / spec.cores;
  const double agg_io_gb_s = static_cast<double>(instances) * spec.io_mbps / 1000.0;
  const double io_s =
      (app.io_seq_gb + app.io_rand_gb * kRandomIoPenalty) / agg_io_gb_s;
  b.io_h = io_s / 3600.0;

  return b;
}

CheckpointCosts ExecTimeEstimator::checkpoint_costs(const AppProfile& app,
                                                    const InstanceType& type,
                                                    std::string_view zone_name) const {
  const platform::EffectiveSpec spec = spec_for(app, type, zone_name);
  const int instances = (app.processes + spec.cores - 1) / spec.cores;
  // State is uploaded to object storage through every NIC in parallel; the
  // zone uplink (fair-shared across the group's instances) can clamp the
  // per-instance rate below the NIC. The latency term is 0 for the flat
  // view, so adding it is exact there.
  const double transfer_s =
      app.state_gb * 8.0 / (static_cast<double>(instances) * spec.uplink_gbps) +
      spec.uplink_latency_us * 1e-6;
  CheckpointCosts c;
  c.checkpoint_h = transfer_s / 3600.0 + kCheckpointFixedH;
  c.recovery_h = transfer_s / 3600.0 + kRecoveryFixedH;
  return c;
}

double ExecTimeEstimator::hours(const AppProfile& app, const InstanceType& type,
                                std::string_view zone_name) const {
  return estimate(app, type, zone_name).total_h();
}

}  // namespace sompi
