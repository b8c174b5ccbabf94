// Execution-time estimation (paper §4.4).
//
// "We estimate the execution time as the summation of its CPU, networking
//  and I/O time": CPU from the instruction count and the per-core speed,
// networking from the inter-instance traffic through each NIC (traffic
// between ranks on the same instance uses shared memory and is free — the
// effect that makes cc2.8xlarge the winner for communication-bound codes),
// I/O from the aggregate disk bandwidth of all instances (more instances =
// more I/O parallelism — the effect that favours the m1 family for BTIO).
//
// Every estimate reads its capability numbers through a platform::Platform
// (DESIGN.md §12): Platform::effective folds the zone's fabric/uplink links
// and compute derating into an EffectiveSpec first. A default-constructed
// estimator borrows an empty platform, whose fallback for every type and
// zone is the InstanceType capability columns — exactly the paper's
// flat-constant model — and Platform::flat() reproduces those columns
// bit-exactly too, so attaching the flat platform changes no estimate by
// even one ULP. An empty zone name means "no zone": the host rates alone,
// with no link or derating folded in — the rule the on-demand tier uses.
#pragma once

#include <string_view>

#include "cloud/catalog.h"
#include "platform/platform.h"
#include "profile/app_profile.h"

namespace sompi {

/// Component breakdown of an execution-time estimate, in hours.
struct TimeBreakdown {
  double cpu_h = 0.0;
  double net_h = 0.0;
  double io_h = 0.0;

  double total_h() const { return cpu_h + net_h + io_h; }
};

/// Checkpoint/recovery overheads for one app on one instance type, hours.
struct CheckpointCosts {
  double checkpoint_h = 0.0;  ///< the paper's O_i
  double recovery_h = 0.0;    ///< the paper's R_i
};

class ExecTimeEstimator {
 public:
  /// Random I/O achieves this fraction of sequential bandwidth.
  static constexpr double kRandomIoPenalty = 4.0;
  /// Coordination barrier + metadata cost of one checkpoint, hours.
  static constexpr double kCheckpointFixedH = 0.002;
  /// Restart (relaunch + rebuild communicators) fixed cost, hours.
  static constexpr double kRecoveryFixedH = 0.01;

  /// Catalog-only estimator (the paper's flat-constant model): borrows an
  /// empty platform, which falls back to the catalog columns everywhere.
  ExecTimeEstimator() : ExecTimeEstimator(nullptr) {}
  /// Platform-aware estimator: every estimate derives its numbers from
  /// `platform` (borrowed; must outlive the estimator). nullptr behaves
  /// exactly like the default constructor.
  explicit ExecTimeEstimator(const platform::Platform* platform);

  /// The platform estimates read; never null.
  const platform::Platform* platform() const { return platform_; }

  /// Fraction of a rank's traffic that crosses the network when `cores`
  /// ranks share an instance out of `n` total (uniform partner model).
  static double inter_instance_fraction(int cores, int n);

  /// Estimates the productive execution time of `app` on instances of
  /// `type` (one rank per core) in `zone_name`: the platform folds that
  /// zone's links and derating in, the group's instance count being the flow
  /// count on shared links. The empty zone means "no zone: host rates only".
  TimeBreakdown estimate(const AppProfile& app, const InstanceType& type,
                         std::string_view zone_name = {}) const;

  /// Convenience: total hours only.
  double hours(const AppProfile& app, const InstanceType& type,
               std::string_view zone_name = {}) const;

  /// Checkpoint overhead O and recovery overhead R: the full application
  /// state is pushed to (pulled from) object storage through the NICs.
  CheckpointCosts checkpoint_costs(const AppProfile& app, const InstanceType& type,
                                   std::string_view zone_name = {}) const;

 private:
  /// The one source of capability numbers: the platform's effective spec for
  /// one instance of the group, so catalog and platform estimates share every
  /// line of arithmetic and cannot drift.
  platform::EffectiveSpec spec_for(const AppProfile& app, const InstanceType& type,
                                   std::string_view zone_name) const;

  const platform::Platform* platform_;
};

}  // namespace sompi
