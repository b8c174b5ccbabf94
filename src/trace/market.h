// A "market" bundles one spot-price trace per circle group (type × zone).
//
// The default profile assignment reproduces the paper's spatial observations
// (§2.1): the same instance type behaves differently across zones, zones are
// independent, and at least one (type, zone) pair is quiet while another is
// spiky.
#pragma once

#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "cloud/catalog.h"
#include "common/rng.h"
#include "trace/generator.h"
#include "trace/spot_trace.h"

namespace sompi {

/// Spot-price traces for every circle group in a catalog.
///
/// Each group's trace is an immutable object held by shared pointer, so
/// copying a Market copies one pointer per group and every copy reads the
/// same trace objects. A new history for a group is a new trace installed
/// with set_trace(); markets that still hold the old one are unaffected.
class Market {
 public:
  Market(const Catalog* catalog, std::vector<SpotTrace> traces);

  const Catalog& catalog() const { return *catalog_; }

  /// Trace for a circle group; groups are indexed as type*zones+zone.
  const SpotTrace& trace(const CircleGroupSpec& group) const;
  /// The shared trace object behind trace(group).
  const std::shared_ptr<const SpotTrace>& shared_trace(const CircleGroupSpec& group) const;
  /// Points this market's group at `trace` (non-null).
  void set_trace(const CircleGroupSpec& group, std::shared_ptr<const SpotTrace> trace);

  std::size_t group_count() const { return traces_.size(); }

  /// Sub-market containing only the trailing `hours` of each trace — what
  /// the adaptive optimizer sees at a window boundary.
  Market tail_hours(double hours) const;

  /// Sub-market with steps [start, start+len) of each trace.
  Market window(std::size_t start, std::size_t len) const;

 private:
  std::size_t index(const CircleGroupSpec& group) const;

  const Catalog* catalog_;
  std::vector<std::shared_ptr<const SpotTrace>> traces_;
};

/// Per-group volatility assignment. Entry [t*zones+z] gives the class of
/// type t in zone z.
using MarketProfile = std::vector<VolatilityClass>;

/// The hand-calibrated profile reproducing Figure 1's zoo for the paper
/// catalog: us-east-1a spiky for the m1 family, us-east-1b quiet, 1c mixed.
MarketProfile paper_market_profile(const Catalog& catalog);

/// Uniformly seeded random profile (robustness studies).
MarketProfile random_market_profile(const Catalog& catalog, Rng& rng);

/// Base CALM spot price for a type: its spot_discount × on-demand price.
double base_spot_price(const InstanceType& type);

/// Generates a market: one trace per (type, zone) with per-group params.
/// `days` of history at `step_hours` resolution.
Market generate_market(const Catalog& catalog, const MarketProfile& profile, double days,
                       double step_hours, std::uint64_t seed);

}  // namespace sompi
