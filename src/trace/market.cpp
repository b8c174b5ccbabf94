#include "trace/market.h"

#include <cmath>

#include "common/error.h"

namespace sompi {

Market::Market(const Catalog* catalog, std::vector<SpotTrace> traces) : catalog_(catalog) {
  SOMPI_REQUIRE(catalog_ != nullptr);
  SOMPI_REQUIRE_MSG(traces.size() == catalog_->types().size() * catalog_->zones().size(),
                    "one trace per (type, zone) required");
  traces_.reserve(traces.size());
  for (SpotTrace& t : traces) traces_.push_back(std::make_shared<const SpotTrace>(std::move(t)));
}

std::size_t Market::index(const CircleGroupSpec& group) const {
  SOMPI_REQUIRE(group.type_index < catalog_->types().size());
  SOMPI_REQUIRE(group.zone_index < catalog_->zones().size());
  return group.type_index * catalog_->zones().size() + group.zone_index;
}

const SpotTrace& Market::trace(const CircleGroupSpec& group) const {
  return *traces_[index(group)];
}

const std::shared_ptr<const SpotTrace>& Market::shared_trace(const CircleGroupSpec& group) const {
  return traces_[index(group)];
}

void Market::set_trace(const CircleGroupSpec& group, std::shared_ptr<const SpotTrace> trace) {
  SOMPI_REQUIRE(trace != nullptr);
  traces_[index(group)] = std::move(trace);
}

Market Market::tail_hours(double hours) const {
  std::vector<SpotTrace> tails;
  tails.reserve(traces_.size());
  for (const auto& t : traces_) tails.push_back(t->tail_hours(hours));
  return Market(catalog_, std::move(tails));
}

Market Market::window(std::size_t start, std::size_t len) const {
  std::vector<SpotTrace> parts;
  parts.reserve(traces_.size());
  for (const auto& t : traces_) parts.push_back(t->window(start, len));
  return Market(catalog_, std::move(parts));
}

MarketProfile paper_market_profile(const Catalog& catalog) {
  const std::size_t zones = catalog.zones().size();
  MarketProfile profile(catalog.types().size() * zones, VolatilityClass::kModerate);
  auto set = [&](const std::string& type, std::size_t zone, VolatilityClass v) {
    profile[catalog.type_index(type) * zones + zone] = v;
  };
  // Figure 1 observations: the m1 family in us-east-1a is spiky; us-east-1b
  // is quiet across the board; us-east-1c sits in between. Compute-optimized
  // types see moderate variation in 1a.
  for (std::size_t t = 0; t < catalog.types().size(); ++t) {
    if (zones > 1) profile[t * zones + 1] = VolatilityClass::kQuiet;
    if (zones > 2) profile[t * zones + 2] = VolatilityClass::kModerate;
  }
  set("m1.medium", 0, VolatilityClass::kSpiky);
  set("m1.small", 0, VolatilityClass::kSpiky);
  if (zones > 2) set("m1.medium", 2, VolatilityClass::kQuiet);
  return profile;
}

MarketProfile random_market_profile(const Catalog& catalog, Rng& rng) {
  MarketProfile profile(catalog.types().size() * catalog.zones().size(),
                        VolatilityClass::kModerate);
  for (auto& v : profile) {
    switch (rng.uniform_index(3)) {
      case 0: v = VolatilityClass::kQuiet; break;
      case 1: v = VolatilityClass::kModerate; break;
      default: v = VolatilityClass::kSpiky; break;
    }
  }
  return profile;
}

double base_spot_price(const InstanceType& type) {
  SOMPI_REQUIRE(type.spot_discount > 0.0);
  return type.ondemand_usd_h * type.spot_discount;
}

Market generate_market(const Catalog& catalog, const MarketProfile& profile, double days,
                       double step_hours, std::uint64_t seed) {
  SOMPI_REQUIRE(days > 0.0);
  SOMPI_REQUIRE(step_hours > 0.0);
  SOMPI_REQUIRE(profile.size() == catalog.types().size() * catalog.zones().size());

  const auto steps = static_cast<std::size_t>(std::ceil(days * 24.0 / step_hours));
  Rng master(seed);
  std::vector<SpotTrace> traces;
  traces.reserve(profile.size());
  for (std::size_t t = 0; t < catalog.types().size(); ++t) {
    for (std::size_t z = 0; z < catalog.zones().size(); ++z) {
      Rng group_rng = master.split();
      const auto params =
          regime_params_for(profile[t * catalog.zones().size() + z],
                            base_spot_price(catalog.types()[t]));
      traces.push_back(generate_trace(params, steps, step_hours, group_rng));
    }
  }
  return Market(&catalog, std::move(traces));
}

}  // namespace sompi
