#include "service/market_board.h"

#include <algorithm>

#include "common/error.h"

namespace sompi {

namespace {

std::shared_ptr<const std::vector<std::uint64_t>> stamped_versions(const Market& market,
                                                                   std::uint64_t epoch) {
  return std::make_shared<const std::vector<std::uint64_t>>(market.group_count(), epoch);
}

}  // namespace

MarketBoard::MarketBoard(Market initial)
    : epoch_(1), market_(std::make_shared<const Market>(std::move(initial))) {
  versions_ = stamped_versions(*market_, epoch_);
}

MarketSnapshot MarketBoard::snapshot() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return MarketSnapshot{epoch_, market_, versions_};
}

std::uint64_t MarketBoard::epoch() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return epoch_;
}

std::shared_ptr<const std::vector<std::uint64_t>> MarketBoard::group_versions() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return versions_;
}

std::uint64_t MarketBoard::publish(Market next) {
  auto frozen = std::make_shared<const Market>(std::move(next));
  std::lock_guard<std::mutex> lock(mutex_);
  market_ = std::move(frozen);
  ++epoch_;
  versions_ = stamped_versions(*market_, epoch_);
  return epoch_;
}

std::uint64_t MarketBoard::ingest(const std::vector<PriceUpdate>& updates) {
  // The traces must be built under the lock: two concurrent ingests that
  // each appended to the same base traces would lose one another's updates.
  // Readers block on the mutex for the duration — one copy per touched
  // group, once per market step, not once per request.
  std::lock_guard<std::mutex> lock(mutex_);
  return install_locked(appended_traces(*market_, updates));
}

std::uint64_t MarketBoard::install(const std::vector<GroupTrace>& traces) {
  std::lock_guard<std::mutex> lock(mutex_);
  return install_locked(traces);
}

std::uint64_t MarketBoard::install_locked(const std::vector<GroupTrace>& traces) {
  Market next = *market_;  // one pointer per group
  const std::size_t zones = next.catalog().zones().size();
  std::vector<std::uint64_t> vers = *versions_;
  for (const GroupTrace& t : traces) {
    next.set_trace(t.group, t.trace);
    vers.at(t.group.type_index * zones + t.group.zone_index) = epoch_ + 1;
  }
  market_ = std::make_shared<const Market>(std::move(next));
  ++epoch_;
  if (!traces.empty())
    versions_ = std::make_shared<const std::vector<std::uint64_t>>(std::move(vers));
  return epoch_;
}

std::vector<GroupTrace> appended_traces(const Market& base,
                                        const std::vector<PriceUpdate>& updates) {
  const std::size_t zones = base.catalog().zones().size();
  // Each touched group's new prices, concatenated in update order, per group
  // ordinal; `touched` keeps first-mention order. Every update is checked
  // before any trace is built, so a bad batch claims no lineage.
  std::vector<std::vector<double>> more(base.group_count());
  std::vector<CircleGroupSpec> touched;
  for (const PriceUpdate& update : updates) {
    SOMPI_REQUIRE_MSG(!base.trace(update.group).empty(), "cannot ingest into an empty trace");
    for (double p : update.prices) SOMPI_REQUIRE_MSG(p >= 0.0, "spot price must be non-negative");
    if (std::find(touched.begin(), touched.end(), update.group) == touched.end())
      touched.push_back(update.group);
    std::vector<double>& prices = more[update.group.type_index * zones + update.group.zone_index];
    prices.insert(prices.end(), update.prices.begin(), update.prices.end());
  }
  std::vector<GroupTrace> out;
  out.reserve(touched.size());
  for (const CircleGroupSpec& group : touched) {
    const std::vector<double>& prices = more[group.type_index * zones + group.zone_index];
    out.push_back(GroupTrace{group, std::make_shared<const SpotTrace>(
                                        base.trace(group).extended(prices))});
  }
  return out;
}

}  // namespace sompi
