#include "service/board_fanout.h"

#include <string>

#include "common/error.h"

namespace sompi {

BoardFanout::BoardFanout(std::vector<MarketBoard*> replicas) : boards_(std::move(replicas)) {
  SOMPI_REQUIRE_MSG(!boards_.empty(), "fan-out needs at least one replica");
  for (MarketBoard* board : boards_) SOMPI_REQUIRE(board != nullptr);
  const std::uint64_t first = boards_.front()->epoch();
  for (MarketBoard* board : boards_)
    SOMPI_REQUIRE_MSG(board->epoch() == first,
                      "fan-out replicas must start at one common epoch");
}

std::uint64_t BoardFanout::check_agreement(const std::vector<std::uint64_t>& epochs) const {
  for (std::size_t i = 1; i < epochs.size(); ++i)
    SOMPI_ASSERT_MSG(epochs[i] == epochs[0],
                     "replica " + std::to_string(i) + " diverged to epoch " +
                         std::to_string(epochs[i]) + " (primary at " +
                         std::to_string(epochs[0]) + ") — a board was bumped outside "
                         "the fan-out barrier");
  return epochs[0];
}

std::uint64_t BoardFanout::ingest(const std::vector<PriceUpdate>& updates) {
  std::lock_guard<std::mutex> lock(mutex_);
  // Every replica holds the primary's content (the barrier), so the new
  // traces are built once and the same objects land on every replica.
  const std::vector<GroupTrace> traces = appended_traces(*primary()->snapshot().market, updates);
  std::vector<std::uint64_t> epochs;
  epochs.reserve(boards_.size());
  for (MarketBoard* board : boards_) epochs.push_back(board->install(traces));
  ++publications_;
  return check_agreement(epochs);
}

std::uint64_t BoardFanout::publish(Market next) {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::uint64_t> epochs;
  epochs.reserve(boards_.size());
  for (MarketBoard* board : boards_) epochs.push_back(board->publish(next));
  ++publications_;
  return check_agreement(epochs);
}

std::uint64_t BoardFanout::epoch() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return boards_.front()->epoch();
}

std::uint64_t BoardFanout::publications() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return publications_;
}

}  // namespace sompi
