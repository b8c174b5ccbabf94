// Unit tests for the plan-serving subsystem (src/service): request
// canonicalization, the MarketBoard's epoching, the sharded LRU plan cache,
// and the PlanService's hit/solve/join/shed behaviour — including the
// determinism contract that a cache hit is bit-identical (plan_fingerprint)
// to a fresh solve at the same epoch. The multi-threaded TSan stress lives
// in test_service_stress.cpp.
#include "service/plan_service.h"

#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <chrono>
#include <cmath>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "common/error.h"
#include "common/rng.h"
#include "profile/paper_profiles.h"
#include "support/stream_key_oracle.h"

namespace sompi {
namespace {

// ---------------------------------------------------------------------------
// Canonical keys.

PlanRequest bt_request(double deadline_h) {
  PlanRequest r;
  r.app = paper_profile("BT");
  r.deadline_h = deadline_h;
  return r;
}

TEST(CanonicalKey, ConstraintOrderAndDuplicatesDoNotMatter) {
  PlanRequest a = bt_request(30.0);
  a.allowed_types = {"m1.small", "c3.xlarge", "m1.small"};
  a.allowed_zones = {"us-east-1c", "us-east-1a"};
  PlanRequest b = bt_request(30.0);
  b.allowed_types = {"c3.xlarge", "m1.small"};
  b.allowed_zones = {"us-east-1a", "us-east-1c", "us-east-1a"};
  EXPECT_EQ(canonical_key(canonicalized(a)), canonical_key(canonicalized(b)));
}

TEST(CanonicalKey, DistinguishesDeadlineByBitPattern) {
  const double d = 30.0;
  const auto key_lo = canonical_key(canonicalized(bt_request(d)));
  const auto key_hi =
      canonical_key(canonicalized(bt_request(std::nextafter(d, 31.0))));
  EXPECT_NE(key_lo, key_hi);
}

TEST(CanonicalKey, DistinguishesConstraintSets) {
  PlanRequest a = bt_request(30.0);
  PlanRequest b = bt_request(30.0);
  b.allowed_zones = {"us-east-1a"};
  EXPECT_NE(canonical_key(canonicalized(a)), canonical_key(canonicalized(b)));
}

/// A double whose bit pattern is as likely to be NaN, ±0, ±inf or a
/// denormal as an ordinary value: the key encodes bits, not values.
double random_bits_double(Rng& rng) {
  static const double kSpecial[] = {
      0.0,
      -0.0,
      std::numeric_limits<double>::quiet_NaN(),
      -std::numeric_limits<double>::quiet_NaN(),
      std::numeric_limits<double>::infinity(),
      -std::numeric_limits<double>::infinity(),
      std::numeric_limits<double>::denorm_min(),
      -std::numeric_limits<double>::denorm_min(),
      std::bit_cast<double>(std::uint64_t{0x000FFFFFFFFFFFFFull}),  // largest denormal
      std::bit_cast<double>(std::uint64_t{0x7FF0000000000001ull}),  // signalling NaN
  };
  switch (rng.uniform_index(4)) {
    case 0: return kSpecial[rng.uniform_index(std::size(kSpecial))];
    case 1: return std::bit_cast<double>(rng());  // any pattern at all
    default: return rng.uniform(0.0, 1000.0);
  }
}

/// Names built from the key's own separators, digits and plain letters.
std::string random_name(Rng& rng) {
  static const char kAlphabet[] = "|:[]=,0123456789abcXYZ.-_ ";
  std::string name(rng.uniform_index(12), ' ');
  for (char& c : name) c = kAlphabet[rng.uniform_index(sizeof kAlphabet - 1)];
  return name;
}

std::vector<std::string> random_names(Rng& rng) {
  std::vector<std::string> names(rng.uniform_index(4));
  for (std::string& name : names) name = random_name(rng);
  return names;
}

TEST(CanonicalKey, EqualsTheStreamEncoderOverRandomRequests) {
  Rng rng(0xC0FFEEull);
  for (int i = 0; i < 20000; ++i) {
    PlanRequest r;
    r.app.name = random_name(rng);
    r.app.category = static_cast<AppCategory>(rng.uniform_index(3));
    r.app.processes = static_cast<int>(rng.uniform_int(-1000000, 1000000));
    if (i % 97 == 0) r.app.processes = std::numeric_limits<int>::min();
    r.app.instr_gi = random_bits_double(rng);
    r.app.comm_gb = random_bits_double(rng);
    r.app.msgs_per_rank = random_bits_double(rng);
    r.app.io_seq_gb = random_bits_double(rng);
    r.app.io_rand_gb = random_bits_double(rng);
    r.app.state_gb = random_bits_double(rng);
    r.deadline_h = random_bits_double(rng);
    r.allowed_types = random_names(rng);
    r.allowed_zones = random_names(rng);
    ASSERT_EQ(canonical_key(r), oracle::stream_canonical_key(r)) << "request " << i;
  }
}

TEST(PlanFingerprint, EqualsTheStreamEncoderOverRandomPlans) {
  Rng rng(0xF1A9ull);
  for (int i = 0; i < 5000; ++i) {
    Plan p;
    p.app = random_name(rng);
    p.step_hours = random_bits_double(rng);
    p.deadline_h = random_bits_double(rng);
    p.state_gb = random_bits_double(rng);
    p.od.type_index = rng();
    p.od.t_h = random_bits_double(rng);
    p.od.instances = static_cast<int>(rng.uniform_int(-100, 100000));
    p.od.rate_usd_h = random_bits_double(rng);
    p.od.feasible = rng.bernoulli(0.5);
    p.groups.resize(rng.uniform_index(5));
    for (GroupPlan& g : p.groups) {
      g.spec.type_index = rng.uniform_index(64);
      g.spec.zone_index = rng();
      g.name = random_name(rng);
      g.instances = static_cast<int>(rng.uniform_int(-10, 4096));
      g.t_steps = static_cast<int>(rng.uniform_int(-10, 100000));
      g.f_steps = static_cast<int>(rng.uniform_int(-10, 100000));
      g.o_steps = random_bits_double(rng);
      g.r_steps = random_bits_double(rng);
      g.bid_usd = random_bits_double(rng);
      g.ckpt_policy = rng.bernoulli(0.5) ? "s3" : random_name(rng);
    }
    p.expected.cost_usd = random_bits_double(rng);
    p.expected.time_h = random_bits_double(rng);
    p.expected.spot_cost_usd = random_bits_double(rng);
    p.expected.od_cost_usd = random_bits_double(rng);
    p.expected.spot_time_h = random_bits_double(rng);
    p.expected.od_time_h = random_bits_double(rng);
    p.expected.p_complete_on_spot = random_bits_double(rng);
    p.expected.e_min_ratio = random_bits_double(rng);
    p.spot_feasible = rng.bernoulli(0.5);
    p.model_evaluations = static_cast<std::size_t>(rng());
    ASSERT_EQ(plan_fingerprint(p), oracle::stream_plan_fingerprint(p)) << "plan " << i;
  }
}

TEST(CanonicalKey, RejectsNonPositiveDeadline) {
  EXPECT_THROW(canonicalized(bt_request(0.0)), PreconditionError);
  EXPECT_THROW(canonicalized(bt_request(-1.0)), PreconditionError);
}

// ---------------------------------------------------------------------------
// MarketBoard.

class MarketBoardTest : public ::testing::Test {
 protected:
  Catalog catalog_ = paper_catalog();
  Market market_ = generate_market(catalog_, paper_market_profile(catalog_), /*days=*/2.0,
                                   /*step_hours=*/0.25, /*seed=*/11);
};

TEST_F(MarketBoardTest, EpochStartsAtOneAndIsMonotonic) {
  MarketBoard board(market_);
  EXPECT_EQ(board.epoch(), 1u);
  EXPECT_EQ(board.ingest({}), 2u);
  EXPECT_EQ(board.publish(market_), 3u);
  EXPECT_EQ(board.snapshot().epoch, 3u);
}

TEST_F(MarketBoardTest, IngestAppendsPricesToTheNamedGroup) {
  MarketBoard board(market_);
  const CircleGroupSpec group{0, 0};
  const std::size_t before = board.snapshot().market->trace(group).steps();

  board.ingest({PriceUpdate{group, {0.011, 0.022, 0.033}}});

  const MarketSnapshot snap = board.snapshot();
  const SpotTrace& after = snap.market->trace(group);
  ASSERT_EQ(after.steps(), before + 3);
  EXPECT_DOUBLE_EQ(after.price(before + 2), 0.033);
}

TEST_F(MarketBoardTest, SnapshotsAreImmutableAcrossIngest) {
  MarketBoard board(market_);
  const MarketSnapshot old = board.snapshot();
  const std::size_t old_steps = old.market->trace({0, 0}).steps();

  board.ingest({PriceUpdate{{0, 0}, {0.5}}});

  EXPECT_EQ(old.market->trace({0, 0}).steps(), old_steps);  // frozen world
  EXPECT_EQ(board.snapshot().market->trace({0, 0}).steps(), old_steps + 1);
  EXPECT_GT(board.snapshot().epoch, old.epoch);
}

// ---------------------------------------------------------------------------
// PlanCache.

std::shared_ptr<const Plan> dummy_plan(const std::string& app) {
  Plan p;
  p.app = app;
  return std::make_shared<const Plan>(std::move(p));
}

TEST(PlanCacheTest, HitRequiresMatchingEpoch) {
  PlanCache cache({.shards = 2, .capacity = 8});
  cache.insert("k", 1, dummy_plan("a"));
  ASSERT_NE(cache.lookup("k", 1), nullptr);
  EXPECT_EQ(cache.lookup("k", 2), nullptr);
  EXPECT_EQ(cache.lookup("other", 1), nullptr);
  EXPECT_EQ(cache.size(), 1u);
}

TEST(PlanCacheTest, LruEvictsLeastRecentlyUsed) {
  // One shard so the eviction order is fully observable.
  PlanCache cache({.shards = 1, .capacity = 2});
  cache.insert("a", 1, dummy_plan("a"));
  cache.insert("b", 1, dummy_plan("b"));
  ASSERT_NE(cache.lookup("a", 1), nullptr);  // refresh "a": "b" is now LRU
  cache.insert("c", 1, dummy_plan("c"));
  EXPECT_NE(cache.lookup("a", 1), nullptr);
  EXPECT_EQ(cache.lookup("b", 1), nullptr);
  EXPECT_NE(cache.lookup("c", 1), nullptr);
  EXPECT_EQ(cache.size(), 2u);
}

TEST(PlanCacheTest, EraseOlderThanDropsDeadEpochsOnly) {
  PlanCache cache({.shards = 4, .capacity = 64});
  cache.insert("a", 1, dummy_plan("a"));
  cache.insert("b", 2, dummy_plan("b"));
  cache.insert("c", 3, dummy_plan("c"));
  EXPECT_EQ(cache.erase_older_than(3), 2u);
  EXPECT_EQ(cache.lookup("a", 1), nullptr);
  EXPECT_EQ(cache.lookup("b", 2), nullptr);
  EXPECT_NE(cache.lookup("c", 3), nullptr);
}

TEST(PlanCacheTest, ReinsertReplacesTheValue) {
  PlanCache cache({.shards = 1, .capacity = 4});
  cache.insert("k", 1, dummy_plan("old"));
  cache.insert("k", 1, dummy_plan("new"));
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.lookup("k", 1)->app, "new");
}

// ---------------------------------------------------------------------------
// PlanService.

class PlanServiceTest : public ::testing::Test {
 protected:
  static ServiceConfig fast_config() {
    ServiceConfig c;
    c.cache = {.shards = 4, .capacity = 64};
    c.max_concurrent_solves = 2;
    c.max_queued_solves = 8;
    c.opt.max_candidates = 3;
    c.opt.max_groups = 2;
    c.opt.setup.log_levels = 3;
    c.opt.setup.failure.samples = 400;
    c.opt.ratio_bins = 32;
    return c;
  }

  PlanRequest request(double factor = 1.5) const {
    PlanRequest r;
    r.app = paper_profile("BT");
    r.deadline_h = baseline_h_ * factor;
    return r;
  }

  Catalog catalog_ = paper_catalog();
  ExecTimeEstimator est_;
  Market market_ = generate_market(catalog_, paper_market_profile(catalog_), /*days=*/3.0,
                                   /*step_hours=*/0.25, /*seed=*/42);
  MarketBoard board_{market_};
  double baseline_h_ = OnDemandSelector(&catalog_, &est_).baseline(paper_profile("BT")).t_h;
};

TEST_F(PlanServiceTest, CacheHitIsBitIdenticalToAFreshSolve) {
  PlanService service(&catalog_, &est_, &board_, fast_config());

  const PlanResponse first = service.serve(request());
  ASSERT_EQ(first.outcome, PlanOutcome::kSolved);
  ASSERT_NE(first.plan, nullptr);
  EXPECT_EQ(first.epoch, 1u);

  const PlanResponse second = service.serve(request());
  ASSERT_EQ(second.outcome, PlanOutcome::kHit);

  // The contract: hit ≡ fresh solve at the same epoch, bit for bit.
  const Plan fresh =
      service.solve(canonicalized(request()), *board_.snapshot().market);
  EXPECT_EQ(plan_fingerprint(*second.plan), plan_fingerprint(fresh));
  EXPECT_EQ(plan_fingerprint(*first.plan), plan_fingerprint(*second.plan));

  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.requests, 2u);
  EXPECT_EQ(stats.solves, 1u);
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.cache_entries, 1u);
  EXPECT_GT(stats.solve_seconds_total, 0.0);
  EXPECT_GT(stats.solve_p99_ms, 0.0);
}

TEST_F(PlanServiceTest, EpochBumpInvalidatesAndForcesResolve) {
  PlanService service(&catalog_, &est_, &board_, fast_config());
  ASSERT_EQ(service.serve(request()).outcome, PlanOutcome::kSolved);

  // A market move obsoletes the cached plan even though the request is
  // byte-identical.
  board_.ingest({PriceUpdate{{0, 0}, {0.9, 0.9, 0.9, 0.9}}});
  const PlanResponse after = service.serve(request());
  EXPECT_EQ(after.outcome, PlanOutcome::kSolved);
  EXPECT_EQ(after.epoch, 2u);

  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.solves, 2u);
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_EQ(stats.stale_evicted, 1u);  // the epoch-1 entry was swept
  EXPECT_EQ(stats.cache_entries, 1u);
}

TEST_F(PlanServiceTest, InvalidateStaleReclaimsEagerly) {
  PlanService service(&catalog_, &est_, &board_, fast_config());
  ASSERT_EQ(service.serve(request()).outcome, PlanOutcome::kSolved);
  board_.ingest({});
  EXPECT_EQ(service.invalidate_stale(), 1u);
  EXPECT_EQ(service.stats().cache_entries, 0u);
}

TEST_F(PlanServiceTest, ConstrainedRequestStaysInsideItsCatalogSlice) {
  PlanService service(&catalog_, &est_, &board_, fast_config());
  PlanRequest r = request(/*factor=*/3.0);
  r.allowed_types = {"cc2.8xlarge"};
  r.allowed_zones = {"us-east-1b"};

  const PlanResponse response = service.serve(r);
  ASSERT_EQ(response.outcome, PlanOutcome::kSolved);
  const std::size_t type = catalog_.type_index("cc2.8xlarge");
  const std::size_t zone = catalog_.zone_index("us-east-1b");
  EXPECT_EQ(response.plan->od.type_index, type);
  for (const GroupPlan& g : response.plan->groups) {
    EXPECT_EQ(g.spec.type_index, type);
    EXPECT_EQ(g.spec.zone_index, zone);
  }
}

TEST_F(PlanServiceTest, UnknownConstraintNameFailsFast) {
  PlanService service(&catalog_, &est_, &board_, fast_config());
  PlanRequest r = request();
  r.allowed_types = {"p5.48xlarge"};
  EXPECT_THROW(service.serve(r), PreconditionError);
  EXPECT_EQ(service.stats().solves, 0u);
}

TEST_F(PlanServiceTest, SingleFlightCollapsesConcurrentIdenticalRequests) {
  constexpr int kThreads = 4;
  ServiceConfig cfg = fast_config();
  std::atomic<int> solves_started{0};
  PlanService* service_ptr = nullptr;
  // Hold the one solve open until every other thread has joined the flight,
  // so the dedup path (not fast sequential hits) is what's exercised.
  cfg.solve_hook = [&](const std::string&, std::uint64_t) {
    solves_started.fetch_add(1);
    const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
    while (service_ptr->stats().dedup_joins < kThreads - 1 &&
           std::chrono::steady_clock::now() < deadline)
      std::this_thread::yield();
  };
  PlanService service(&catalog_, &est_, &board_, cfg);
  service_ptr = &service;

  std::vector<PlanResponse> responses(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&, t] { responses[t] = service.serve(request()); });
  for (auto& th : threads) th.join();

  EXPECT_EQ(solves_started.load(), 1);
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.solves, 1u);
  EXPECT_EQ(stats.dedup_joins, static_cast<std::uint64_t>(kThreads - 1));
  int solved = 0, joined = 0;
  for (const PlanResponse& r : responses) {
    ASSERT_NE(r.plan, nullptr);
    EXPECT_EQ(plan_fingerprint(*r.plan), plan_fingerprint(*responses[0].plan));
    solved += r.outcome == PlanOutcome::kSolved;
    joined += r.outcome == PlanOutcome::kJoined;
  }
  EXPECT_EQ(solved, 1);
  EXPECT_EQ(joined, kThreads - 1);
}

TEST_F(PlanServiceTest, OverloadShedsInsteadOfQueueingUnboundedly) {
  ServiceConfig cfg = fast_config();
  cfg.max_concurrent_solves = 1;
  cfg.max_queued_solves = 0;
  std::atomic<bool> release{false};
  std::atomic<bool> solving{false};
  cfg.solve_hook = [&](const std::string&, std::uint64_t) {
    solving.store(true);
    const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
    while (!release.load() && std::chrono::steady_clock::now() < deadline)
      std::this_thread::yield();
  };
  PlanService service(&catalog_, &est_, &board_, cfg);

  std::thread owner([&] { service.serve(request(1.5)); });
  while (!solving.load()) std::this_thread::yield();

  // Different request: cannot join the in-flight solve, the one solve slot
  // is busy, and the queue allows nobody — explicit shed.
  const PlanResponse shed = service.serve(request(2.0));
  EXPECT_EQ(shed.outcome, PlanOutcome::kShed);
  EXPECT_EQ(shed.plan, nullptr);
  EXPECT_THROW(service.plan_or_throw(request(2.5)), OverloadError);

  release.store(true);
  owner.join();
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.sheds, 2u);
  EXPECT_EQ(stats.solves, 1u);

  // Capacity freed: the formerly-shed request now solves fine.
  EXPECT_EQ(service.serve(request(2.0)).outcome, PlanOutcome::kSolved);
}

TEST_F(PlanServiceTest, SolveFailurePropagatesToOwnerAndIsNotCached) {
  ServiceConfig cfg = fast_config();
  std::atomic<int> attempts{0};
  cfg.solve_hook = [&](const std::string&, std::uint64_t) {
    if (attempts.fetch_add(1) == 0) throw IoError("market feed hiccup");
  };
  PlanService service(&catalog_, &est_, &board_, cfg);

  EXPECT_THROW(service.serve(request()), IoError);
  EXPECT_EQ(service.stats().solves, 0u);
  EXPECT_EQ(service.stats().cache_entries, 0u);

  // Failures are not cached: the retry solves.
  EXPECT_EQ(service.serve(request()).outcome, PlanOutcome::kSolved);
}

TEST_F(PlanServiceTest, DistinctRequestsGetDistinctCacheEntries) {
  PlanService service(&catalog_, &est_, &board_, fast_config());
  ASSERT_EQ(service.serve(request(1.5)).outcome, PlanOutcome::kSolved);
  ASSERT_EQ(service.serve(request(2.0)).outcome, PlanOutcome::kSolved);
  EXPECT_EQ(service.serve(request(1.5)).outcome, PlanOutcome::kHit);
  EXPECT_EQ(service.serve(request(2.0)).outcome, PlanOutcome::kHit);
  EXPECT_EQ(service.stats().cache_entries, 2u);
}

}  // namespace
}  // namespace sompi
