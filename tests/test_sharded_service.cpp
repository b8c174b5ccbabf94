// Shard-equivalence battery for the sharded plan-serving tier
// (src/service/sharded): the consistent-hash router's purity and ring
// stability, the fan-out's replicated epoch publication, and the headline
// differential contract — for any request stream, an N-shard tier's plan
// fingerprints are bit-identical to the single-shard oracle's, its counters
// obey the conservation laws, and a tier-wide burst of identical requests
// solves exactly once. The multi-threaded epoch-churn chaos stress lives in
// test_sharded_stress.cpp.
#include "service/sharded/sharded_service.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <map>
#include <set>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "common/error.h"
#include "profile/paper_profiles.h"
#include "service/sharded/batch.h"

namespace sompi {
namespace {

// ---------------------------------------------------------------------------
// ShardRouter: pure function, full coverage, ring stability.

std::vector<std::string> synthetic_keys(std::size_t count) {
  std::vector<std::string> keys;
  keys.reserve(count);
  for (std::size_t i = 0; i < count; ++i)
    keys.push_back("app=BT|deadline=" + std::to_string(17.0 + 0.001 * static_cast<double>(i)));
  return keys;
}

TEST(ShardRouter, IndependentlyBuiltRoutersAgreeOnEveryKey) {
  const RouterConfig config{.shards = 8, .vnodes = 64, .salt = 0xFEEDULL};
  const ShardRouter a(config);
  const ShardRouter b(config);
  for (const std::string& key : synthetic_keys(2000))
    EXPECT_EQ(a.route(key), b.route(key)) << key;
}

TEST(ShardRouter, EveryShardOwnsASliceOfTheKeySpace) {
  const ShardRouter router({.shards = 8, .vnodes = 64, .salt = 7});
  std::vector<std::size_t> owned(8, 0);
  for (const std::string& key : synthetic_keys(4000)) {
    const std::size_t shard = router.route(key);
    ASSERT_LT(shard, 8u);
    ++owned[shard];
  }
  for (std::size_t s = 0; s < owned.size(); ++s) {
    // 4000 keys over 8 shards: mean 500. vnodes=64 keeps the worst shard
    // well within [1/4x, 4x] of the mean — loose enough to never flake, tight
    // enough to catch a broken ring (one shard owning everything or nothing).
    EXPECT_GT(owned[s], 125u) << "shard " << s << " owns almost nothing";
    EXPECT_LT(owned[s], 2000u) << "shard " << s << " owns almost everything";
  }
}

TEST(ShardRouter, AddingAShardMovesOnlyItsShareOfKeys) {
  const std::vector<std::string> keys = synthetic_keys(4000);
  for (const std::size_t n : {2u, 4u, 8u}) {
    const ShardRouter before({.shards = n, .vnodes = 64, .salt = 99});
    const ShardRouter after({.shards = n + 1, .vnodes = 64, .salt = 99});
    std::size_t moved = 0;
    for (const std::string& key : keys) {
      const std::size_t to = after.route(key);
      if (to != before.route(key)) {
        ++moved;
        // Consistent hashing moves keys only TOWARD the new shard — an old
        // shard's points never change, so no key moves between old shards.
        EXPECT_EQ(to, n) << key;
      }
    }
    // Expectation: K/(n+1) keys move. Allow 2x for hash variance.
    EXPECT_LT(moved, 2 * keys.size() / (n + 1)) << "ring reshuffled at n=" << n;
    EXPECT_GT(moved, 0u) << "new shard owns nothing at n=" << n;
  }
}

TEST(ShardRouter, RemovingAShardIsTheMirrorImage) {
  const std::vector<std::string> keys = synthetic_keys(3000);
  const ShardRouter eight({.shards = 8, .vnodes = 64, .salt = 3});
  const ShardRouter seven({.shards = 7, .vnodes = 64, .salt = 3});
  for (const std::string& key : keys) {
    // Keys not owned by the removed shard (id 7) must not move at all.
    if (eight.route(key) != 7) {
      EXPECT_EQ(seven.route(key), eight.route(key)) << key;
    }
  }
}

TEST(ShardRouter, RejectsDegenerateConfigs) {
  EXPECT_THROW(ShardRouter({.shards = 0, .vnodes = 64, .salt = 0}), PreconditionError);
  EXPECT_THROW(ShardRouter({.shards = 4, .vnodes = 0, .salt = 0}), PreconditionError);
}

// ---------------------------------------------------------------------------
// BoardFanout: replicated epoch publication.

class BoardFanoutTest : public ::testing::Test {
 protected:
  Catalog catalog_ = paper_catalog();
  Market market_ = generate_market(catalog_, paper_market_profile(catalog_), /*days=*/2.0,
                                   /*step_hours=*/0.25, /*seed=*/11);
};

TEST_F(BoardFanoutTest, IngestBumpsEveryReplicaToTheSameEpochAndContent) {
  MarketBoard a(market_), b(market_), c(market_);
  BoardFanout fanout({&a, &b, &c});
  EXPECT_EQ(fanout.epoch(), 1u);
  EXPECT_EQ(fanout.replica_count(), 3u);

  const std::uint64_t epoch =
      fanout.ingest({PriceUpdate{{0, 0}, {0.011, 0.022}}, PriceUpdate{{1, 1}, {0.033}}});
  EXPECT_EQ(epoch, 2u);
  EXPECT_EQ(a.epoch(), 2u);
  EXPECT_EQ(b.epoch(), 2u);
  EXPECT_EQ(c.epoch(), 2u);
  EXPECT_EQ(fanout.publications(), 1u);

  // Bit-identical content on every replica: same trace lengths and prices.
  const auto sa = a.snapshot(), sb = b.snapshot(), sc = c.snapshot();
  const SpotTrace& ta = sa.market->trace({0, 0});
  const SpotTrace& tb = sb.market->trace({0, 0});
  const SpotTrace& tc = sc.market->trace({0, 0});
  ASSERT_EQ(ta.steps(), tb.steps());
  ASSERT_EQ(ta.steps(), tc.steps());
  EXPECT_EQ(ta.price(ta.steps() - 1), tb.price(tb.steps() - 1));
  EXPECT_EQ(ta.price(ta.steps() - 1), tc.price(tc.steps() - 1));
}

TEST_F(BoardFanoutTest, RejectsReplicasAtDivergentEpochs) {
  MarketBoard a(market_), b(market_);
  b.ingest({});  // push b to epoch 2 behind the fan-out's back
  EXPECT_THROW(BoardFanout({&a, &b}), PreconditionError);
  EXPECT_THROW(BoardFanout({}), PreconditionError);
}

// ---------------------------------------------------------------------------
// Shared traces: a fan-out ingest builds each touched group's trace once and
// every replica installs that object; untouched groups keep theirs.

class SharedTraceTest : public BoardFanoutTest {};

TEST_F(SharedTraceTest, FanoutIngestSharesTouchedTracesAndKeepsUntouchedOnes) {
  MarketBoard a(market_), b(market_), c(market_);
  BoardFanout fanout({&a, &b, &c});
  const std::vector<MarketBoard*> replicas{&a, &b, &c};
  std::vector<MarketSnapshot> before;
  for (const MarketBoard* board : replicas) before.push_back(board->snapshot());
  const std::vector<CircleGroupSpec> groups = catalog_.all_groups();
  // Replicas primed from one Market already share its trace objects.
  for (const CircleGroupSpec& g : groups)
    for (const MarketSnapshot& snap : before)
      EXPECT_EQ(snap.market->shared_trace(g), market_.shared_trace(g));

  const std::vector<CircleGroupSpec> touched{{0, 0}, {1, 1}};
  // {0, 0} is named twice: both of its updates land, in order, on one trace.
  fanout.ingest({PriceUpdate{{0, 0}, {0.011}}, PriceUpdate{{1, 1}, {0.033, 0.044}},
                 PriceUpdate{{0, 0}, {0.022}}});

  for (const CircleGroupSpec& g : groups) {
    const bool is_touched = std::find(touched.begin(), touched.end(), g) != touched.end();
    const std::shared_ptr<const SpotTrace>& first = a.snapshot().market->shared_trace(g);
    for (std::size_t r = 0; r < replicas.size(); ++r) {
      const MarketSnapshot now = replicas[r]->snapshot();
      // One object per group across all replicas, touched or not.
      EXPECT_EQ(now.market->shared_trace(g), first) << "replica " << r;
      if (is_touched)
        EXPECT_NE(now.market->shared_trace(g), before[r].market->shared_trace(g));
      else
        EXPECT_EQ(now.market->shared_trace(g), before[r].market->shared_trace(g));
    }
  }

  // The new traces carry the appended steps; the old snapshots still read
  // exactly the history they were taken at.
  const std::size_t len = market_.trace({0, 0}).steps();
  const SpotTrace& t00 = b.snapshot().market->trace({0, 0});
  ASSERT_EQ(t00.steps(), len + 2);
  EXPECT_EQ(t00.price(len), 0.011);
  EXPECT_EQ(t00.price(len + 1), 0.022);
  EXPECT_EQ(c.snapshot().market->trace({1, 1}).steps(), market_.trace({1, 1}).steps() + 2);
  for (const MarketSnapshot& snap : before) {
    for (const CircleGroupSpec& g : touched) {
      const SpotTrace& old = snap.market->trace(g);
      ASSERT_EQ(old.steps(), market_.trace(g).steps());
      EXPECT_TRUE(std::ranges::equal(old.prices(), market_.trace(g).prices()));
      EXPECT_EQ(old.max_price(), market_.trace(g).max_price());
    }
  }
}

TEST_F(SharedTraceTest, BoardIngestCopiesOnlyTouchedGroupsAndFailsAtomically) {
  MarketBoard board(market_);
  const MarketSnapshot before = board.snapshot();
  board.ingest({PriceUpdate{{2, 1}, {0.5}}});
  const MarketSnapshot after = board.snapshot();
  for (const CircleGroupSpec& g : catalog_.all_groups()) {
    if (g == CircleGroupSpec{2, 1})
      EXPECT_NE(after.market->shared_trace(g), before.market->shared_trace(g));
    else
      EXPECT_EQ(after.market->shared_trace(g), before.market->shared_trace(g));
  }
  EXPECT_EQ(after.market->trace({2, 1}).max_price(),
            std::max(0.5, before.market->trace({2, 1}).max_price()));

  // A bad update anywhere in the batch publishes nothing.
  EXPECT_THROW(board.ingest({PriceUpdate{{0, 0}, {0.1}}, PriceUpdate{{0, 1}, {-1.0}}}),
               PreconditionError);
  EXPECT_EQ(board.epoch(), after.epoch);
  EXPECT_EQ(board.snapshot().market, after.market);
  EXPECT_EQ(board.group_versions(), after.versions);
}

TEST_F(SharedTraceTest, ConcurrentReadersOfSharedTracesSeeFrozenHistories) {
  // Readers on every replica query the shared trace objects (price scans,
  // extremes, copies) while the fan-out keeps installing new ones. Each
  // snapshot must read exactly the history of its epoch.
  MarketBoard a(market_), b(market_), c(market_);
  BoardFanout fanout({&a, &b, &c});
  const std::vector<MarketBoard*> replicas{&a, &b, &c};
  const std::size_t base = market_.trace({0, 0}).steps();
  constexpr std::uint64_t kEpochs = 500;
  std::atomic<bool> done{false};
  std::atomic<std::uint64_t> mismatches{0};
  std::vector<std::thread> readers;
  for (MarketBoard* board : replicas) {
    readers.emplace_back([&, board] {
      while (!done.load()) {
        const MarketSnapshot snap = board->snapshot();
        const SpotTrace& t = snap.market->trace({0, 0});
        // Epoch e holds e - 1 appended steps of price 0.01 * e'.
        if (t.steps() != base + (snap.epoch - 1)) ++mismatches;
        if (snap.epoch > 1 && t.price(t.steps() - 1) != 0.01 * static_cast<double>(snap.epoch))
          ++mismatches;
        const double bid = t.max_price();
        if (t.availability(bid) != 1.0 || t.mean_below(bid) <= 0.0) ++mismatches;
        if (t.tail_hours(1.0).steps() != 4) ++mismatches;
      }
    });
  }
  for (std::uint64_t e = 2; e <= kEpochs; ++e)
    EXPECT_EQ(fanout.ingest({PriceUpdate{{0, 0}, {0.01 * static_cast<double>(e)}},
                             PriceUpdate{{1, 2}, {0.02}}}),
              e);
  done = true;
  for (std::thread& t : readers) t.join();
  EXPECT_EQ(mismatches.load(), 0u);
  EXPECT_EQ(a.snapshot().market->shared_trace({0, 0}), c.snapshot().market->shared_trace({0, 0}));
}

// Lineage (SpotTrace::lineage): copies share it, the first trace to extend
// it keeps it, every later extension of a shorter member forks a new one.

TEST_F(SharedTraceTest, CopiesShareALineageAndOnlyTheFirstExtenderKeepsIt) {
  const SpotTrace base = market_.trace({0, 0});
  const SpotTrace copy = base;
  EXPECT_NE(base.lineage(), 0u);
  EXPECT_EQ(copy.lineage(), base.lineage());
  EXPECT_EQ(base.extended({}).lineage(), base.lineage());  // no new step

  const SpotTrace first = base.extended({0.01});
  EXPECT_EQ(first.lineage(), base.lineage());
  const SpotTrace second = copy.extended({0.02});
  EXPECT_NE(second.lineage(), base.lineage());
  // The first extender can go on extending; an in-place append of a copy
  // of `base` is a second extension too and forks.
  EXPECT_EQ(first.extended({0.03}).lineage(), base.lineage());
  SpotTrace appended = base;
  appended.append(0.04);
  EXPECT_NE(appended.lineage(), base.lineage());
  EXPECT_NE(appended.lineage(), second.lineage());

  // Fresh traces, windows and tails never share one.
  EXPECT_NE(base.window(0, base.steps()).lineage(), base.lineage());
  EXPECT_NE(base.tail_hours(1.0).lineage(), base.lineage());
  EXPECT_NE(SpotTrace(0.25, {base.prices().begin(), base.prices().end()}).lineage(),
            base.lineage());
}

TEST_F(SharedTraceTest, ConcurrentExtendersOfOneBaseLeaveExactlyOneInItsLineage) {
  const SpotTrace base = market_.trace({1, 1});
  constexpr int kThreads = 4;
  for (int round = 0; round < 50; ++round) {
    const SpotTrace shared = base.extended({0.01 * round});  // a fresh tip each round
    std::vector<SpotTrace> out(kThreads);
    std::vector<std::thread> threads;
    for (int i = 0; i < kThreads; ++i)
      threads.emplace_back([&, i] { out[i] = shared.extended({0.001 * (i + 1)}); });
    for (std::thread& t : threads) t.join();
    const auto keepers = std::count_if(out.begin(), out.end(), [&](const SpotTrace& t) {
      return t.lineage() == shared.lineage();
    });
    EXPECT_EQ(keepers, 1) << "round " << round;
    // Every extender, in place or forked, holds the base and its own step.
    for (int i = 0; i < kThreads; ++i) {
      ASSERT_EQ(out[i].steps(), shared.steps() + 1);
      EXPECT_TRUE(std::ranges::equal(out[i].prices().first(shared.steps()), shared.prices()));
      EXPECT_EQ(out[i].price(shared.steps()), 0.001 * (i + 1)) << "round " << round;
    }
  }
}

// Storage: a trace is a view of an append-only buffer. The extension that
// keeps the lineage writes into the buffer's spare slots; older views keep
// reading their unchanged prefix.

std::vector<double> contents(const SpotTrace& t) { return {t.prices().begin(), t.prices().end()}; }

TEST_F(SharedTraceTest, TipExtensionsShareTheBaseBufferAndLeaveItsViewUnchanged) {
  // The market's trace is exactly its vector; its first extension grows.
  const SpotTrace& adopted = market_.trace({2, 0});
  EXPECT_EQ(adopted.capacity(), adopted.steps());
  const SpotTrace base = adopted.extended({0.3});
  EXPECT_GT(base.capacity(), base.steps());
  const std::vector<double> before = contents(base);

  // A rejected extension claims nothing, so the next one is still the tip's.
  EXPECT_THROW(base.extended({0.1, -1.0}), PreconditionError);
  const SpotTrace next = base.extended({0.5, 0.25});
  EXPECT_EQ(next.lineage(), base.lineage());
  EXPECT_EQ(next.prices().data(), base.prices().data());
  ASSERT_EQ(next.steps(), base.steps() + 2);
  EXPECT_EQ(next.price(base.steps()), 0.5);
  EXPECT_EQ(next.price(base.steps() + 1), 0.25);
  EXPECT_EQ(next.max_price(), std::max(0.5, base.max_price()));
  EXPECT_EQ(contents(base), before);
  EXPECT_EQ(base.max_price(), *std::max_element(before.begin(), before.end()));

  // Board ingests extend the installed trace the same way.
  MarketBoard board(market_);
  board.ingest({PriceUpdate{{2, 0}, {0.1}}});
  const MarketSnapshot first = board.snapshot();
  board.ingest({PriceUpdate{{2, 0}, {0.2}}});
  const SpotTrace& once = first.market->trace({2, 0});
  const SpotTrace& twice = board.snapshot().market->trace({2, 0});
  EXPECT_EQ(twice.prices().data(), once.prices().data());
  ASSERT_EQ(once.steps(), adopted.steps() + 1);
  EXPECT_EQ(once.price(once.steps() - 1), 0.1);
  EXPECT_EQ(twice.price(twice.steps() - 1), 0.2);
}

TEST_F(SharedTraceTest, ASecondExtensionOfOneBaseCopiesForksAndLeavesTheFirstIntact) {
  const SpotTrace base = market_.trace({2, 0}).extended({0.3});
  const SpotTrace first = base.extended({0.5});
  const SpotTrace second = base.extended({0.7, 0.8});
  EXPECT_EQ(first.prices().data(), base.prices().data());
  EXPECT_NE(second.prices().data(), base.prices().data());
  EXPECT_EQ(first.lineage(), base.lineage());
  EXPECT_NE(second.lineage(), base.lineage());

  std::vector<double> want = contents(base);
  want.push_back(0.5);
  EXPECT_EQ(contents(first), want);
  want.back() = 0.7;
  want.push_back(0.8);
  EXPECT_EQ(contents(second), want);
  EXPECT_EQ(second.max_price(), std::max(0.8, base.max_price()));

  // The fork is the tip of its own lineage and extends in place from now on;
  // the first extension goes on in its buffer, untouched by the fork.
  const SpotTrace second_next = second.extended({0.9});
  EXPECT_EQ(second_next.prices().data(), second.prices().data());
  EXPECT_EQ(second_next.lineage(), second.lineage());
  const SpotTrace first_next = first.extended({0.6});
  EXPECT_EQ(first_next.prices().data(), first.prices().data());
  EXPECT_EQ(first.price(first.steps() - 1), 0.5);
  EXPECT_EQ(first_next.price(first.steps()), 0.6);
}

TEST_F(SharedTraceTest, SingleStepTipExtensionsGrowTheBufferGeometrically) {
  constexpr std::size_t kBase = 100;
  constexpr std::size_t kSteps = 1000;
  std::vector<double> want(kBase, 0.1);
  SpotTrace trace(0.25, want);
  std::vector<SpotTrace> views;  // every 100th version, read again at the end
  std::size_t reallocations = 0;
  for (std::size_t i = 0; i < kSteps; ++i) {
    const double* data = trace.prices().data();
    want.push_back(0.001 * static_cast<double>(i % 37));
    trace = i % 2 == 0 ? trace.extended({want.back()}) : [&] {
      SpotTrace copy = trace;  // an in-place append of the tip keeps it too
      copy.append(want.back());
      return copy;
    }();
    if (trace.prices().data() != data) ++reallocations;
    EXPECT_LE(trace.capacity(), 2 * trace.steps() + 16) << i;
    if (i % 100 == 0) views.push_back(trace);
  }
  const double doublings =
      std::ceil(std::log2(static_cast<double>(kBase + kSteps) / static_cast<double>(kBase)));
  EXPECT_LE(static_cast<double>(reallocations), doublings);
  EXPECT_EQ(contents(trace), want);
  for (const SpotTrace& view : views) {
    EXPECT_TRUE(std::ranges::equal(view.prices(), std::span(want).first(view.steps())));
    EXPECT_EQ(view.lineage(), trace.lineage());
  }
}

TEST_F(SharedTraceTest, AppendedTracesConcatenateUpdatesInOrderAndBumpEmptyOnes) {
  // {0, 0} is named three times, {1, 2} only by an empty update.
  const std::vector<GroupTrace> traces = appended_traces(
      market_, {PriceUpdate{{0, 0}, {0.011, 0.012}}, PriceUpdate{{1, 2}, {}},
                PriceUpdate{{0, 0}, {}}, PriceUpdate{{0, 0}, {0.013}}});
  ASSERT_EQ(traces.size(), 2u);
  EXPECT_EQ(traces[0].group, (CircleGroupSpec{0, 0}));
  EXPECT_EQ(traces[1].group, (CircleGroupSpec{1, 2}));
  const SpotTrace& old00 = market_.trace({0, 0});
  const SpotTrace& t00 = *traces[0].trace;
  ASSERT_EQ(t00.steps(), old00.steps() + 3);
  EXPECT_EQ(t00.price(old00.steps()), 0.011);
  EXPECT_EQ(t00.price(old00.steps() + 1), 0.012);
  EXPECT_EQ(t00.price(old00.steps() + 2), 0.013);
  EXPECT_EQ(t00.lineage(), old00.lineage());
  // The empty-only group still gets a new trace object, same content.
  EXPECT_NE(traces[1].trace, market_.shared_trace({1, 2}));
  EXPECT_TRUE(std::ranges::equal(traces[1].trace->prices(), market_.trace({1, 2}).prices()));
  EXPECT_EQ(traces[1].trace->lineage(), market_.trace({1, 2}).lineage());

  // On a board, both groups' versions move; no other group's does.
  MarketBoard board(market_);
  const auto before = board.group_versions();
  board.ingest({PriceUpdate{{0, 0}, {0.011}}, PriceUpdate{{1, 2}, {}}});
  const auto after = board.group_versions();
  const std::size_t zones = catalog_.zones().size();
  for (const CircleGroupSpec& g : catalog_.all_groups()) {
    const std::size_t ordinal = g.type_index * zones + g.zone_index;
    const bool named = g == CircleGroupSpec{0, 0} || g == CircleGroupSpec{1, 2};
    EXPECT_EQ(after->at(ordinal) != before->at(ordinal), named) << ordinal;
  }
}

// ---------------------------------------------------------------------------
// ShardedPlanService: the differential battery.

class ShardedServiceTest : public ::testing::Test {
 protected:
  static ServiceConfig fast_config() {
    ServiceConfig c;
    c.cache = {.shards = 4, .capacity = 64};
    c.max_concurrent_solves = 2;
    c.max_queued_solves = 64;  // roomy: differential streams must never shed
    c.opt.max_candidates = 3;
    c.opt.max_groups = 2;
    c.opt.setup.log_levels = 3;
    c.opt.setup.failure.samples = 400;
    c.opt.ratio_bins = 32;
    return c;
  }

  ShardedConfig tier_config(std::size_t shards) const {
    ShardedConfig c;
    c.shards = shards;
    c.vnodes = 32;
    c.salt = 0xD15EA5EULL;
    c.service = fast_config();
    return c;
  }

  PlanRequest request(double factor, std::vector<std::string> types = {}) const {
    PlanRequest r;
    r.app = paper_profile("BT");
    r.deadline_h = baseline_h_ * factor;
    r.allowed_types = std::move(types);
    return r;
  }

  // One scripted step of the differential stream: either a request (served
  // routed, or sprayed onto `landing % shard_count`) or an epoch bump.
  struct Step {
    enum Kind { kServe, kSpray, kBump } kind = kServe;
    double factor = 1.5;
    std::size_t landing = 0;
    std::vector<double> prices;  // kBump: appended to group {0, 0}

    static Step serve(double factor) { return {kServe, factor, 0, {}}; }
    static Step spray(double factor, std::size_t landing) {
      return {kSpray, factor, landing, {}};
    }
    static Step bump(std::vector<double> prices) { return {kBump, 0, 0, std::move(prices)}; }
  };

  struct StreamResult {
    std::vector<std::string> outcomes;      // outcome label per request step
    std::vector<std::string> fingerprints;  // "-" for shed
    ShardedStats stats;
    std::size_t distinct_solves = 0;
  };

  StreamResult run_stream(ShardedPlanService& tier, const std::vector<Step>& steps) const {
    StreamResult result;
    for (const Step& step : steps) {
      if (step.kind == Step::kBump) {
        tier.fanout().ingest({PriceUpdate{{0, 0}, step.prices}});
        continue;
      }
      const PlanRequest r = request(step.factor);
      const PlanResponse response =
          step.kind == Step::kSpray
              ? tier.serve_on(step.landing % tier.shard_count(), r)
              : tier.serve(r);
      result.outcomes.push_back(outcome_label(response.outcome));
      result.fingerprints.push_back(response.plan ? plan_fingerprint(*response.plan) : "-");
    }
    result.stats = tier.stats();
    result.distinct_solves = tier.distinct_solves();
    return result;
  }

  static std::vector<Step> scripted_stream() {
    // Three epochs, six distinct requests, repeats for hits, sprays landing
    // on deliberately wrong shards — every outcome class except shed.
    return {
        Step::serve(1.3), Step::serve(1.5),    Step::spray(1.3, 3),
        Step::serve(1.7), Step::spray(1.5, 5), Step::serve(1.3),
        Step::bump({0.021, 0.027}),
        Step::serve(1.3), Step::spray(1.7, 1), Step::serve(1.9),
        Step::spray(1.9, 6), Step::serve(1.5),
        Step::bump({0.024}),
        Step::spray(1.3, 2), Step::serve(1.9), Step::serve(1.3),
    };
  }

  Catalog catalog_ = paper_catalog();
  ExecTimeEstimator est_;
  Market market_ = generate_market(catalog_, paper_market_profile(catalog_), /*days=*/3.0,
                                   /*step_hours=*/0.25, /*seed=*/42);
  double baseline_h_ = OnDemandSelector(&catalog_, &est_).baseline(paper_profile("BT")).t_h;
};

TEST_F(ShardedServiceTest, FingerprintsAndCountersMatchTheSingleShardOracle) {
  const std::vector<Step> steps = scripted_stream();
  ShardedPlanService oracle(&catalog_, &est_, market_, tier_config(1));
  const StreamResult want = run_stream(oracle, steps);
  ASSERT_EQ(want.stats.total.sheds, 0u);

  for (const std::size_t shards : {2u, 4u, 8u}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    ShardedPlanService tier(&catalog_, &est_, market_, tier_config(shards));
    const StreamResult got = run_stream(tier, steps);

    // The headline invariant: bit-identical fingerprints, step for step.
    EXPECT_EQ(got.fingerprints, want.fingerprints);
    // Sequential stream + global-budget cache split: even the hit/solve
    // classification per step is identical, not just the plans.
    EXPECT_EQ(got.outcomes, want.outcomes);

    EXPECT_EQ(got.stats.total.requests, want.stats.total.requests);
    EXPECT_EQ(got.stats.total.hits, want.stats.total.hits);
    EXPECT_EQ(got.stats.total.solves, want.stats.total.solves);
    EXPECT_EQ(got.stats.total.sheds, 0u);
    EXPECT_EQ(got.distinct_solves, want.distinct_solves);
    EXPECT_EQ(got.stats.duplicate_solves, 0u);

    // Conservation: per-shard counters sum to the aggregate, and the four
    // outcome classes partition the requests.
    std::uint64_t sum_requests = 0, sum_hits = 0, sum_solves = 0, sum_joins = 0,
                  sum_sheds = 0;
    for (const ServiceStats& shard : got.stats.per_shard) {
      sum_requests += shard.requests;
      sum_hits += shard.hits;
      sum_solves += shard.solves;
      sum_joins += shard.dedup_joins;
      sum_sheds += shard.sheds;
    }
    EXPECT_EQ(sum_requests, got.stats.total.requests);
    EXPECT_EQ(sum_hits + sum_solves + sum_joins + sum_sheds, sum_requests);
    EXPECT_EQ(got.stats.routed + got.stats.sprayed, got.stats.total.requests);

    // Every replica ended on the oracle's epoch.
    EXPECT_EQ(got.stats.total.epoch, want.stats.total.epoch);
    for (std::size_t i = 0; i < tier.shard_count(); ++i)
      EXPECT_EQ(tier.board(i).epoch(), want.stats.total.epoch);
  }
}

TEST_F(ShardedServiceTest, SingleShardTierMatchesABarePlanService) {
  MarketBoard board(market_);
  PlanService bare(&catalog_, &est_, &board, fast_config());
  ShardedPlanService tier(&catalog_, &est_, market_, tier_config(1));

  for (const double factor : {1.3, 1.5, 1.3, 1.7, 1.5}) {
    const PlanResponse a = bare.serve(request(factor));
    const PlanResponse b = tier.serve(request(factor));
    EXPECT_EQ(a.outcome, b.outcome);
    ASSERT_NE(a.plan, nullptr);
    ASSERT_NE(b.plan, nullptr);
    EXPECT_EQ(plan_fingerprint(*a.plan), plan_fingerprint(*b.plan));
  }
  EXPECT_EQ(bare.stats().solves, tier.stats().total.solves);
  EXPECT_EQ(bare.stats().hits, tier.stats().total.hits);
}

TEST_F(ShardedServiceTest, RequestsRouteToTheirRingHomeAndOnlyThere) {
  ShardedPlanService tier(&catalog_, &est_, market_, tier_config(8));
  const PlanRequest r = request(1.4);
  const std::size_t home = tier.home_shard(r);
  ASSERT_LT(home, 8u);
  EXPECT_EQ(home, tier.home_shard_for_key(canonical_key(canonicalized(r))));

  (void)tier.serve(r);
  (void)tier.serve_on((home + 3) % 8, r);  // sprayed onto the wrong shard
  const ShardedStats stats = tier.stats();
  for (std::size_t i = 0; i < 8; ++i)
    EXPECT_EQ(stats.per_shard[i].requests, i == home ? 2u : 0u) << "shard " << i;
  EXPECT_EQ(stats.forwarded, 1u);
  EXPECT_EQ(stats.total.solves, 1u);
  EXPECT_EQ(stats.total.hits, 1u);
}

TEST_F(ShardedServiceTest, ConcurrentIdenticalBurstAcrossAllShardsSolvesOnce) {
  ShardedPlanService tier(&catalog_, &est_, market_, tier_config(8));

  // One identical request lands on every shard simultaneously — the dedup
  // tier must collapse the whole burst onto a single optimizer run.
  std::vector<PlanResponse> responses(8);
  std::vector<std::thread> threads;
  threads.reserve(8);
  for (std::size_t i = 0; i < 8; ++i)
    threads.emplace_back([&, i] { responses[i] = tier.serve_on(i, request(1.45)); });
  for (std::thread& t : threads) t.join();

  const ShardedStats stats = tier.stats();
  EXPECT_EQ(stats.total.requests, 8u);
  EXPECT_EQ(stats.total.solves, 1u);
  EXPECT_EQ(stats.total.sheds, 0u);
  EXPECT_EQ(stats.total.hits + stats.total.dedup_joins, 7u);
  EXPECT_EQ(stats.duplicate_solves, 0u);
  EXPECT_EQ(tier.distinct_solves(), 1u);
  EXPECT_EQ(stats.sprayed, 8u);
  EXPECT_EQ(stats.forwarded, 7u);  // exactly one landing was already home

  ASSERT_NE(responses[0].plan, nullptr);
  const std::string fp = plan_fingerprint(*responses[0].plan);
  for (const PlanResponse& r : responses) {
    ASSERT_NE(r.plan, nullptr);
    EXPECT_EQ(plan_fingerprint(*r.plan), fp);
  }
}

TEST_F(ShardedServiceTest, TierCacheSplitNeverShrinksBelowTheTierBudget) {
  // The split rule itself: ceil, never floor, never zero.
  EXPECT_EQ(ShardedPlanService::per_shard_cache_capacity(64, 8), 8u);
  EXPECT_EQ(ShardedPlanService::per_shard_cache_capacity(65, 8), 9u);
  EXPECT_EQ(ShardedPlanService::per_shard_cache_capacity(3, 8), 1u);
  EXPECT_EQ(ShardedPlanService::per_shard_cache_capacity(64, 1), 64u);

  ShardedConfig config = tier_config(8);
  ShardedPlanService tier(&catalog_, &est_, market_, config);
  for (std::size_t i = 0; i < tier.shard_count(); ++i)
    EXPECT_EQ(tier.shard(i).config().cache.capacity,
              ShardedPlanService::per_shard_cache_capacity(config.service.cache.capacity, 8));
}

TEST_F(ShardedServiceTest, WipedShardReSolvesToTheIdenticalPlan) {
  ShardedPlanService tier(&catalog_, &est_, market_, tier_config(4));
  const PlanRequest r = request(1.55);
  const PlanResponse first = tier.serve(r);
  ASSERT_EQ(first.outcome, PlanOutcome::kSolved);

  const std::size_t home = tier.home_shard(r);
  EXPECT_GE(tier.shard(home).wipe_cache(), 1u);

  const PlanResponse again = tier.serve(r);
  EXPECT_EQ(again.outcome, PlanOutcome::kSolved);  // cache gone, solves again
  EXPECT_EQ(plan_fingerprint(*again.plan), plan_fingerprint(*first.plan));
  // The wipe legitimately broke the one-solve economy — the ledger says so.
  EXPECT_EQ(tier.duplicate_solves(), 1u);
}

TEST_F(ShardedServiceTest, SolveLedgerStaysBoundedAndExactOverThousandsOfEpochs) {
  // The tier's ledger forgets epochs no shard can solve at any more; a
  // reference ledger fed by the caller's solve hook keeps everything. Both
  // counts must agree with the reference at every epoch while the tier's
  // entry count stays flat. Empty ingests bump the epoch without moving any
  // history, so every re-plan reuses all of its tables and stays cheap.
  std::map<std::pair<std::string, std::uint64_t>, std::uint64_t> reference;
  std::uint64_t reference_duplicates = 0;
  ShardedConfig config = tier_config(4);
  config.service.solve_hook = [&](const std::string& key, std::uint64_t epoch) {
    if (++reference[{key, epoch}] > 1) ++reference_duplicates;
  };
  ShardedPlanService tier(&catalog_, &est_, market_, config);
  const std::vector<PlanRequest> requests{request(1.3), request(1.7)};
  constexpr std::uint64_t kEpochs = 1000;
  std::size_t peak_entries = 0;
  for (std::uint64_t e = 1; e <= kEpochs; ++e) {
    for (std::size_t i = 0; i < requests.size(); ++i) {
      ASSERT_EQ(tier.serve_on(e % tier.shard_count(), requests[i]).outcome,
                PlanOutcome::kSolved);
      ASSERT_EQ(tier.serve(requests[i]).outcome, PlanOutcome::kHit);
    }
    if (e % 97 == 0) {
      // Chaos: a wiped home shard re-solves at the same epoch — a duplicate
      // the sweep must still see.
      tier.shard(tier.home_shard(requests[0])).wipe_cache();
      ASSERT_EQ(tier.serve(requests[0]).outcome, PlanOutcome::kSolved);
    }
    ASSERT_EQ(tier.distinct_solves(), reference.size()) << "epoch " << e;
    ASSERT_EQ(tier.duplicate_solves(), reference_duplicates) << "epoch " << e;
    peak_entries = std::max(peak_entries, tier.ledger_entries());
    tier.fanout().ingest({});
  }
  EXPECT_EQ(reference.size(), kEpochs * requests.size());
  EXPECT_EQ(reference_duplicates, kEpochs / 97);
  // At most the current epoch's keys plus the previous epoch's, which are
  // dropped by the first solve after the bump.
  EXPECT_LE(peak_entries, 2 * requests.size());
  const ShardedStats stats = tier.stats();
  EXPECT_EQ(stats.total.solves, tier.distinct_solves() + stats.duplicate_solves);
}

TEST_F(ShardedServiceTest, RejectsZeroShardsAndOutOfRangeLanding) {
  EXPECT_THROW(ShardedPlanService(&catalog_, &est_, market_, tier_config(0)),
               PreconditionError);
  ShardedPlanService tier(&catalog_, &est_, market_, tier_config(2));
  EXPECT_THROW(tier.serve_on(2, request(1.5)), PreconditionError);
}

// ---------------------------------------------------------------------------
// AsyncBatchService: basic semantics (the concurrent completeness stress is
// in test_sharded_stress.cpp).

TEST_F(ShardedServiceTest, BatchSubmitHarvestReturnsEveryTicketOnce) {
  ShardedPlanService tier(&catalog_, &est_, market_, tier_config(4));
  AsyncBatchService batch(&tier, {.workers = 3, .queue_capacity = 16, .spray = true});

  std::vector<PlanRequest> requests;
  for (int i = 0; i < 12; ++i) requests.push_back(request(1.3 + 0.1 * (i % 3)));
  const std::vector<std::uint64_t> tickets = batch.submit_batch(requests);
  ASSERT_EQ(tickets.size(), 12u);

  batch.drain();
  const std::vector<BatchCompletion> done = batch.harvest();
  ASSERT_EQ(done.size(), 12u);

  std::set<std::uint64_t> seen;
  for (const BatchCompletion& c : done) {
    EXPECT_TRUE(seen.insert(c.ticket).second) << "ticket harvested twice";
    EXPECT_TRUE(c.error.empty()) << c.error;
    ASSERT_NE(c.response.plan, nullptr);
  }
  for (const std::uint64_t t : tickets) EXPECT_EQ(seen.count(t), 1u);

  EXPECT_TRUE(batch.harvest().empty());  // nothing left behind
  const AsyncBatchService::Stats stats = batch.stats();
  EXPECT_EQ(stats.submitted, 12u);
  EXPECT_EQ(stats.completed, 12u);
  EXPECT_EQ(stats.harvested, 12u);
  EXPECT_EQ(stats.errors, 0u);
  // Three distinct requests over a shared tier: the dedup economy holds end
  // to end even through the batch front door.
  EXPECT_EQ(tier.stats().total.solves, 3u);
  EXPECT_EQ(tier.duplicate_solves(), 0u);
}

TEST_F(ShardedServiceTest, BatchReportsSolverFailuresAsErrorCompletions) {
  ShardedPlanService tier(&catalog_, &est_, market_, tier_config(2));
  AsyncBatchService batch(&tier, {.workers = 2, .queue_capacity = 8});

  PlanRequest bad = request(1.5);
  bad.allowed_types = {"no-such-type"};  // validation throws inside serve()
  const std::uint64_t bad_ticket = batch.submit(bad);
  const std::uint64_t good_ticket = batch.submit(request(1.5));

  batch.drain();
  const std::vector<BatchCompletion> done = batch.harvest();
  ASSERT_EQ(done.size(), 2u);
  for (const BatchCompletion& c : done) {
    if (c.ticket == bad_ticket) {
      EXPECT_FALSE(c.error.empty());
      EXPECT_EQ(c.response.plan, nullptr);
    } else {
      EXPECT_EQ(c.ticket, good_ticket);
      EXPECT_TRUE(c.error.empty());
      EXPECT_NE(c.response.plan, nullptr);
    }
  }
  EXPECT_EQ(batch.stats().errors, 1u);
  batch.stop();
  EXPECT_THROW(batch.submit(request(1.5)), PreconditionError);
}

}  // namespace
}  // namespace sompi
