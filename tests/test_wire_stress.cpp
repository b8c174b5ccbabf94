// Concurrency and chaos stress for the wire serving front end — meant to run
// under TSan in CI. Eight clients with eight submitting threads hammer one
// PlanServerLoop; the invariants are the exactly-once completeness law
// (every submitted request id gets exactly one completion — plan, explicit
// shed, or error — nothing lost, nothing duplicated, nothing blocked
// forever) and the equivalence contract (every plan that does come back is
// fingerprint-byte-identical to the in-process oracle), with and without
// seeded connection-drop chaos in the pipes.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "faultinject/injector.h"
#include "net/client.h"
#include "net/server.h"
#include "profile/paper_profiles.h"
#include "service/request.h"
#include "service/sharded/sharded_service.h"

namespace sompi::net {
namespace {

class WireStress : public ::testing::Test {
 protected:
  static ServiceConfig fast_config() {
    ServiceConfig c;
    c.cache = {.shards = 4, .capacity = 64};
    c.max_concurrent_solves = 2;
    c.max_queued_solves = 256;
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

  PlanRequest request(double factor) const {
    PlanRequest r;
    r.app = paper_profile("BT");
    r.deadline_h = baseline_h_ * factor;
    return r;
  }

  /// Oracle fingerprints for the distinct factors the stress streams use
  /// (all at epoch 1 — the stress applies no bumps, so every response must
  /// match regardless of interleaving).
  std::map<std::string, std::string> oracle_fingerprints(const std::vector<double>& factors) {
    ShardedPlanService oracle(&catalog_, &est_, market_, tier_config(1));
    std::map<std::string, std::string> want;
    for (const double factor : factors) {
      const PlanRequest r = request(factor);
      want[canonical_key(canonicalized(r))] = plan_fingerprint(*oracle.serve(r).plan);
    }
    return want;
  }

  Catalog catalog_ = paper_catalog();
  ExecTimeEstimator est_;
  Market market_ = generate_market(catalog_, paper_market_profile(catalog_), /*days=*/3.0,
                                   /*step_hours=*/0.25, /*seed=*/42);
  double baseline_h_ = OnDemandSelector(&catalog_, &est_).baseline(paper_profile("BT")).t_h;
};

TEST_F(WireStress, EightClientsEightThreadsServeOnlyOracleIdenticalPlans) {
  const std::vector<double> factors = {1.30, 1.45, 1.60, 1.75};
  const std::map<std::string, std::string> want = oracle_fingerprints(factors);

  ShardedPlanService tier(&catalog_, &est_, market_, tier_config(4));
  PlanServerLoop server(&tier, {.workers = 4});

  std::vector<std::unique_ptr<PlanClient>> clients;
  for (std::size_t i = 0; i < 8; ++i)
    clients.push_back(std::make_unique<PlanClient>(
        &server, i % 2 == 0 ? ClientMode::kRouted : ClientMode::kSpray));

  std::atomic<std::uint64_t> served{0};
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  threads.reserve(8);
  for (std::size_t t = 0; t < 8; ++t) {
    threads.emplace_back([&, t] {
      // Thread t drives client t: 8 blocking round trips over the shared
      // factor set — every response must be the oracle's plan, whatever the
      // global interleaving of hits, solves and dedup joins.
      PlanClient& client = *clients[t];
      for (std::size_t i = 0; i < 8; ++i) {
        const PlanRequest r = request(factors[(t + i) % factors.size()]);
        const PlanResponse response = client.plan(r);
        if (response.plan == nullptr ||
            plan_fingerprint(*response.plan) != want.at(canonical_key(canonicalized(r)))) {
          failures.fetch_add(1);
          return;
        }
        served.fetch_add(1);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(served.load(), 64u);
  const WireTierStats stats = server.stats();
  EXPECT_EQ(stats.requests, 64u);
  EXPECT_EQ(stats.sheds, 0u);
  EXPECT_EQ(stats.frames_rejected, 0u);
  EXPECT_EQ(stats.wire_errors, 0u);
  // Half the clients are router-aware and half spray, yet the one-solve
  // economy holds tier-wide: one solve per distinct key, ever.
  EXPECT_EQ(stats.solves, factors.size());
  EXPECT_EQ(stats.duplicate_solves, 0u);
  for (auto& client : clients) EXPECT_EQ(client->codec_stats().rejects(), 0u);
}

TEST_F(WireStress, ConnectionDropChaosNeverBreaksTheCompletenessLaw) {
  const std::vector<double> factors = {1.35, 1.50, 1.65};
  const std::map<std::string, std::string> want = oracle_fingerprints(factors);

  // Chaos on every pipe: drops, torn writes and maximal read fragmentation.
  // Probabilities are high enough that drops reliably happen across 8
  // clients, low enough that some requests survive to verify equivalence.
  fi::FaultPlan plan;
  plan.seed = 0xC0FFEEull;
  plan.p_wire_drop = 0.05;
  plan.p_wire_torn = 0.05;
  plan.p_wire_short_read = 0.5;
  fi::FaultInjector injector(plan);

  ShardedPlanService tier(&catalog_, &est_, market_, tier_config(4));
  PlanServerLoop server(&tier, {.workers = 4, .faults = &injector});

  std::vector<std::unique_ptr<PlanClient>> clients;
  for (std::size_t i = 0; i < 8; ++i)
    clients.push_back(std::make_unique<PlanClient>(&server, ClientMode::kRouted));

  // One submitting thread per client: fire a burst of async submissions,
  // then drain — under chaos a completion may be a plan, a shed, or an
  // error ("connection dropped"), but every id must appear exactly once.
  std::atomic<int> violations{0};
  std::atomic<std::uint64_t> plans_checked{0};
  std::vector<std::thread> threads;
  threads.reserve(8);
  for (std::size_t t = 0; t < 8; ++t) {
    threads.emplace_back([&, t] {
      PlanClient& client = *clients[t];
      std::map<std::uint64_t, std::string> expect;  // id → oracle fingerprint
      for (std::size_t i = 0; i < 8; ++i) {
        const PlanRequest r = request(factors[(t + i) % factors.size()]);
        expect[client.submit(r)] = want.at(canonical_key(canonicalized(r)));
      }
      client.drain();
      std::set<std::uint64_t> seen;
      for (const ClientCompletion& completion : client.harvest()) {
        if (!seen.insert(completion.request_id).second ||
            expect.count(completion.request_id) == 0) {
          violations.fetch_add(1);  // duplicated or unknown id
          continue;
        }
        if (!completion.error.empty()) continue;  // chaos casualty: allowed
        if (completion.response.plan == nullptr) {
          if (completion.response.outcome != PlanOutcome::kShed) violations.fetch_add(1);
          continue;
        }
        if (plan_fingerprint(*completion.response.plan) !=
            expect.at(completion.request_id)) {
          violations.fetch_add(1);  // survived the wire but came back wrong
          continue;
        }
        plans_checked.fetch_add(1);
      }
      if (seen.size() != expect.size()) violations.fetch_add(1);  // lost ids
    });
  }
  for (std::thread& thread : threads) thread.join();

  EXPECT_EQ(violations.load(), 0);
  // With p_drop = p_torn = 0.05 on 8 pipes, plenty of requests survive; a
  // zero here would mean the chaos config drowned the test's other half.
  EXPECT_GT(plans_checked.load(), 0u);
  EXPECT_GT(injector.injected_count(), 0u);
}

TEST_F(WireStress, HarvestNeverTakesABlockingCallsCompletion) {
  // A blocking call's id is claimed before its frame is written, so a
  // harvest() spinning on the same client can never take its completion —
  // which would leave plan() waiting forever. Four callers share the 1000
  // round trips: a caller preempted between its write and a late claim is
  // what exposes the race on a 4-core box.
  const std::vector<double> factors = {1.30, 1.45, 1.60, 1.75};
  const std::map<std::string, std::string> want = oracle_fingerprints(factors);

  ShardedPlanService tier(&catalog_, &est_, market_, tier_config(4));
  PlanServerLoop server(&tier, {.workers = 4});
  PlanClient client(&server, ClientMode::kRouted);

  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> stolen{0};
  std::thread harvester([&] {
    while (!stop.load()) {
      stolen.fetch_add(client.harvest().size());
      std::this_thread::yield();
    }
  });
  std::atomic<std::size_t> matched{0};
  std::vector<std::thread> callers;
  for (std::size_t t = 0; t < 4; ++t) {
    callers.emplace_back([&, t] {
      for (std::size_t i = 0; i < 250; ++i) {
        const PlanRequest r = request(factors[(t + i) % factors.size()]);
        const PlanResponse response = client.plan(r);
        if (response.plan != nullptr &&
            plan_fingerprint(*response.plan) == want.at(canonical_key(canonicalized(r))))
          matched.fetch_add(1);
      }
    });
  }
  for (std::thread& caller : callers) caller.join();
  stop.store(true);
  harvester.join();

  EXPECT_EQ(matched.load(), 1000u);
  EXPECT_EQ(stolen.load(), 0u);
  EXPECT_TRUE(client.harvest().empty());
}

TEST_F(WireStress, BlockingCallersAndAHarvesterShareOneClient) {
  // Leader/follower on one client: four threads block in plan() (each
  // reading for itself or waiting for whoever reads its connection) while a
  // fifth pipelines batches and collects them by drain() or by polling
  // harvest(). Every id completes exactly once with the oracle's plan.
  const std::vector<double> factors = {1.30, 1.40, 1.50, 1.60, 1.70, 1.80};
  const std::map<std::string, std::string> want = oracle_fingerprints(factors);

  ShardedPlanService tier(&catalog_, &est_, market_, tier_config(4));
  PlanServerLoop server(&tier, {.workers = 4});
  PlanClient client(&server, ClientMode::kRouted);

  std::atomic<int> violations{0};
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      for (std::size_t i = 0; i < 100; ++i) {
        const PlanRequest r = request(factors[(t + i) % factors.size()]);
        const PlanResponse response = client.plan(r);
        if (response.plan == nullptr ||
            plan_fingerprint(*response.plan) != want.at(canonical_key(canonicalized(r))))
          violations.fetch_add(1);
      }
    });
  }
  std::map<std::uint64_t, std::string> expect;  // id → oracle fingerprint
  std::set<std::uint64_t> seen;
  const auto collect = [&](const std::vector<ClientCompletion>& completions) {
    for (const ClientCompletion& completion : completions) {
      const auto it = expect.find(completion.request_id);
      if (it == expect.end() || !seen.insert(completion.request_id).second ||
          completion.response.plan == nullptr ||
          plan_fingerprint(*completion.response.plan) != it->second)
        violations.fetch_add(1);  // unknown, duplicated, failed or wrong
    }
  };
  for (std::size_t round = 0; round < 40; ++round) {
    std::vector<PlanRequest> batch;
    for (std::size_t i = 0; i < 8; ++i)
      batch.push_back(request(factors[(round + i) % factors.size()]));
    const std::vector<std::uint64_t> ids = client.submit_batch(batch);
    for (std::size_t i = 0; i < ids.size(); ++i)
      expect[ids[i]] = want.at(canonical_key(canonicalized(batch[i])));
    if (round % 2 == 0) {
      client.drain();
      collect(client.harvest());
    } else {
      while (seen.size() < expect.size()) collect(client.harvest());
    }
  }
  for (std::thread& thread : threads) thread.join();

  EXPECT_EQ(violations.load(), 0);
  EXPECT_EQ(seen.size(), expect.size());
  EXPECT_TRUE(client.harvest().empty());
  EXPECT_EQ(client.codec_stats().rejects(), 0u);
}

// With 512-byte pipes one response frame about fills a pipe, so both tests
// below leave many unread responses on every connection they use.

TEST_F(WireStress, DrainReturnsWhileUnreadResponsesOutgrowThePipes) {
  // drain() reads one connection at a time. The server must keep answering
  // the client's other connections, full as they are, or the response
  // drain() waits for queues behind a write that never finishes.
  const std::vector<double> factors = {1.30, 1.35, 1.40, 1.45, 1.50, 1.55,
                                       1.60, 1.65, 1.70, 1.75, 1.80, 1.85};
  const std::map<std::string, std::string> want = oracle_fingerprints(factors);

  ShardedPlanService tier(&catalog_, &est_, market_, tier_config(4));
  PlanServerLoop server(&tier, {.workers = 4, .pipe_capacity_bytes = 512});
  PlanClient client(&server, ClientMode::kRouted);

  std::vector<PlanRequest> batch;
  std::set<std::size_t> shards;
  for (std::size_t i = 0; i < 96; ++i) {
    batch.push_back(request(factors[i % factors.size()]));
    shards.insert(client.pick_shard(batch.back()));
  }
  ASSERT_GE(shards.size(), 2u);  // the responses really spread over connections
  const std::vector<std::uint64_t> ids = client.submit_batch(batch);
  client.drain();

  std::map<std::uint64_t, std::string> expect;
  for (std::size_t i = 0; i < ids.size(); ++i)
    expect[ids[i]] = want.at(canonical_key(canonicalized(batch[i])));
  const std::vector<ClientCompletion> done = client.harvest();
  ASSERT_EQ(done.size(), ids.size());
  for (const ClientCompletion& completion : done) {
    ASSERT_EQ(expect.count(completion.request_id), 1u) << "unknown or repeated id";
    EXPECT_TRUE(completion.error.empty()) << completion.error;
    ASSERT_NE(completion.response.plan, nullptr);
    EXPECT_EQ(plan_fingerprint(*completion.response.plan), expect[completion.request_id]);
    expect.erase(completion.request_id);
  }
}

TEST_F(WireStress, PipeliningBeforeHarvestingNeverBlocksTheSubmitter) {
  // One thread submits 200 warm hits, one frame each, before it collects
  // anything. The server's reader answers them inline; it keeps reading
  // requests only because its response writes never wait for the client,
  // so the submitter's own writes never wait on a reader that waits on it.
  const std::map<std::string, std::string> want = oracle_fingerprints({1.5});

  ShardedPlanService tier(&catalog_, &est_, market_, tier_config(1));
  PlanServerLoop server(&tier, {.workers = 1, .pipe_capacity_bytes = 512});
  PlanClient client(&server, ClientMode::kRouted);

  const PlanRequest warm = request(1.5);
  ASSERT_NE(client.plan(warm).plan, nullptr);  // now cached: every repeat is a hit
  std::set<std::uint64_t> ids;
  for (int i = 0; i < 200; ++i) ids.insert(client.submit(warm));
  client.drain();

  const std::vector<ClientCompletion> done = client.harvest();
  ASSERT_EQ(done.size(), ids.size());
  for (const ClientCompletion& completion : done) {
    EXPECT_EQ(ids.erase(completion.request_id), 1u) << "unknown or repeated id";
    EXPECT_EQ(completion.response.outcome, PlanOutcome::kHit);
    ASSERT_NE(completion.response.plan, nullptr);
    EXPECT_EQ(plan_fingerprint(*completion.response.plan),
              want.at(canonical_key(canonicalized(warm))));
  }
}

}  // namespace
}  // namespace sompi::net
