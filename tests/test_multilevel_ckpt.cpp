// Multi-level redundancy-encoded checkpointing (ISSUE 6): the differential /
// property battery.
//
//   * Differential oracle — the degenerate configuration (no cache level,
//     empty policy list) must be bit-identical to the pre-multilevel stack:
//     same storage keys, same S3-sim request counters, 0-ULP-identical
//     billing, and byte-identical optimizer plan fingerprints.
//   * Redundancy properties — for every group size and every single-rank
//     loss (and every partner-recoverable pair loss) the decode returns the
//     exact original bytes; a torn or corrupted shard is never
//     decodable-but-wrong.
//   * Recovery ladder — single-rank cache loss rebuilds from peers without a
//     single billed S3-sim GET; whole-cache loss falls through to remote;
//     a killed flush leaves the remote level uncommitted; a stale cache
//     snapshot can never shadow a newer flushed one (the key-namespace
//     regression this PR fixes).
#include "checkpoint/multilevel.h"

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "checkpoint/checkpointer.h"
#include "checkpoint/compress.h"
#include "checkpoint/redundancy.h"
#include "checkpoint/state_buffer.h"
#include "checkpoint/storage.h"
#include "cloud/billing.h"
#include "cloud/catalog.h"
#include "common/rng.h"
#include "core/ondemand.h"
#include "core/optimizer.h"
#include "faultinject/fault_plan.h"
#include "faultinject/injector.h"
#include "minimpi/runtime.h"
#include "profile/estimator.h"
#include "profile/paper_profiles.h"
#include "service/request.h"
#include "support/reference_search.h"
#include "trace/market.h"

namespace sompi {
namespace {

std::vector<std::byte> blob_of(const std::string& s) {
  std::vector<std::byte> b(s.size());
  std::memcpy(b.data(), s.data(), s.size());
  return b;
}

/// Deterministic per-(seed, rank) payload with runs (compressible) and noise.
std::vector<std::byte> rank_blob(std::uint64_t seed, int rank, std::size_t len) {
  std::vector<std::byte> b(len);
  Rng rng(seed ^ (static_cast<std::uint64_t>(rank) * 0x9E3779B97F4A7C15ULL));
  std::size_t i = 0;
  while (i < len) {
    if (rng.bernoulli(0.5)) {  // a run
      const std::byte v{static_cast<unsigned char>(rng.uniform_index(256))};
      const std::size_t n = std::min(len - i, 1 + rng.uniform_index(40));
      for (std::size_t j = 0; j < n; ++j) b[i++] = v;
    } else {
      b[i++] = std::byte{static_cast<unsigned char>(rng.uniform_index(256))};
    }
  }
  return b;
}

// --- Differential oracle: degenerate config is bit-identical -----------------

TEST(MultiLevelDegenerate, DelegatesBitIdenticallyToFlatCheckpointer) {
  S3Sim flat_store;
  S3Sim ml_store;
  Checkpointer flat(&flat_store, "run");
  MultiLevelCheckpointer ml(&ml_store, "run");  // default config: no cache level
  ASSERT_TRUE(ml.degenerate());

  const int ranks = 3;
  std::vector<std::vector<std::byte>> flat_loads(ranks), ml_loads(ranks);
  const mpi::RunResult result = mpi::Runtime::run(ranks, [&](mpi::Comm& comm) {
    for (int iter = 0; iter < 3; ++iter) {
      StateWriter w;
      w.write<std::int32_t>(iter);
      w.write<std::int32_t>(comm.rank());
      const auto bytes = w.take();
      const int vf = flat.save(comm, bytes);
      const int vm = ml.save(comm, bytes);
      EXPECT_EQ(vf, vm);
    }
    flat_loads[comm.rank()] = *flat.load_latest(comm);
    ml_loads[comm.rank()] = *ml.load_latest(comm);
  });
  ASSERT_TRUE(result.completed);

  for (int r = 0; r < ranks; ++r) EXPECT_EQ(flat_loads[r], ml_loads[r]);
  EXPECT_EQ(flat.latest_version(), ml.latest_version());
  EXPECT_EQ(flat.has_snapshot(), ml.has_snapshot());

  // Identical keys → identical S3-sim traffic → identical billing, 0 ULP.
  EXPECT_EQ(flat_store.list(""), ml_store.list(""));
  EXPECT_EQ(flat_store.put_count(), ml_store.put_count());
  EXPECT_EQ(flat_store.get_count(), ml_store.get_count());
  EXPECT_EQ(flat_store.bytes_uploaded(), ml_store.bytes_uploaded());
  EXPECT_EQ(flat_store.bytes_downloaded(), ml_store.bytes_downloaded());
  EXPECT_EQ(flat_store.cost_usd(24.0), ml_store.cost_usd(24.0));

  // The degenerate hierarchy reports no multi-level activity at all.
  EXPECT_EQ(ml.flush_stats().flushes_started, 0u);
  EXPECT_EQ(ml.recovery_stats().cache_loads, 0u);
  EXPECT_EQ(ml.compression_cost_usd(BillingModel::kProportional, 1.0), 0.0);
}

TEST(MultiLevelDegenerate, EmptyPolicyListPlansBitIdenticalToExplicitS3) {
  const Catalog catalog = paper_catalog();
  const ExecTimeEstimator estimator;
  Rng rng(20260806);
  const Market market =
      generate_market(catalog, random_market_profile(catalog, rng), 1.5, 0.25, 97);
  const AppProfile app = paper_profile("BT");
  const double deadline_h =
      OnDemandSelector(&catalog, &estimator).baseline(app).t_h * 1.4;

  OptimizerConfig base;
  base.max_candidates = 4;
  base.max_groups = 2;
  base.setup.log_levels = 3;
  base.setup.failure.samples = 400;
  base.ratio_bins = 32;

  OptimizerConfig explicit_s3 = base;
  explicit_s3.ckpt_policies = {CkptPolicy::single_s3()};
  const std::string empty_fp = plan_fingerprint(
      SompiOptimizer(&catalog, &estimator, base).optimize(app, market, deadline_h));
  // Empty policy list == explicit {s3}: one byte-identical fingerprint.
  EXPECT_EQ(plan_fingerprint(SompiOptimizer(&catalog, &estimator, explicit_s3)
                                 .optimize(app, market, deadline_h)),
            empty_fp);
  EXPECT_EQ(empty_fp.find("ckpt="), std::string::npos)
      << "degenerate plans must not mention a checkpoint policy";
}

TEST(MultiLevelOptimizer, PolicySupersetNeverCostsMoreAndRecordsPolicy) {
  const Catalog catalog = paper_catalog();
  const ExecTimeEstimator estimator;
  Rng rng(7);
  const Market market =
      generate_market(catalog, random_market_profile(catalog, rng), 1.5, 0.25, 7);
  const AppProfile app = paper_profile("SP");
  const double deadline_h =
      OnDemandSelector(&catalog, &estimator).baseline(app).t_h * 1.5;

  OptimizerConfig config;
  config.max_candidates = 3;
  config.max_groups = 2;
  config.setup.log_levels = 3;
  config.setup.failure.samples = 400;
  config.ratio_bins = 32;
  const SompiOptimizer single(&catalog, &estimator, config);
  config.ckpt_policies = {CkptPolicy::single_s3(), CkptPolicy::cache_s3(),
                          CkptPolicy::cache_xor_s3()};
  const SompiOptimizer multi(&catalog, &estimator, config);

  const Plan ps = single.optimize(app, market, deadline_h);
  const Plan pm = multi.optimize(app, market, deadline_h);
  // Exact search over a superset of the choice set: never worse.
  EXPECT_LE(pm.expected.cost_usd, ps.expected.cost_usd);
  for (const GroupPlan& g : pm.groups) {
    EXPECT_TRUE(g.ckpt_policy == "s3" || g.ckpt_policy == "cache+s3" ||
                g.ckpt_policy == "cache+xor+s3")
        << g.ckpt_policy;
  }
  // The search agrees with the exhaustive scan on the enlarged choice set.
  EXPECT_EQ(plan_fingerprint(pm), plan_fingerprint(reference_optimize(
                                      catalog, estimator, config, app, market, deadline_h)));
}

// --- Redundancy properties ---------------------------------------------------

std::vector<std::vector<std::byte>> group_blobs(std::uint64_t seed, std::size_t k) {
  // Deliberately unequal lengths (including an empty blob at k >= 4).
  std::vector<std::vector<std::byte>> blobs(k);
  Rng rng(seed);
  for (std::size_t i = 0; i < k; ++i) {
    const std::size_t len = (i == 3) ? 0 : 1 + rng.uniform_index(200);
    blobs[i] = rank_blob(seed, static_cast<int>(i), len);
  }
  return blobs;
}

TEST(RedundancyProperty, EverySingleRankLossRoundTripsExactBytes) {
  for (const RedundancyScheme scheme : {RedundancyScheme::kPartner, RedundancyScheme::kXor}) {
    for (std::size_t k = 2; k <= 6; ++k) {
      const auto blobs = group_blobs(0xB10B5EED + k, k);
      const auto shards = redundancy_encode(scheme, blobs);
      ASSERT_EQ(shards.size(), k);
      for (std::size_t lost = 0; lost < k; ++lost) {
        std::vector<std::optional<std::vector<std::byte>>> b(blobs.begin(), blobs.end());
        std::vector<std::optional<std::vector<std::byte>>> s(shards.begin(), shards.end());
        b[lost] = std::nullopt;  // the node loses its blob AND its own shard
        s[lost] = std::nullopt;
        const auto rebuilt = redundancy_decode(scheme, b, s, lost);
        ASSERT_TRUE(rebuilt.has_value())
            << redundancy_scheme_label(scheme) << " k=" << k << " lost=" << lost;
        EXPECT_EQ(*rebuilt, blobs[lost])
            << redundancy_scheme_label(scheme) << " k=" << k << " lost=" << lost;
      }
    }
  }
}

TEST(RedundancyProperty, PartnerRecoversNonAdjacentPairLossExactly) {
  for (std::size_t k = 4; k <= 6; ++k) {
    const auto blobs = group_blobs(0xAB12 + k, k);
    const auto shards = redundancy_encode(RedundancyScheme::kPartner, blobs);
    for (std::size_t a = 0; a < k; ++a) {
      for (std::size_t c = a + 2; c < k; ++c) {
        if (a == 0 && c == k - 1) continue;  // wrap-adjacent
        std::vector<std::optional<std::vector<std::byte>>> b(blobs.begin(), blobs.end());
        std::vector<std::optional<std::vector<std::byte>>> s(shards.begin(), shards.end());
        b[a] = b[c] = std::nullopt;
        s[a] = s[c] = std::nullopt;
        for (const std::size_t lost : {a, c}) {
          const auto rebuilt = redundancy_decode(RedundancyScheme::kPartner, b, s, lost);
          ASSERT_TRUE(rebuilt.has_value()) << "k=" << k << " pair (" << a << "," << c << ")";
          EXPECT_EQ(*rebuilt, blobs[lost]);
        }
      }
    }
  }
}

TEST(RedundancyProperty, AdjacentPairLossIsDetectedNotMisdecoded) {
  const std::size_t k = 4;
  const auto blobs = group_blobs(0xADA4, k);
  for (const RedundancyScheme scheme : {RedundancyScheme::kPartner, RedundancyScheme::kXor}) {
    const auto shards = redundancy_encode(scheme, blobs);
    std::vector<std::optional<std::vector<std::byte>>> b(blobs.begin(), blobs.end());
    std::vector<std::optional<std::vector<std::byte>>> s(shards.begin(), shards.end());
    // Adjacent pair: rank 1's partner copy lives in shard 2, which died too.
    b[1] = b[2] = std::nullopt;
    s[1] = s[2] = std::nullopt;
    const auto r1 = redundancy_decode(scheme, b, s, 1);
    const auto r2 = redundancy_decode(scheme, b, s, 2);
    // A two-rank loss is beyond both schemes' guarantee for at least one of
    // the pair: whatever happens, the decoder must never return wrong bytes.
    if (r1.has_value()) {
      EXPECT_EQ(*r1, blobs[1]);
    }
    if (r2.has_value()) {
      EXPECT_EQ(*r2, blobs[2]);
    }
    EXPECT_FALSE(r1.has_value() && r2.has_value())
        << redundancy_scheme_label(scheme) << ": adjacent pair fully decoded";
  }
}

TEST(RedundancyProperty, TornOrCorruptShardsNeverDecodableButWrong) {
  // FaultyStore tears an upload by truncating it; byte flips model bit rot.
  // Under either corruption the decode must fail or return exact bytes.
  for (const RedundancyScheme scheme : {RedundancyScheme::kPartner, RedundancyScheme::kXor}) {
    for (std::size_t k = 2; k <= 5; ++k) {
      const auto blobs = group_blobs(0x70A9 + k, k);
      const auto shards = redundancy_encode(scheme, blobs);
      const std::size_t lost = k - 1;
      std::vector<std::optional<std::vector<std::byte>>> b(blobs.begin(), blobs.end());
      b[lost] = std::nullopt;
      // Torn: every truncation length of every surviving shard.
      for (std::size_t victim = 0; victim < k; ++victim) {
        if (victim == lost) continue;
        for (std::size_t cut = 0; cut < shards[victim].size();
             cut += 1 + shards[victim].size() / 17) {
          std::vector<std::optional<std::vector<std::byte>>> s(shards.begin(), shards.end());
          s[lost] = std::nullopt;
          s[victim] = std::vector<std::byte>(shards[victim].begin(),
                                             shards[victim].begin() + cut);
          const auto rebuilt = redundancy_decode(scheme, b, s, lost);
          if (rebuilt.has_value()) {
            EXPECT_EQ(*rebuilt, blobs[lost]);
          }
        }
        // Flipped byte somewhere in the payload half of the shard.
        std::vector<std::optional<std::vector<std::byte>>> s(shards.begin(), shards.end());
        s[lost] = std::nullopt;
        auto corrupt = shards[victim];
        if (!corrupt.empty()) {
          corrupt[corrupt.size() / 2] ^= std::byte{0x5A};
          s[victim] = corrupt;
          const auto rebuilt = redundancy_decode(scheme, b, s, lost);
          if (rebuilt.has_value()) {
            EXPECT_EQ(*rebuilt, blobs[lost]);
          }
        }
      }
    }
  }
}

// --- Compression -------------------------------------------------------------

TEST(Compression, RoundTripsAndRejectsTruncation) {
  const std::vector<std::vector<std::byte>> cases = {
      {},
      blob_of("a"),
      blob_of("aaaaaaaaaaaaaaaaaaaaaaaa"),
      blob_of("abcabcabc no runs here 123"),
      rank_blob(0xC0DEC, 0, 4096),
      std::vector<std::byte>(1000, std::byte{0}),
  };
  for (const auto& original : cases) {
    const auto packed = compress_bytes(CompressionMode::kRle, original);
    const auto unpacked = decompress_bytes(CompressionMode::kRle, packed);
    ASSERT_TRUE(unpacked.has_value());
    EXPECT_EQ(*unpacked, original);
    for (std::size_t cut = 0; cut < packed.size(); cut += 1 + packed.size() / 13) {
      const auto torn = decompress_bytes(
          CompressionMode::kRle,
          std::span<const std::byte>(packed.data(), cut));
      if (torn.has_value()) {  // only the full frame
        EXPECT_EQ(*torn, original);
      }
    }
    // kNone is byte-transparent: no frame, no transformation.
    EXPECT_EQ(compress_bytes(CompressionMode::kNone, original), original);
    EXPECT_EQ(*decompress_bytes(CompressionMode::kNone, original), original);
  }
  const auto zeros = std::vector<std::byte>(1000, std::byte{0});
  EXPECT_LT(compress_bytes(CompressionMode::kRle, zeros).size(), 50u);
}

TEST(Compression, CpuSecondsAreAPureFunctionOfSizeAndBilled) {
  CompressionSpec spec;
  spec.mode = CompressionMode::kRle;
  spec.cpu_seconds_per_gb = 2.0;
  constexpr std::size_t kGiB = 1024ull * 1024ull * 1024ull;
  EXPECT_EQ(compression_cpu_seconds(spec, 0), 0.0);
  EXPECT_EQ(compression_cpu_seconds(spec, kGiB), 2.0);
  EXPECT_EQ(compression_cpu_seconds(spec, kGiB / 2), 1.0);
  spec.mode = CompressionMode::kNone;
  EXPECT_EQ(compression_cpu_seconds(spec, kGiB), 0.0);
}

// --- The recovery ladder -----------------------------------------------------

struct Hierarchy {
  MemoryStore cache;
  S3Sim remote;
};

std::vector<std::byte> state_at(int iter, int rank) {
  StateWriter w;
  w.write<std::int32_t>(iter);
  w.write<std::int32_t>(rank * 17 + iter);
  auto payload = rank_blob(0x5A5A + iter, rank, 300);
  w.write_vec(std::vector<std::uint8_t>(
      reinterpret_cast<const std::uint8_t*>(payload.data()),
      reinterpret_cast<const std::uint8_t*>(payload.data()) + payload.size()));
  return w.take();
}

/// Runs `iters` checkpointed iterations through `ml` on a fresh world.
void run_saves(MultiLevelCheckpointer& ml, int ranks, int iters) {
  const mpi::RunResult result = mpi::Runtime::run(ranks, [&](mpi::Comm& comm) {
    for (int iter = 1; iter <= iters; ++iter)
      (void)ml.save(comm, state_at(iter, comm.rank()));
  });
  ASSERT_TRUE(result.completed);
}

/// Loads on a fresh world and checks every rank got `want_iter`'s bytes.
void expect_restore(MultiLevelCheckpointer& ml, int ranks, int want_iter) {
  const mpi::RunResult result = mpi::Runtime::run(ranks, [&](mpi::Comm& comm) {
    const auto blob = ml.load_latest(comm);
    ASSERT_TRUE(blob.has_value());
    EXPECT_EQ(*blob, state_at(want_iter, comm.rank())) << "rank " << comm.rank();
  });
  ASSERT_TRUE(result.completed);
}

TEST(MultiLevelCkpt, SingleRankCacheLossRebuildsFromPeersWithoutRemoteGets) {
  for (const RedundancyScheme scheme : {RedundancyScheme::kPartner, RedundancyScheme::kXor}) {
    Hierarchy h;
    MultiLevelConfig config;
    config.cache = &h.cache;
    config.redundancy = scheme;
    MultiLevelCheckpointer ml(&h.remote, "run", config);
    const int ranks = 4;
    run_saves(ml, ranks, 2);

    // The node holding rank 2's cache dies: blob and shard both gone.
    h.cache.remove("run/l0/v1/rank2");
    h.cache.remove("run/l1/v1/shard2");

    const std::uint64_t gets_before = h.remote.get_count();
    expect_restore(ml, ranks, 2);
    EXPECT_EQ(h.remote.get_count(), gets_before)
        << redundancy_scheme_label(scheme) << ": peer rebuild touched billed S3-sim GETs";
    const RecoveryStats stats = ml.recovery_stats();
    EXPECT_EQ(stats.peer_rebuilds, 1u);
    EXPECT_EQ(stats.cache_loads, 3u);
    EXPECT_EQ(stats.remote_loads, 0u);
  }
}

TEST(MultiLevelCkpt, WholeCacheLossFallsThroughToRemote) {
  Hierarchy h;
  MultiLevelConfig config;
  config.cache = &h.cache;
  config.redundancy = RedundancyScheme::kXor;
  config.compression.mode = CompressionMode::kRle;  // exercise the flush codec
  MultiLevelCheckpointer ml(&h.remote, "run", config);
  const int ranks = 3;
  run_saves(ml, ranks, 3);

  for (const std::string& key : h.cache.list("")) h.cache.remove(key);
  const std::uint64_t gets_before = h.remote.get_count();
  expect_restore(ml, ranks, 3);
  EXPECT_EQ(h.remote.get_count(), gets_before + ranks);  // one GET per rank
  EXPECT_EQ(ml.recovery_stats().remote_loads, static_cast<std::uint64_t>(ranks));
}

TEST(MultiLevelCkpt, KilledFlushLeavesRemoteUncommittedAndCacheServes) {
  fi::FaultPlan plan = fi::FaultPlan::quiet(1);
  plan.p_flush_kill = 1.0;  // every flush dies mid-upload
  fi::FaultInjector injector(plan);

  Hierarchy h;
  MultiLevelConfig config;
  config.cache = &h.cache;
  config.redundancy = RedundancyScheme::kPartner;
  MultiLevelCheckpointer ml(&h.remote, "run", config, &injector);
  const int ranks = 3;
  run_saves(ml, ranks, 2);

  const FlushStats fs = ml.flush_stats();
  EXPECT_EQ(fs.flushes_killed, 2u);
  EXPECT_EQ(fs.flushes_completed, 0u);
  EXPECT_TRUE(h.remote.list("run/v1/COMMIT").empty())
      << "a killed flush must never commit remotely";
  // The cache level still serves the newest snapshot, no remote GETs.
  const std::uint64_t gets_before = h.remote.get_count();
  expect_restore(ml, ranks, 2);
  EXPECT_EQ(h.remote.get_count(), gets_before);
}

// The latent bug this PR fixes: per-level key namespaces. With every level
// sharing one flat namespace, a stale cache-only snapshot whose version was
// scanned first could shadow a NEWER version that had already been flushed
// to remote but wiped from the cache. The interleaved flush/kill schedule
// below constructs exactly that store state; the versioned, per-level
// namespaces plus version-first candidate order must return the newer one.
TEST(MultiLevelCkpt, StaleCacheSnapshotCannotShadowNewerFlushedOne) {
  fi::FaultPlan plan = fi::FaultPlan::quiet(2);
  fi::FaultInjector killer([&] {
    fi::FaultPlan p = plan;
    p.p_flush_kill = 1.0;
    return p;
  }());

  Hierarchy h;
  MultiLevelConfig config;
  config.cache = &h.cache;
  config.redundancy = RedundancyScheme::kPartner;
  const int ranks = 3;

  // v0: flush killed → committed in cache only (the stale survivor).
  {
    MultiLevelCheckpointer ml(&h.remote, "run", config, &killer);
    const mpi::RunResult r = mpi::Runtime::run(ranks, [&](mpi::Comm& comm) {
      (void)ml.save(comm, state_at(1, comm.rank()));
    });
    ASSERT_TRUE(r.completed);
    ASSERT_EQ(ml.flush_stats().flushes_killed, 1u);
  }
  // v1: a genuinely newer iteration whose flush completes → committed in
  // cache AND remote.
  MultiLevelCheckpointer ml(&h.remote, "run", config);
  const mpi::RunResult r2 = mpi::Runtime::run(ranks, [&](mpi::Comm& comm) {
    (void)ml.save(comm, state_at(7, comm.rank()));
  });
  ASSERT_TRUE(r2.completed);

  // The node group is replaced: the newest version's cache entries vanish,
  // the stale v0 cache snapshot survives.
  const int newest = ml.latest_version();
  for (const std::string& key :
       h.cache.list("run/l0/v" + std::to_string(newest) + "/"))
    h.cache.remove(key);
  for (const std::string& key :
       h.cache.list("run/l1/v" + std::to_string(newest) + "/"))
    h.cache.remove(key);

  // Restore MUST resolve the newer flushed snapshot, not the stale cache one.
  expect_restore(ml, ranks, 7);
  EXPECT_EQ(ml.recovery_stats().remote_loads, static_cast<std::uint64_t>(ranks));
}

TEST(MultiLevelCkpt, AsyncFlushDrainsAndIsReadableByFlatCheckpointer) {
  Hierarchy h;
  MultiLevelConfig config;
  config.cache = &h.cache;
  config.redundancy = RedundancyScheme::kXor;
  config.async_flush = true;
  MultiLevelCheckpointer ml(&h.remote, "run", config);
  const int ranks = 4;
  run_saves(ml, ranks, 3);
  ml.wait_flush();

  const FlushStats fs = ml.flush_stats();
  EXPECT_EQ(fs.flushes_started, 3u);
  EXPECT_EQ(fs.flushes_completed, 3u);
  EXPECT_EQ(fs.flushes_killed, 0u);

  // Flushed snapshots use the flat Checkpointer's exact key scheme, so a
  // plain (pre-multilevel) restore path can read them.
  Checkpointer flat(&h.remote, "run");
  EXPECT_EQ(flat.latest_version(), ml.latest_version());
  const mpi::RunResult result = mpi::Runtime::run(ranks, [&](mpi::Comm& comm) {
    const auto blob = flat.load_latest(comm);
    ASSERT_TRUE(blob.has_value());
    EXPECT_EQ(*blob, state_at(3, comm.rank()));
  });
  ASSERT_TRUE(result.completed);
}

TEST(MultiLevelCkpt, CompressionCpuIsBilledThroughBillingModel) {
  Hierarchy h;
  MultiLevelConfig config;
  config.cache = &h.cache;
  config.compression.mode = CompressionMode::kRle;
  config.compression.cpu_seconds_per_gb = 3600.0;  // 1 instance-hour per GB
  MultiLevelCheckpointer ml(&h.remote, "run", config);
  const int ranks = 2;
  run_saves(ml, ranks, 1);

  const FlushStats fs = ml.flush_stats();
  ASSERT_GT(fs.bytes_before_compression, 0u);
  const double hours = fs.compression_cpu_seconds / 3600.0;
  EXPECT_GT(hours, 0.0);
  EXPECT_EQ(ml.compression_cost_usd(BillingModel::kProportional, 2.0, ranks),
            billed_cost(BillingModel::kProportional, 2.0, hours, ranks));
  // RLE on the run-heavy payload actually shrinks the flushed bytes.
  EXPECT_LT(fs.bytes_flushed, fs.bytes_before_compression);
}

}  // namespace
}  // namespace sompi
