// Platform/network cost model subsystem (DESIGN.md §12): the battery.
//
//   * Flat anchor — Platform::flat(catalog) must reproduce the catalog
//     constants BIT-exactly: effective() fields, every estimator output,
//     every SetupBuilder profile, and full optimizer plan fingerprints are
//     0 ULP from the legacy catalog-only path.
//   * Heterogeneity — the committed example platform (slow-network zone,
//     shared uplinks) must change the plan fingerprint.
//   * Model properties — p2p/bcast/allreduce formulas, fair-share
//     contention, compute derating, disk/uplink checkpoint paths.
//   * Lenient parser — one unit test per corruption class, mirroring the
//     common/csv skip-with-counter contract.
//   * Adapters — PlatformOpCoster billing mini-MPI sends, and
//     PlatformTransferModel billing multi-level checkpoint traffic.
#include "platform/platform.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "checkpoint/multilevel.h"
#include "checkpoint/storage.h"
#include "cloud/catalog.h"
#include "common/error.h"
#include "common/rng.h"
#include "core/ondemand.h"
#include "core/optimizer.h"
#include "core/setup_builder.h"
#include "minimpi/runtime.h"
#include "platform/examples.h"
#include "platform/models.h"
#include "platform/parser.h"
#include "profile/estimator.h"
#include "profile/paper_profiles.h"
#include "service/request.h"
#include "trace/market.h"

namespace sompi {
namespace {

using platform::EffectiveSpec;
using platform::Link;
using platform::NetworkModel;
using platform::Platform;
using platform::PlatformParseStats;

/// Bit pattern of a double — the comparisons below are 0-ULP, not approximate.
std::uint64_t bits(double v) {
  std::uint64_t b;
  static_assert(sizeof(b) == sizeof(v));
  std::memcpy(&b, &v, sizeof(b));
  return b;
}

// --- Flat anchor: bit-exact reproduction of the catalog ----------------------

TEST(PlatformFlat, EffectiveSpecIsBitExactToCatalogColumns) {
  const Catalog catalog = paper_catalog();
  const Platform flat = Platform::flat(catalog);
  for (const InstanceType& type : catalog.types()) {
    for (const Zone& zone : catalog.zones()) {
      for (const int flows : {1, 7, 64, 4096}) {
        const EffectiveSpec s = flat.effective(type, zone.name, flows);
        EXPECT_EQ(s.cores, type.cores);
        EXPECT_EQ(bits(s.gips_per_core), bits(type.gips_per_core));
        EXPECT_EQ(bits(s.net_gbps), bits(type.net_gbps));
        EXPECT_EQ(bits(s.net_latency_us), bits(type.net_latency_us));
        EXPECT_EQ(bits(s.io_mbps), bits(type.io_mbps));
        EXPECT_EQ(bits(s.uplink_gbps), bits(type.net_gbps));
        EXPECT_EQ(bits(s.uplink_latency_us), bits(0.0));
      }
    }
  }
}

TEST(PlatformFlat, UnknownTypeAndZoneFallBackToCatalogColumns) {
  const Catalog catalog = paper_catalog();
  const Platform empty({}, {Link{"l", 1.0, 0.0, false}}, {});
  const InstanceType& type = catalog.type(0);
  const EffectiveSpec s = empty.effective(type, "nowhere-1x", 3);
  EXPECT_EQ(bits(s.gips_per_core), bits(type.gips_per_core));
  EXPECT_EQ(bits(s.net_gbps), bits(type.net_gbps));
  EXPECT_EQ(bits(s.net_latency_us), bits(type.net_latency_us));
  EXPECT_EQ(bits(s.io_mbps), bits(type.io_mbps));
  EXPECT_EQ(bits(s.uplink_gbps), bits(type.net_gbps));
}

TEST(PlatformFlat, EstimatorZoneOverloadsAreZeroUlpFromLegacy) {
  const Catalog catalog = paper_catalog();
  const Platform flat = Platform::flat(catalog);
  const ExecTimeEstimator legacy;
  const ExecTimeEstimator with_flat(&flat);
  const ExecTimeEstimator with_null(nullptr);
  for (const AppProfile& app : paper_profiles()) {
    for (const InstanceType& type : catalog.types()) {
      const TimeBreakdown want = legacy.estimate(app, type);
      const CheckpointCosts want_ck = legacy.checkpoint_costs(app, type);
      for (const Zone& zone : catalog.zones()) {
        for (const ExecTimeEstimator* est : {&with_flat, &with_null}) {
          const TimeBreakdown got = est->estimate(app, type, zone.name);
          EXPECT_EQ(bits(got.cpu_h), bits(want.cpu_h));
          EXPECT_EQ(bits(got.net_h), bits(want.net_h));
          EXPECT_EQ(bits(got.io_h), bits(want.io_h));
          EXPECT_EQ(bits(est->hours(app, type, zone.name)), bits(want.total_h()));
          const CheckpointCosts ck = est->checkpoint_costs(app, type, zone.name);
          EXPECT_EQ(bits(ck.checkpoint_h), bits(want_ck.checkpoint_h));
          EXPECT_EQ(bits(ck.recovery_h), bits(want_ck.recovery_h));
        }
      }
    }
  }
}

TEST(PlatformFlat, SetupBuilderProfilesAreZeroUlpFromLegacy) {
  const Catalog catalog = paper_catalog();
  const Platform flat = Platform::flat(catalog);
  const ExecTimeEstimator legacy;
  const ExecTimeEstimator platform_est(&flat);
  Rng rng(20260808);
  const Market market =
      generate_market(catalog, random_market_profile(catalog, rng), 1.0, 0.25, 7);
  const AppProfile app = paper_profile("SP");

  const SetupConfig config;
  const SetupBuilder legacy_builder(&catalog, &legacy);
  const SetupBuilder platform_builder(&catalog, &platform_est);
  for (const CircleGroupSpec& spec : catalog.all_groups()) {
    const GroupSetup want = legacy_builder.build(app, spec, market, config);
    const GroupSetup got = platform_builder.build(app, spec, market, config);
    EXPECT_EQ(want.t_steps, got.t_steps);
    EXPECT_EQ(bits(want.o_steps), bits(got.o_steps));
    EXPECT_EQ(bits(want.r_steps), bits(got.r_steps));
    EXPECT_EQ(want.instances, got.instances);
  }
}

// --- Full-stack fingerprints: flat identity, hetero divergence ---------------

OptimizerConfig small_config() {
  OptimizerConfig config;
  config.max_candidates = 4;
  config.max_groups = 2;
  config.setup.log_levels = 3;
  config.setup.failure.samples = 400;
  config.ratio_bins = 32;
  return config;
}

std::string solve_fingerprint(const ExecTimeEstimator& estimator, std::uint64_t market_seed) {
  const Catalog catalog = paper_catalog();
  Rng rng(market_seed);
  const Market market =
      generate_market(catalog, random_market_profile(catalog, rng), 1.5, 0.25, market_seed);
  const AppProfile app = paper_profile("BT");
  // The deadline derives from the LEGACY baseline for every estimator, so a
  // hetero-platform fingerprint difference indicts the per-group profiles,
  // never a shifted deadline.
  const ExecTimeEstimator legacy;
  const double deadline_h =
      OnDemandSelector(&catalog, &legacy).baseline(app).t_h * 1.5;
  const SompiOptimizer optimizer(&catalog, &estimator, small_config());
  return plan_fingerprint(optimizer.optimize(app, market, deadline_h));
}

TEST(PlatformPlans, FlatPlatformPlanFingerprintsMatchLegacy) {
  const Catalog catalog = paper_catalog();
  const Platform flat = Platform::flat(catalog);
  const ExecTimeEstimator legacy;
  const ExecTimeEstimator platform_est(&flat);
  for (const std::uint64_t seed : {97ull, 1729ull}) {
    EXPECT_EQ(solve_fingerprint(platform_est, seed), solve_fingerprint(legacy, seed));
  }
}

TEST(PlatformPlans, HeteroPlatformDivergesFromFlat) {
  const Catalog catalog = paper_catalog();
  const Platform hetero = platform::example_hetero_platform();
  const ExecTimeEstimator legacy;
  const ExecTimeEstimator hetero_est(&hetero);
  EXPECT_NE(solve_fingerprint(hetero_est, 97), solve_fingerprint(legacy, 97));
}

TEST(PlatformPlans, SlowZoneProfilesAreStrictlyWorse) {
  // In the example platform us-east-1c derates compute and throttles both
  // links, so every per-group profile there must be >= the 1a profile, and
  // the checkpoint overhead strictly larger (slower shared uplink).
  const Catalog catalog = paper_catalog();
  const Platform hetero = platform::example_hetero_platform();
  const ExecTimeEstimator est(&hetero);
  for (const AppProfile& app : paper_profiles()) {
    for (const InstanceType& type : catalog.types()) {
      EXPECT_GT(est.hours(app, type, "us-east-1c"), est.hours(app, type, "us-east-1a"));
      const CheckpointCosts fast = est.checkpoint_costs(app, type, "us-east-1a");
      const CheckpointCosts slow = est.checkpoint_costs(app, type, "us-east-1c");
      EXPECT_GT(slow.checkpoint_h, fast.checkpoint_h);
      EXPECT_GT(slow.recovery_h, fast.recovery_h);
    }
  }
}

// --- Network/compute model properties ----------------------------------------

TEST(PlatformModels, P2pIsLatencyPlusBytesOverFairShare) {
  const Platform hetero = platform::example_hetero_platform();
  const NetworkModel net(&hetero);
  const Catalog catalog = paper_catalog();
  const InstanceType& type = *[&]() -> const InstanceType* {
    for (const InstanceType& t : catalog.types())
      if (t.name == "cc2.8xlarge") return &t;
    return nullptr;
  }();

  // us-east-1a fabric-fast: dedicated 100 Gbit/s, link latency 0 — the NIC
  // (10 Gbit/s, 60 us) is the bottleneck at any flow count.
  const double expected_fast = 60.0 * 1e-6 + 1e6 * 8.0 / (10.0 * 1e9);
  EXPECT_DOUBLE_EQ(net.p2p_seconds(type, "us-east-1a", 1000000, 1), expected_fast);
  EXPECT_EQ(bits(net.p2p_seconds(type, "us-east-1a", 1000000, 32)),
            bits(net.p2p_seconds(type, "us-east-1a", 1000000, 1)));

  // us-east-1c fabric-slow: shared 0.35 Gbit/s, 400 us — 4 flows quarter the
  // share, and the NIC latency adds to the fabric latency.
  const double share = 0.35 / 4.0;
  const double expected_slow = (60.0 + 400.0) * 1e-6 + 1e6 * 8.0 / (share * 1e9);
  EXPECT_DOUBLE_EQ(net.p2p_seconds(type, "us-east-1c", 1000000, 4), expected_slow);
  EXPECT_GT(net.p2p_seconds(type, "us-east-1c", 1000000, 4),
            net.p2p_seconds(type, "us-east-1c", 1000000, 1));
}

TEST(PlatformModels, BcastIsTreeRoundsAndAllreduceIsTwice) {
  const Platform hetero = platform::example_hetero_platform();
  const NetworkModel net(&hetero);
  const Catalog catalog = paper_catalog();
  const InstanceType& type = catalog.type(0);

  EXPECT_EQ(net.bcast_seconds(type, "us-east-1c", 4096, 1), 0.0);
  // n=8: informed doubles 1→2→4→8; round transfer counts 1, 2, 4.
  const double expected = net.p2p_seconds(type, "us-east-1c", 4096, 1) +
                          net.p2p_seconds(type, "us-east-1c", 4096, 2) +
                          net.p2p_seconds(type, "us-east-1c", 4096, 4);
  EXPECT_DOUBLE_EQ(net.bcast_seconds(type, "us-east-1c", 4096, 8), expected);
  // n=5: counts 1, 2, 1 (only n - informed ranks still need the value).
  const double expected5 = 2.0 * net.p2p_seconds(type, "us-east-1c", 4096, 1) +
                           net.p2p_seconds(type, "us-east-1c", 4096, 2);
  EXPECT_DOUBLE_EQ(net.bcast_seconds(type, "us-east-1c", 4096, 5), expected5);
  EXPECT_DOUBLE_EQ(net.allreduce_seconds(type, "us-east-1c", 4096, 8), 2.0 * expected);
}

TEST(PlatformModels, ComputeDeratingScalesKernelSeconds) {
  const Platform hetero = platform::example_hetero_platform();
  const platform::ComputeModel compute(&hetero);
  const Catalog catalog = paper_catalog();
  const InstanceType& type = catalog.type(0);
  const double fast = compute.kernel_seconds(type, "us-east-1a", 100.0, 16);
  const double slow = compute.kernel_seconds(type, "us-east-1c", 100.0, 16);
  EXPECT_DOUBLE_EQ(fast, 100.0 / (16.0 * type.gips_per_core));
  EXPECT_DOUBLE_EQ(slow, 100.0 / (16.0 * type.gips_per_core * 0.92));
}

TEST(PlatformModels, CheckpointPathsUseDiskAndUplink) {
  const Platform hetero = platform::example_hetero_platform();
  const NetworkModel net(&hetero);
  const Catalog catalog = paper_catalog();
  const InstanceType& type = catalog.type(0);  // m1.small: disk 40 MB/s, NIC 0.10

  // Cache writes: instances split the bytes across their local disks.
  const std::uint64_t total = 80u * 1000 * 1000;
  EXPECT_DOUBLE_EQ(net.cache_write_seconds(type, "us-east-1a", total, 2),
                   (total / 2.0) / (40.0 * 1e6));
  // Flush: per-instance share through the fair-shared uplink (8/2 = 4 Gbit/s
  // exceeds the 0.10 Gbit/s NIC, so the NIC clamps), plus the link latency.
  EXPECT_DOUBLE_EQ(net.flush_seconds(type, "us-east-1a", total, 2),
                   120.0 * 1e-6 + (total / 2.0) * 8.0 / (0.10 * 1e9));
  // Restores select the matching path.
  EXPECT_EQ(bits(net.restore_seconds(type, "us-east-1a", total, 2, true)),
            bits(net.cache_write_seconds(type, "us-east-1a", total, 2)));
  EXPECT_EQ(bits(net.restore_seconds(type, "us-east-1a", total, 2, false)),
            bits(net.flush_seconds(type, "us-east-1a", total, 2)));
}

// --- Lenient parser: one test per corruption class ---------------------------

Platform parse(const std::string& text, PlatformParseStats& stats) {
  return platform::parse_platform(text, &stats);
}

TEST(PlatformParser, ParsesTheCommittedExampleCleanly) {
  PlatformParseStats stats;
  const Platform p = parse(platform::example_hetero_platform_text(), stats);
  EXPECT_EQ(stats.hosts_parsed, 5u);
  EXPECT_EQ(stats.links_parsed, 4u);
  EXPECT_EQ(stats.zones_parsed, 3u);
  EXPECT_EQ(stats.skipped(), 0u);
  ASSERT_NE(p.zone("us-east-1c"), nullptr);
  EXPECT_DOUBLE_EQ(p.zone("us-east-1c")->compute_scale, 0.92);
  ASSERT_NE(p.host("cc2.8xlarge"), nullptr);
  EXPECT_DOUBLE_EQ(p.host("cc2.8xlarge")->nic_gbps, 10.0);
  EXPECT_TRUE(p.link(p.zone("us-east-1c")->intra_link).shared);
  EXPECT_FALSE(p.link(p.zone("us-east-1a")->intra_link).shared);
}

TEST(PlatformParser, CommittedExampleFileIsByteIdenticalToTheLibraryText) {
  const std::string path =
      std::string(SOMPI_SOURCE_DIR) + "/examples/platforms/hetero_slow_zone.plat";
  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in) << path;
  std::ostringstream os;
  os << in.rdbuf();
  EXPECT_EQ(os.str(), platform::example_hetero_platform_text());
}

TEST(PlatformParser, UnknownDirectiveIsSkippedAndCounted) {
  PlatformParseStats stats;
  const Platform p = parse("router r1 gbps=1\nhost a gips=1 nic_gbps=1 lat_us=0 disk_mbps=1\n",
                           stats);
  EXPECT_EQ(stats.unknown_directive, 1u);
  EXPECT_EQ(stats.hosts_parsed, 1u);
  EXPECT_EQ(stats.skipped(), 1u);
  EXPECT_NE(p.host("a"), nullptr);
}

TEST(PlatformParser, MissingNameIsSkippedAndCounted) {
  PlatformParseStats stats;
  parse("host\nlink gbps=1\nzone\n", stats);
  // "link gbps=1": the name slot holds a k=v token, i.e. the name is absent.
  EXPECT_EQ(stats.missing_name, 3u);
  EXPECT_EQ(stats.skipped(), 3u);
}

TEST(PlatformParser, MissingRequiredFieldIsSkippedAndCounted) {
  PlatformParseStats stats;
  parse(
      "host a gips=1 nic_gbps=1 lat_us=0\n"  // no disk_mbps
      "link l lat_us=5\n"                    // no gbps
      "zone z intra=l\n",                    // no uplink
      stats);
  EXPECT_EQ(stats.missing_field, 3u);
  EXPECT_EQ(stats.hosts_parsed, 0u);
  EXPECT_EQ(stats.links_parsed, 0u);
  EXPECT_EQ(stats.zones_parsed, 0u);
}

TEST(PlatformParser, BadFieldValuesAreSkippedAndCounted) {
  PlatformParseStats stats;
  parse(
      "host a gips=fast nic_gbps=1 lat_us=0 disk_mbps=1\n"  // unparsable
      "host b gips=-2 nic_gbps=1 lat_us=0 disk_mbps=1\n"    // non-positive
      "host c gips=1 nic_gbps=1 lat_us=0 disk_mbps=1 color=red\n"  // unknown key
      "link l gbps=\n",                                     // dangling '='
      stats);
  EXPECT_EQ(stats.bad_field, 4u);
  EXPECT_EQ(stats.hosts_parsed, 0u);
  EXPECT_EQ(stats.links_parsed, 0u);
}

TEST(PlatformParser, DuplicateNamesFirstWins) {
  PlatformParseStats stats;
  const Platform p = parse(
      "host a gips=1 nic_gbps=1 lat_us=0 disk_mbps=1\n"
      "host a gips=9 nic_gbps=9 lat_us=9 disk_mbps=9\n"
      "link l gbps=1\nlink l gbps=9\n"
      "zone z intra=l uplink=l\nzone z intra=l uplink=l compute_scale=0.5\n",
      stats);
  EXPECT_EQ(stats.duplicate_name, 3u);
  EXPECT_DOUBLE_EQ(p.host("a")->gips_per_core, 1.0);
  EXPECT_DOUBLE_EQ(p.link(0).gbps, 1.0);
  EXPECT_DOUBLE_EQ(p.zone("z")->compute_scale, 1.0);
}

TEST(PlatformParser, ZoneReferencingUndeclaredLinkIsDangling) {
  PlatformParseStats stats;
  const Platform p = parse(
      "link l gbps=1\n"
      "zone ok intra=l uplink=l\n"
      "zone bad intra=l uplink=nosuch\n",
      stats);
  EXPECT_EQ(stats.dangling_link, 1u);
  EXPECT_EQ(stats.zones_parsed, 1u);
  EXPECT_NE(p.zone("ok"), nullptr);
  EXPECT_EQ(p.zone("bad"), nullptr);
}

TEST(PlatformParser, ZonesMayPrecedeTheirLinks) {
  PlatformParseStats stats;
  const Platform p = parse("zone z intra=l uplink=l\nlink l gbps=2\n", stats);
  EXPECT_EQ(stats.skipped(), 0u);
  ASSERT_NE(p.zone("z"), nullptr);
  EXPECT_DOUBLE_EQ(p.link(p.zone("z")->intra_link).gbps, 2.0);
}

TEST(PlatformParser, CommentsAndBlankLinesAreFree) {
  PlatformParseStats stats;
  parse("# full comment\n\n   \nhost a gips=1 nic_gbps=1 lat_us=0 disk_mbps=1 # trailing\n",
        stats);
  EXPECT_EQ(stats.hosts_parsed, 1u);
  EXPECT_EQ(stats.skipped(), 0u);
}

TEST(PlatformParser, ReadPlatformFileThrowsOnUnreadablePath) {
  EXPECT_THROW(platform::read_platform_file("/nonexistent/x.plat"), IoError);
}

// --- PlatformOpCoster: billing mini-MPI sends --------------------------------

TEST(PlatformOpCoster, ChargesEveryEagerSendDeterministically) {
  const Platform hetero = platform::example_hetero_platform();
  const Catalog catalog = paper_catalog();
  const InstanceType& type = catalog.type(0);
  const platform::PlatformOpCoster coster(&hetero, type, "us-east-1c", /*flows=*/4);

  const int ranks = 4;
  const std::size_t payload = 1024;
  mpi::RunResult results[2];
  for (int run = 0; run < 2; ++run) {
    mpi::Runtime runtime(ranks);
    runtime.set_op_coster(&coster);
    runtime.launch([&](mpi::Comm& comm) {
      const std::vector<std::byte> data(payload);
      // A ring: every rank sends exactly one message of `payload` bytes.
      comm.send_bytes((comm.rank() + 1) % comm.size(), 5, data);
      (void)comm.recv_bytes((comm.rank() + comm.size() - 1) % comm.size(), 5);
    });
    results[run] = runtime.join();
    ASSERT_TRUE(results[run].completed);
  }
  const double expected = ranks * coster.message_seconds(payload);
  EXPECT_EQ(bits(results[0].total_stats().model_net_seconds), bits(expected));
  // Determinism contract: identical bits run-to-run.
  EXPECT_EQ(bits(results[1].total_stats().model_net_seconds),
            bits(results[0].total_stats().model_net_seconds));
}

TEST(PlatformOpCoster, NoCosterChargesNothing) {
  const mpi::RunResult result = mpi::Runtime::run(3, [](mpi::Comm& comm) {
    std::vector<int> v{comm.rank()};
    comm.bcast(v, 0);
  });
  ASSERT_TRUE(result.completed);
  EXPECT_EQ(bits(result.total_stats().model_net_seconds), bits(0.0));
}

// --- PlatformTransferModel: billing multi-level checkpoint traffic -----------

TEST(PlatformTransferModel, BillsCacheWritesFlushesAndRestores) {
  const Platform hetero = platform::example_hetero_platform();
  const Catalog catalog = paper_catalog();
  const InstanceType& type = catalog.type(0);
  const platform::PlatformTransferModel transfer(&hetero, type, "us-east-1a",
                                                 /*instances=*/2);

  MemoryStore remote;
  MemoryStore cache;
  MultiLevelConfig config;
  config.cache = &cache;
  config.transfer = &transfer;
  MultiLevelCheckpointer ml(&remote, "run", config);

  const int ranks = 2;
  const std::size_t blob_len = 4096;
  std::uint64_t flushed = 0;
  mpi::RunResult result = mpi::Runtime::run(ranks, [&](mpi::Comm& comm) {
    const std::vector<std::byte> state(blob_len, std::byte{7});
    ml.save(comm, state);
    (void)ml.load_latest(comm);  // served from cache
  });
  ASSERT_TRUE(result.completed);
  flushed = ml.flush_stats().bytes_flushed;
  ASSERT_GT(flushed, 0u);

  const double want_cache = ranks * transfer.cache_write_seconds(blob_len);
  EXPECT_EQ(bits(ml.flush_stats().model_cache_write_seconds), bits(want_cache));
  EXPECT_EQ(bits(ml.flush_stats().model_flush_seconds),
            bits(transfer.flush_seconds(flushed)));
  const double want_restore = ranks * transfer.restore_seconds(blob_len, true);
  EXPECT_EQ(bits(ml.recovery_stats().model_restore_seconds), bits(want_restore));
}

TEST(PlatformTransferModel, NullTransferModelBillsNothing) {
  MemoryStore remote;
  MemoryStore cache;
  MultiLevelConfig config;
  config.cache = &cache;
  MultiLevelCheckpointer ml(&remote, "run", config);
  const mpi::RunResult result = mpi::Runtime::run(2, [&](mpi::Comm& comm) {
    const std::vector<std::byte> state(256, std::byte{1});
    ml.save(comm, state);
    (void)ml.load_latest(comm);
  });
  ASSERT_TRUE(result.completed);
  EXPECT_EQ(bits(ml.flush_stats().model_cache_write_seconds), bits(0.0));
  EXPECT_EQ(bits(ml.flush_stats().model_flush_seconds), bits(0.0));
  EXPECT_EQ(bits(ml.recovery_stats().model_restore_seconds), bits(0.0));
}

}  // namespace
}  // namespace sompi
