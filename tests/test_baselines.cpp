#include "baselines/baselines.h"

#include <gtest/gtest.h>

#include "platform/examples.h"
#include "profile/paper_profiles.h"
#include "sim/replay.h"

namespace sompi {
namespace {

class BaselineTest : public ::testing::Test {
 protected:
  static SetupConfig fast_setup() {
    SetupConfig s;
    s.failure.samples = 500;
    return s;
  }

  double baseline_h(const AppProfile& app) const {
    return OnDemandSelector(&catalog_, &est_).baseline(app).t_h;
  }

  Catalog catalog_ = paper_catalog();
  ExecTimeEstimator est_;
  Market market_ = generate_market(catalog_, paper_market_profile(catalog_), /*days=*/4.0,
                                   /*step_hours=*/0.25, /*seed=*/55);
  BaselineFactory factory_{&catalog_, &est_, fast_setup()};
};

TEST_F(BaselineTest, OnDemandOnlyPlanHasNoGroups) {
  const AppProfile bt = paper_profile("BT");
  const Plan plan = factory_.on_demand_only(bt, baseline_h(bt) * 1.5);
  EXPECT_FALSE(plan.uses_spot());
  EXPECT_NEAR(plan.expected.cost_usd, plan.od.full_cost_usd(), 1e-9);
  EXPECT_TRUE(plan.od.feasible);
}

TEST_F(BaselineTest, SpotBaselinesFitTheDeadlineInTheChosenGroupsZone) {
  // us-east-1c of the heterogeneous platform is slower than the catalog
  // columns; us-east-1a/1b reproduce them. A flat market where 1c is the
  // cheapest zone: at the fastest on-demand runtime only the fastest type's
  // 1a/1b groups fit, so a choice filtered by the zone-less estimate would
  // land in 1c and miss the deadline.
  const platform::Platform hetero = platform::example_hetero_platform();
  const ExecTimeEstimator est(&hetero);
  const BaselineFactory factory(&catalog_, &est, fast_setup());
  const std::size_t slow_zone = catalog_.zone_index("us-east-1c");
  std::vector<SpotTrace> traces;
  for (std::size_t t = 0; t < catalog_.types().size(); ++t)
    for (std::size_t z = 0; z < catalog_.zones().size(); ++z)
      traces.emplace_back(0.25, std::vector<double>(96, z == slow_zone ? 0.01 : 0.05));
  const Market flat_prices(&catalog_, std::move(traces));

  for (const char* name : {"BT", "SP", "LU", "FT"}) {
    const AppProfile app = paper_profile(name);
    const double deadline = OnDemandSelector(&catalog_, &est).baseline(app).t_h;
    for (const Plan& plan : {factory.spot_inf(app, flat_prices, deadline),
                             factory.spot_avg(app, flat_prices, deadline)}) {
      ASSERT_EQ(plan.groups.size(), 1u) << name;
      const CircleGroupSpec& spec = plan.groups[0].spec;
      const double t_h = est.hours(app, catalog_.type(spec.type_index),
                                   catalog_.zone(spec.zone_index).name);
      EXPECT_LE(t_h, deadline) << name << " chose " << plan.groups[0].name;
    }
  }
}

TEST_F(BaselineTest, MaratheReplicatesCc2AcrossZones) {
  const AppProfile bt = paper_profile("BT");
  const Plan plan = factory_.marathe(bt, market_, baseline_h(bt) * 1.5, /*optimize_type=*/false);
  ASSERT_EQ(plan.groups.size(), 2u);  // dual redundancy by default
  const double cc2_od = catalog_.type(catalog_.type_index("cc2.8xlarge")).ondemand_usd_h;
  for (const auto& g : plan.groups) {
    EXPECT_EQ(catalog_.type(g.spec.type_index).name, "cc2.8xlarge");
    EXPECT_DOUBLE_EQ(g.bid_usd, cc2_od);
    EXPECT_LT(g.f_steps, g.t_steps);  // checkpoints enabled (Young/Daly)
  }
  EXPECT_NE(plan.groups[0].spec.zone_index, plan.groups[1].spec.zone_index);

  // The degree is configurable: all three zones when asked.
  const BaselineFactory wide(&catalog_, &est_, fast_setup(), /*marathe_replicas=*/3);
  const Plan plan3 = wide.marathe(bt, market_, baseline_h(bt) * 1.5, false);
  EXPECT_EQ(plan3.groups.size(), 3u);
}

TEST_F(BaselineTest, MaratheOptNeverCostsMoreThanMarathe) {
  for (const char* app_name : {"BT", "FT", "BTIO"}) {
    const AppProfile app = paper_profile(app_name);
    const double deadline = baseline_h(app) * 1.5;
    const Plan fixed = factory_.marathe(app, market_, deadline, false);
    const Plan opt = factory_.marathe(app, market_, deadline, true);
    EXPECT_LE(opt.expected.cost_usd, fixed.expected.cost_usd + 1e-9) << app_name;
  }
}

TEST_F(BaselineTest, MaratheOptPicksCheaperTypeForComputeUnderLooseDeadline) {
  // §5.3.1: "the monetary cost of Marathe is 36% larger than Marathe-Opt"
  // under loose deadlines because cc2.8xlarge is not cost-efficient for
  // compute-bound work.
  const AppProfile bt = paper_profile("BT");
  const Plan opt = factory_.marathe(bt, market_, baseline_h(bt) * 1.5, true);
  ASSERT_TRUE(opt.uses_spot());
  EXPECT_NE(catalog_.type(opt.groups[0].spec.type_index).name, "cc2.8xlarge");
}

TEST_F(BaselineTest, MaratheOptEqualsMaratheUnderTightDeadlineForComm) {
  // §5.3.1: for communication-intensive apps both select cc2.8xlarge.
  const AppProfile ft = paper_profile("FT");
  const Plan opt = factory_.marathe(ft, market_, baseline_h(ft) * 1.05, true);
  ASSERT_TRUE(opt.uses_spot());
  EXPECT_EQ(catalog_.type(opt.groups[0].spec.type_index).name, "cc2.8xlarge");
}

TEST_F(BaselineTest, SpotInfNeverDiesInReplay) {
  const AppProfile bt = paper_profile("BT");
  const Plan plan = factory_.spot_inf(bt, market_, baseline_h(bt) * 1.5);
  ASSERT_EQ(plan.groups.size(), 1u);
  EXPECT_GE(plan.groups[0].bid_usd, 999.0);
  EXPECT_EQ(plan.groups[0].f_steps, plan.groups[0].t_steps);  // no checkpoints

  const ReplayEngine engine(&market_);
  for (double start : {24.0, 40.0, 60.0}) {
    const ReplayResult r = engine.replay(plan, start);
    EXPECT_TRUE(r.completed_on_spot) << start;
    EXPECT_FALSE(r.groups[0].killed);
  }
}

TEST_F(BaselineTest, SpotAvgBidsTheHistoricalMean) {
  const AppProfile bt = paper_profile("BT");
  const Plan plan = factory_.spot_avg(bt, market_, baseline_h(bt) * 1.5);
  ASSERT_EQ(plan.groups.size(), 1u);
  const SpotTrace& trace = market_.trace(plan.groups[0].spec);
  EXPECT_NEAR(plan.groups[0].bid_usd, trace.mean_below(trace.max_price()), 1e-12);
}

TEST_F(BaselineTest, SpotPlansRespectDeadlineEligibility) {
  // The chosen group must itself be able to finish before the deadline.
  const AppProfile ft = paper_profile("FT");
  const double deadline = baseline_h(ft) * 1.2;
  for (const Plan& plan : {factory_.spot_inf(ft, market_, deadline),
                           factory_.spot_avg(ft, market_, deadline)}) {
    ASSERT_EQ(plan.groups.size(), 1u);
    const double t_h =
        est_.hours(ft, catalog_.type(plan.groups[0].spec.type_index));
    EXPECT_LE(t_h, deadline);
  }
}

TEST_F(BaselineTest, MaratheMissesDeadlineForIoApp) {
  // §5.3.1 BTIO: cc2.8xlarge is so bad at I/O that a tight deadline cannot
  // be met by Marathe's fixed choice — its expected time overshoots.
  const AppProfile btio = paper_profile("BTIO");
  const double deadline = baseline_h(btio) * 1.05;
  const Plan plan = factory_.marathe(btio, market_, deadline, false);
  EXPECT_FALSE(plan.spot_feasible);
}

}  // namespace
}  // namespace sompi
