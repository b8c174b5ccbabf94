#include "core/ondemand.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "platform/platform.h"
#include "profile/paper_profiles.h"

namespace sompi {
namespace {

class OnDemandTest : public ::testing::Test {
 protected:
  Catalog catalog_ = paper_catalog();
  ExecTimeEstimator est_;
  OnDemandSelector selector_{&catalog_, &est_};
};

TEST_F(OnDemandTest, BaselineIsFastestType) {
  const AppProfile bt = paper_profile("BT");
  const OnDemandChoice base = selector_.baseline(bt);
  EXPECT_EQ(catalog_.type(base.type_index).name, "cc2.8xlarge");
  for (std::size_t d = 0; d < catalog_.types().size(); ++d)
    EXPECT_LE(base.t_h, selector_.describe(d, bt).t_h + 1e-12);
}

TEST_F(OnDemandTest, BaselineForIoAppIsM1Medium) {
  const OnDemandChoice base = selector_.baseline(paper_profile("BTIO"));
  EXPECT_EQ(catalog_.type(base.type_index).name, "m1.medium");
}

TEST_F(OnDemandTest, TightDeadlineForcesFastTier) {
  const AppProfile bt = paper_profile("BT");
  const double baseline_h = selector_.baseline(bt).t_h;
  // Deadline 1.05× baseline with 20% slack: only cc2.8xlarge fits.
  const OnDemandChoice d = selector_.select(bt, baseline_h * 1.05, 0.0);
  EXPECT_TRUE(d.feasible);
  EXPECT_EQ(catalog_.type(d.type_index).name, "cc2.8xlarge");
}

TEST_F(OnDemandTest, LooseDeadlinePicksCheaperTier) {
  const AppProfile bt = paper_profile("BT");
  const double baseline_h = selector_.baseline(bt).t_h;
  const OnDemandChoice tight = selector_.select(bt, baseline_h * 1.05, 0.0);
  const OnDemandChoice loose = selector_.select(bt, baseline_h * 1.6, 0.0);
  EXPECT_TRUE(loose.feasible);
  EXPECT_LE(loose.full_cost_usd(), tight.full_cost_usd());
  EXPECT_NE(catalog_.type(loose.type_index).name, "cc2.8xlarge");
}

TEST_F(OnDemandTest, SlackShrinksTheBudget) {
  const AppProfile bt = paper_profile("BT");
  const double baseline_h = selector_.baseline(bt).t_h;
  // With the deadline exactly at baseline, any positive slack makes every
  // tier infeasible.
  const OnDemandChoice d = selector_.select(bt, baseline_h, 0.2);
  EXPECT_FALSE(d.feasible);
  EXPECT_EQ(catalog_.type(d.type_index).name, "cc2.8xlarge");  // fastest fallback
}

TEST_F(OnDemandTest, CostIsRateTimesRuntime) {
  const AppProfile ft = paper_profile("FT");
  const OnDemandChoice d = selector_.describe(catalog_.type_index("c3.xlarge"), ft);
  EXPECT_EQ(d.instances, 32);
  EXPECT_NEAR(d.rate_usd_h, 0.210 * 32, 1e-12);
  EXPECT_NEAR(d.full_cost_usd(), d.rate_usd_h * d.t_h, 1e-12);
}

TEST_F(OnDemandTest, ConstrainedSelectFallsBackToTheFastestAllowedType) {
  const AppProfile bt = paper_profile("BT");
  const std::vector<std::string> allowed = {"m1.small", "c3.xlarge"};
  const OnDemandChoice small = selector_.describe(catalog_.type_index("m1.small"), bt);
  const OnDemandChoice c3 = selector_.describe(catalog_.type_index("c3.xlarge"), bt);
  const OnDemandChoice& fastest = small.t_h < c3.t_h ? small : c3;

  // No type beats the unconstrained baseline, so at that deadline with
  // positive slack no allowed type fits.
  const OnDemandChoice tight = selector_.select(bt, selector_.baseline(bt).t_h, 0.2, allowed);
  EXPECT_FALSE(tight.feasible);
  EXPECT_EQ(tight.type_index, fastest.type_index);
  EXPECT_EQ(tight.t_h, fastest.t_h);

  // A roomy deadline picks a feasible tier, still inside the allowed set.
  const OnDemandChoice loose = selector_.select(bt, fastest.t_h * 10.0, 0.0, allowed);
  EXPECT_TRUE(loose.feasible);
  EXPECT_TRUE(loose.type_index == small.type_index || loose.type_index == c3.type_index);
}

TEST(OnDemandPlatform, DescribeReadsThePlatformHostRates) {
  const Catalog catalog = paper_catalog();
  const std::size_t d = catalog.type_index("c3.xlarge");
  InstanceType faster = catalog.type(d);
  faster.gips_per_core *= 1.5;
  // A platform modeling one host, faster than its catalog row, and no zones.
  const platform::Platform plat({platform::Host{faster.name, faster.gips_per_core,
                                                faster.net_gbps, faster.net_latency_us,
                                                faster.io_mbps}},
                                {}, {});
  const ExecTimeEstimator catalog_est;
  const ExecTimeEstimator est(&plat);
  const OnDemandSelector selector(&catalog, &est);
  const AppProfile bt = paper_profile("BT");

  // On-demand has no zone: the runtime is the platform host's, exactly.
  EXPECT_EQ(selector.describe(d, bt).t_h, catalog_est.hours(bt, faster));
  EXPECT_LT(selector.describe(d, bt).t_h, catalog_est.hours(bt, catalog.type(d)));
  // A type the platform does not model keeps its catalog columns.
  const std::size_t other = catalog.type_index("m1.small");
  EXPECT_EQ(selector.describe(other, bt).t_h, catalog_est.hours(bt, catalog.type(other)));
}

TEST_F(OnDemandTest, RejectsBadArguments) {
  const AppProfile bt = paper_profile("BT");
  EXPECT_THROW(selector_.select(bt, 0.0, 0.2), PreconditionError);
  EXPECT_THROW(selector_.select(bt, 10.0, 1.0), PreconditionError);
}

}  // namespace
}  // namespace sompi
