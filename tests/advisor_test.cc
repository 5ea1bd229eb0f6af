#include "advisor/advisor.h"

#include <gtest/gtest.h>

#include "grid_oracle.h"
#include "scenario/scenario.h"
#include "workload/tpch.h"
#include "workload/units.h"

namespace vdba::advisor {
namespace {

class AdvisorTest : public ::testing::Test {
 protected:
  static scenario::Testbed& tb() {
    static scenario::Testbed testbed;
    return testbed;
  }

  simdb::Workload CpuHeavy(double copies) {
    simdb::Workload w;
    w.AddStatement(workload::TpchQuery(tb().tpch_sf1(), 18), copies);
    return w;
  }
  simdb::Workload IoHeavy(double copies) {
    simdb::Workload w;
    w.AddStatement(workload::TpchQuery(tb().tpch_sf1(), 21), copies);
    return w;
  }
};

TEST_F(AdvisorTest, RecommendsMoreCpuForCpuIntensiveTenant) {
  std::vector<Tenant> tenants = {
      tb().MakeTenant(tb().db2_sf1(), CpuHeavy(5)),
      tb().MakeTenant(tb().db2_sf1(), IoHeavy(20)),
  };
  VirtualizationDesignAdvisor adv(tb().machine(), tenants);
  Recommendation rec = adv.Recommend();
  EXPECT_TRUE(rec.converged);
  EXPECT_GT(rec.allocations[0].cpu_share(), rec.allocations[1].cpu_share());
  EXPECT_GE(rec.estimated_improvement, 0.0);
}

TEST_F(AdvisorTest, EstimatedImprovementMatchesActualForDss) {
  std::vector<Tenant> tenants = {
      tb().MakeTenant(tb().db2_sf1(), CpuHeavy(5)),
      tb().MakeTenant(tb().db2_sf1(), IoHeavy(20)),
  };
  VirtualizationDesignAdvisor adv(tb().machine(), tenants);
  Recommendation rec = adv.Recommend();
  double actual = tb().ActualImprovement(tenants, rec.allocations);
  EXPECT_NEAR(rec.estimated_improvement, actual, 0.10);
  EXPECT_GT(actual, -0.02);  // never meaningfully worse than default
}

TEST_F(AdvisorTest, GreedyWithinFivePercentOfExhaustive) {
  // §4.5: greedy is "always within 5% of the optimal" on estimated cost.
  std::vector<Tenant> tenants = {
      tb().MakeTenant(tb().db2_sf1(), CpuHeavy(3)),
      tb().MakeTenant(tb().pg_sf1(), IoHeavy(10)),
  };
  VirtualizationDesignAdvisor adv(tb().machine(), tenants);
  Recommendation rec = adv.Recommend();

  auto objective = [&](const std::vector<simvm::ResourceVector>& a) {
    return adv.estimator()->EstimateSeconds(0, a[0]) +
           adv.estimator()->EstimateSeconds(1, a[1]);
  };
  auto optimal =
      ExhaustiveSearch(2, objective, adv.options().search.enumerator);
  ASSERT_TRUE(optimal.ok());
  double greedy_obj = rec.estimated_seconds[0] + rec.estimated_seconds[1];
  EXPECT_LE(greedy_obj, optimal->objective * 1.05);
}

TEST_F(AdvisorTest, ConvergesWithinPaperIterationBound) {
  // §7.2: convergence in 8 greedy iterations or fewer... plus slack for
  // our finer default delta.
  std::vector<Tenant> tenants = {
      tb().MakeTenant(tb().db2_sf1(), CpuHeavy(2)),
      tb().MakeTenant(tb().db2_sf1(), IoHeavy(8)),
      tb().MakeTenant(tb().pg_sf1(), CpuHeavy(1)),
  };
  VirtualizationDesignAdvisor adv(tb().machine(), tenants);
  Recommendation rec = adv.Recommend();
  EXPECT_TRUE(rec.converged);
  EXPECT_LE(rec.iterations, 20);
}

TEST_F(AdvisorTest, IdenticalTenantsSplitEvenly) {
  std::vector<Tenant> tenants = {
      tb().MakeTenant(tb().db2_sf1(), CpuHeavy(3)),
      tb().MakeTenant(tb().db2_sf1(), CpuHeavy(3)),
      tb().MakeTenant(tb().db2_sf1(), CpuHeavy(3)),
  };
  VirtualizationDesignAdvisor adv(tb().machine(), tenants);
  Recommendation rec = adv.Recommend();
  for (const auto& r : rec.allocations) {
    EXPECT_NEAR(r.cpu_share(), 1.0 / 3.0, 0.06);
    EXPECT_NEAR(r.mem_share(), 1.0 / 3.0, 0.06);
  }
}

TEST_F(AdvisorTest, LongerWorkloadOfSameShapeGetsMoreResources) {
  // §7.3 second experiment: W4 = k units of the same shape grows and earns
  // a larger share.
  double prev_share = 0.0;
  for (double k : {1.0, 4.0, 8.0}) {
    std::vector<Tenant> tenants = {
        tb().MakeTenant(tb().db2_sf1(), CpuHeavy(2)),
        tb().MakeTenant(tb().db2_sf1(), CpuHeavy(2 * k)),
    };
    VirtualizationDesignAdvisor adv(tb().machine(), tenants);
    Recommendation rec = adv.Recommend();
    EXPECT_GE(rec.allocations[1].cpu_share(), prev_share - 1e-9) << k;
    prev_share = rec.allocations[1].cpu_share();
  }
  EXPECT_GT(prev_share, 0.5);
}

TEST_F(AdvisorTest, EstimateTotalsMatchComponentEstimates) {
  std::vector<Tenant> tenants = {
      tb().MakeTenant(tb().db2_sf1(), CpuHeavy(2)),
      tb().MakeTenant(tb().pg_sf1(), IoHeavy(4)),
  };
  VirtualizationDesignAdvisor adv(tb().machine(), tenants);
  auto def = DefaultAllocation(2);
  double total = adv.EstimateTotalSeconds(def);
  double sum = adv.estimator()->EstimateSeconds(0, def[0]) +
               adv.estimator()->EstimateSeconds(1, def[1]);
  EXPECT_NEAR(total, sum, 1e-9);
}

TEST_F(AdvisorTest, ExhaustiveOnAnEmptyGridReturnsItsStart) {
  // N * min_share > 1 leaves no grid allocation: the exact search returns
  // its starting allocation, unconverged, instead of aborting.
  struct Case {
    int n;
    double min_share;
  };
  for (Case c : {Case{21, 0.05}, Case{4, 0.3}}) {
    SCOPED_TRACE(testing::Message() << "n=" << c.n);
    std::vector<Tenant> tenants;
    for (int i = 0; i < c.n; ++i) {
      tenants.push_back(tb().MakeTenant(
          tb().db2_sf1(), i % 2 == 0 ? CpuHeavy(1) : IoHeavy(2)));
    }
    AdvisorOptions opts;
    opts.search.strategy = "exhaustive";
    opts.search.enumerator.min_share = c.min_share;
    VirtualizationDesignAdvisor adv(tb().machine(), tenants, opts);
    const int dims = adv.estimator()->num_dims();

    Recommendation rec = adv.Recommend();
    EXPECT_EQ(rec.strategy, "exhaustive");
    EXPECT_FALSE(rec.converged);
    EXPECT_EQ(rec.allocations, DefaultAllocation(c.n, dims));
    ASSERT_EQ(rec.estimated_seconds.size(), static_cast<size_t>(c.n));
    EXPECT_NEAR(rec.estimated_improvement, 0.0, 1e-9);

    // A caller-supplied start is what comes back.
    std::vector<simvm::ResourceVector> start =
        DefaultAllocation(c.n, dims);
    start[0].set(simvm::kCpuDim, start[0].cpu_share() + 0.01);
    start[1].set(simvm::kCpuDim, start[1].cpu_share() - 0.01);
    Recommendation warm = adv.Recommend(start);
    EXPECT_FALSE(warm.converged);
    EXPECT_EQ(warm.allocations, start);
  }
}

}  // namespace
}  // namespace vdba::advisor
