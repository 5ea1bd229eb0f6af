// EstimateMany must be an exact drop-in for sequential estimation across
// tenants: same results, same cache/observation state, same counters, for
// every thread count — and the greedy enumerator built on top of it must
// return bit-identical EnumerationResults either way.
#include <gtest/gtest.h>

#include <atomic>
#include <vector>

#include "advisor/cost_estimator.h"
#include "advisor/greedy_enumerator.h"
#include "scenario/scenario.h"
#include "util/thread_pool.h"
#include "workload/tpch.h"

namespace vdba::advisor {
namespace {

/// WhatIfCostEstimator forced onto the sequential EstimateMany default —
/// the reference the batched fan-out must be indistinguishable from.
class SequentialWhatIfEstimator : public WhatIfCostEstimator {
 public:
  using WhatIfCostEstimator::WhatIfCostEstimator;
  std::vector<double> EstimateMany(
      std::span<const TenantAllocation> batch) override {
    return CostEstimator::EstimateMany(batch);
  }
};

class EstimateManyTest : public ::testing::Test {
 protected:
  EstimateManyTest() {
    // Deliberately heterogeneous tenants: different engines, workload
    // sizes, and frequencies, so LPT ordering and per-tenant bookkeeping
    // actually get exercised.
    simdb::Workload w1;
    for (int qn : {1, 6, 14, 18, 21}) {
      w1.AddStatement(workload::TpchQuery(tb_.tpch_sf1(), qn), 2.0);
    }
    simdb::Workload w2;
    w2.AddStatement(workload::TpchQuery(tb_.tpch_sf1(), 17), 3.0);
    simdb::Workload w3;
    for (int qn : {3, 12}) {
      w3.AddStatement(workload::TpchQuery(tb_.tpch_sf1(), qn), 1.5);
    }
    tenants_.push_back(tb_.MakeTenant(tb_.pg_sf1(), w1));
    tenants_.push_back(tb_.MakeTenant(tb_.db2_sf1(), w2));
    tenants_.push_back(tb_.MakeTenant(tb_.pg_sf1(), w3));
  }

  /// A cross-tenant batch shaped like a greedy frontier: every tenant
  /// probed at several allocations, interleaved, with duplicates.
  std::vector<TenantAllocation> Frontier() const {
    std::vector<TenantAllocation> batch;
    for (double c = 0.2; c <= 0.8 + 1e-9; c += 0.3) {
      for (int t = 0; t < static_cast<int>(tenants_.size()); ++t) {
        batch.push_back({t, {c, 0.5}});
        batch.push_back({t, {0.5, c}});
      }
    }
    // Duplicates of earlier probes (must replay as cache hits).
    batch.push_back({0, {0.2, 0.5}});
    batch.push_back({2, {0.5, 0.2}});
    return batch;
  }

  scenario::Testbed tb_;
  std::vector<Tenant> tenants_;
};

TEST_F(EstimateManyTest, MatchesSequentialForAnyThreadCount) {
  std::vector<TenantAllocation> frontier = Frontier();

  // Reference: plain sequential EstimateSeconds calls.
  WhatIfCostEstimator seq(tb_.machine(), tenants_);
  std::vector<double> expected;
  for (const TenantAllocation& item : frontier) {
    expected.push_back(seq.EstimateSeconds(item.tenant, item.r));
  }

  for (int threads : {1, 2, 7}) {
    WhatIfEstimatorOptions opts;
    opts.batch_threads = threads;
    WhatIfCostEstimator batch(tb_.machine(), tenants_, opts);
    std::vector<double> got = batch.EstimateMany(frontier);
    ASSERT_EQ(got.size(), expected.size());
    for (size_t i = 0; i < got.size(); ++i) {
      EXPECT_DOUBLE_EQ(got[i], expected[i])
          << "threads=" << threads << " probe " << i;
    }
    // Identical bookkeeping: same optimizer work, same cache hits, same
    // per-tenant observation logs in the same order.
    EXPECT_EQ(batch.optimizer_calls(), seq.optimizer_calls())
        << "threads=" << threads;
    EXPECT_EQ(batch.cache_hits(), seq.cache_hits()) << "threads=" << threads;
    for (int t = 0; t < batch.num_tenants(); ++t) {
      ASSERT_EQ(batch.observations(t).size(), seq.observations(t).size())
          << "tenant " << t;
      for (size_t i = 0; i < seq.observations(t).size(); ++i) {
        EXPECT_EQ(batch.observations(t)[i].allocation,
                  seq.observations(t)[i].allocation);
        EXPECT_DOUBLE_EQ(batch.observations(t)[i].est_seconds,
                         seq.observations(t)[i].est_seconds);
        EXPECT_EQ(batch.observations(t)[i].plan_signature,
                  seq.observations(t)[i].plan_signature);
      }
    }
  }
}

TEST_F(EstimateManyTest, SameAllocationDistinctTenantsComputedPerTenant) {
  WhatIfCostEstimator est(tb_.machine(), tenants_);
  // The same allocation tagged with different tenants is a distinct cache
  // key per tenant. Optimizer calls follow distinct (engine, statement,
  // params) keys: tenants 0 and 2 share an engine and a calibration, so
  // their parameter vectors agree, but no statement; tenant 1's Q17 runs
  // on the DB2 engine. 5 + 1 + 2 keys, none shared.
  std::vector<TenantAllocation> batch = {
      {0, {0.5, 0.5}}, {1, {0.5, 0.5}}, {2, {0.5, 0.5}}};
  est.EstimateMany(batch);
  EXPECT_EQ(est.optimizer_calls(), 8);
  EXPECT_EQ(est.statement_hits(), 0);
  EXPECT_EQ(est.cache_hits(), 0);
  for (int t = 0; t < est.num_tenants(); ++t) {
    EXPECT_EQ(est.observations(t).size(), 1u);
  }
}

TEST_F(EstimateManyTest, MixedCachedAndUncachedAcrossTenants) {
  WhatIfCostEstimator est(tb_.machine(), tenants_);
  est.EstimateSeconds(1, {0.5, 0.5});  // pre-warm one tenant
  long calls_before = est.optimizer_calls();

  std::vector<TenantAllocation> batch = {
      {1, {0.5, 0.5}},  // cached
      {0, {0.3, 0.5}},  // new
      {0, {0.3, 0.5}},  // duplicate of the new probe
      {2, {0.3, 0.5}},  // same allocation, different tenant -> new
      {1, {0.5, 0.5}},  // cached again
  };
  std::vector<double> got = est.EstimateMany(batch);
  EXPECT_DOUBLE_EQ(got[0], got[4]);
  EXPECT_DOUBLE_EQ(got[1], got[2]);
  // Distinct new (engine, statement, params) keys: tenant 0's five
  // statements and tenant 2's two at {0.3, 0.5}; the duplicate probe is a
  // cache hit, not a statement hit.
  EXPECT_EQ(est.optimizer_calls() - calls_before, 7);
  EXPECT_EQ(est.statement_hits(), 0);
  EXPECT_EQ(est.cache_hits(), 3);
  EXPECT_EQ(est.observations(0).size(), 1u);
  EXPECT_EQ(est.observations(2).size(), 1u);
}

TEST_F(EstimateManyTest, EmptyBatchIsANoOp) {
  WhatIfCostEstimator est(tb_.machine(), tenants_);
  EXPECT_TRUE(est.EstimateMany({}).empty());
  EXPECT_EQ(est.optimizer_calls(), 0);
}

TEST_F(EstimateManyTest, BaseClassDefaultIsSequential) {
  // A CostEstimator that does not override EstimateMany still gets the
  // correct (sequential, tenant-tagged) semantics.
  class Synthetic : public CostEstimator {
   public:
    double EstimateSeconds(int tenant,
                           const simvm::ResourceVector& r) override {
      return (tenant + 1) / r.cpu_share() + 2.0 / r.mem_share();
    }
    int num_tenants() const override { return 2; }
    int num_dims() const override { return 2; }
  };
  Synthetic s;
  std::vector<TenantAllocation> batch = {{0, {0.5, 0.5}}, {1, {0.5, 0.5}}};
  std::vector<double> got = s.EstimateMany(batch);
  ASSERT_EQ(got.size(), 2u);
  EXPECT_DOUBLE_EQ(got[0], 6.0);
  EXPECT_DOUBLE_EQ(got[1], 8.0);
}

TEST_F(EstimateManyTest, GreedyEnumerationIdenticalBatchedVsSequential) {
  // The tentpole determinism claim end to end: greedy enumeration over
  // the real what-if estimator returns bit-identical results whether the
  // frontier fans out over the pool or runs sequentially — including with
  // per-dimension delta schedules annealing coarse-to-fine.
  EnumeratorOptions opts;
  opts.deltas[simvm::kCpuDim] = {0.1, 0.05};
  opts.deltas[simvm::kMemDim] = {0.1, 0.05};
  GreedyEnumerator greedy(opts);
  std::vector<QosSpec> qos(tenants_.size());

  WhatIfCostEstimator batched(tb_.machine(), tenants_);
  SequentialWhatIfEstimator sequential(tb_.machine(), tenants_);
  EnumerationResult a = greedy.Run(&batched, qos);
  EnumerationResult b = greedy.Run(&sequential, qos);

  EXPECT_EQ(a.iterations, b.iterations);
  EXPECT_EQ(a.converged, b.converged);
  EXPECT_DOUBLE_EQ(a.objective, b.objective);
  ASSERT_EQ(a.allocations.size(), b.allocations.size());
  for (size_t i = 0; i < a.allocations.size(); ++i) {
    EXPECT_EQ(a.allocations[i], b.allocations[i]) << "tenant " << i;
    EXPECT_DOUBLE_EQ(a.tenant_costs[i], b.tenant_costs[i]);
  }
  EXPECT_EQ(a.violated_qos, b.violated_qos);
  // Same probes -> same optimizer work and observation streams.
  EXPECT_EQ(batched.optimizer_calls(), sequential.optimizer_calls());
  for (int t = 0; t < batched.num_tenants(); ++t) {
    EXPECT_EQ(batched.observations(t).size(),
              sequential.observations(t).size());
  }
}

TEST_F(EstimateManyTest, SetWorkloadInvalidatesOnlyThatTenantAfterFanOut) {
  // Regression: after a cross-tenant EstimateMany fan-out populated every
  // tenant's cache and observation log, SetWorkload(t) must wipe tenant
  // t's state completely — and nobody else's.
  WhatIfCostEstimator est(tb_.machine(), tenants_);
  est.EstimateMany(Frontier());
  const size_t obs0 = est.observations(0).size();
  const size_t obs1 = est.observations(1).size();
  const size_t obs2 = est.observations(2).size();
  ASSERT_GT(obs1, 0u);
  const double t1_before = est.EstimateSeconds(1, {0.5, 0.5});
  const long calls_before = est.optimizer_calls();
  const long hits_before = est.cache_hits();
  const long statement_hits_before = est.statement_hits();

  simdb::Workload heavier;
  heavier.AddStatement(workload::TpchQuery(tb_.tpch_sf1(), 17), 30.0);
  est.SetWorkload(1, heavier);

  // Tenant 1's log is gone; the neighbours' are untouched.
  EXPECT_TRUE(est.observations(1).empty());
  EXPECT_EQ(est.observations(0).size(), obs0);
  EXPECT_EQ(est.observations(2).size(), obs2);

  // Re-probing the whole frontier: tenant 1's probes are cache misses
  // again, the other tenants' replay purely from cache. The new workload
  // re-weights the same Q17 on the same engine, so every statement of
  // those misses is already in the statement memo: no optimizer call.
  std::vector<TenantAllocation> frontier = Frontier();
  size_t tenant1_distinct = 0;
  est.EstimateMany(frontier);
  tenant1_distinct = est.observations(1).size();
  EXPECT_GT(tenant1_distinct, 0u);
  EXPECT_EQ(est.optimizer_calls() - calls_before, 0);
  EXPECT_EQ(est.statement_hits() - statement_hits_before,
            static_cast<long>(tenant1_distinct) *
                static_cast<long>(heavier.statements.size()));
  // Every non-tenant-1 probe of the frontier was a cache hit.
  EXPECT_EQ(est.cache_hits() - hits_before,
            static_cast<long>(frontier.size()) -
                static_cast<long>(tenant1_distinct));
  EXPECT_EQ(est.observations(0).size(), obs0);
  EXPECT_EQ(est.observations(2).size(), obs2);

  // And the invalidation is semantic, not just bookkeeping: the heavier
  // workload estimates heavier.
  EXPECT_GT(est.EstimateSeconds(1, {0.5, 0.5}), t1_before);
}

TEST(ThreadPoolOrderTest, ParallelForOrderCoversEveryIndexOnce) {
  ThreadPool pool(3);
  std::vector<size_t> order = {4, 2, 0, 1, 3};  // heaviest-first order
  std::vector<std::atomic<int>> counts(5);
  pool.ParallelForOrder(order, [&](size_t i) {
    counts[i].fetch_add(1);
  });
  for (size_t i = 0; i < counts.size(); ++i) {
    EXPECT_EQ(counts[i].load(), 1) << i;
  }
}

}  // namespace
}  // namespace vdba::advisor
