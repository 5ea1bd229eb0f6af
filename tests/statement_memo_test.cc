// The statement memo must be invisible in every value: each estimate equals,
// bit for bit, a memo-free oracle that prices every statement with the
// scalar what-if optimizer and sums in statement order. What the memo may
// change is the work: optimizer_calls() counts distinct (engine, statement,
// parameter vector) keys, and optimizer_calls() + statement_hits() counts
// every statement of every uncached probe.
#include "advisor/statement_memo.h"

#include <gtest/gtest.h>

#include <cstring>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "advisor/cost_estimator.h"
#include "scenario/scenario.h"
#include "workload/tpch.h"

namespace vdba::advisor {
namespace {

using simvm::ResourceVector;

/// One estimate recomputed without any cache or memo.
struct OracleValue {
  double seconds = 0.0;
  std::string signature;
};

OracleValue Oracle(const simvm::PhysicalMachine& machine, const Tenant& t,
                   const ResourceVector& r) {
  const ResourceVector canon = r.Expanded(machine.resources->dims());
  const simdb::EngineParams params =
      t.calibration->ParamsFor(canon, machine.VmMemoryMb(canon));
  OracleValue out;
  for (const simdb::WorkloadStatement& stmt : t.workload.statements) {
    simdb::OptimizeResult opt = t.engine->WhatIfOptimize(stmt.query, params);
    out.seconds +=
        t.calibration->ToSeconds(opt.native_cost, canon) * stmt.frequency;
    out.signature += opt.signature;
    out.signature += ';';
  }
  return out;
}

/// The distinct (engine, statement, parameter bits) keys a set of probes
/// touches: what the memo may price once each.
class KeyCounter {
 public:
  explicit KeyCounter(const simvm::PhysicalMachine& machine)
      : machine_(machine) {}

  void Add(const Tenant& t, const ResourceVector& r) {
    const ResourceVector canon = r.Expanded(machine_.resources->dims());
    const simdb::EngineParams params =
        t.calibration->ParamsFor(canon, machine_.VmMemoryMb(canon));
    std::string bits(sizeof(simdb::PgParams), '\0');
    std::visit([&](const auto& p) { std::memcpy(bits.data(), &p, sizeof(p)); },
               params);
    for (const simdb::WorkloadStatement& stmt : t.workload.statements) {
      size_t q = 0;
      while (q < queries_.size() && !(queries_[q] == stmt.query)) ++q;
      if (q == queries_.size()) queries_.push_back(stmt.query);
      keys_.insert({t.engine, q, bits});
    }
  }
  long size() const { return static_cast<long>(keys_.size()); }

 private:
  const simvm::PhysicalMachine& machine_;
  std::vector<simdb::QuerySpec> queries_;
  std::set<std::tuple<const simdb::DbEngine*, size_t, std::string>> keys_;
};

class StatementMemoTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() { tb_ = new scenario::Testbed(); }
  static void TearDownTestSuite() {
    delete tb_;
    tb_ = nullptr;
  }

  static simdb::QuerySpec Q(int number) {
    return workload::TpchQuery(tb_->tpch_sf1(), number);
  }
  static simdb::Workload Mix(std::initializer_list<int> queries,
                             double frequency) {
    simdb::Workload w;
    for (int q : queries) w.AddStatement(Q(q), frequency);
    return w;
  }
  const simvm::PhysicalMachine& machine() const { return tb_->machine(); }

  /// Every estimate of `est` at `r` for tenant `t` matches the oracle.
  void ExpectExact(WhatIfCostEstimator* est, int t, const ResourceVector& r) {
    const OracleValue want =
        Oracle(machine(), est->tenants()[static_cast<size_t>(t)], r);
    std::string signature;
    const double got = est->EstimateWithSignature(t, r, &signature);
    EXPECT_EQ(got, want.seconds) << "tenant " << t << " at " << r.ToString();
    EXPECT_EQ(signature, want.signature) << "tenant " << t;
  }

  static scenario::Testbed* tb_;
};

scenario::Testbed* StatementMemoTest::tb_ = nullptr;

TEST_F(StatementMemoTest, SharedStatementsAtEqualAndDifferentAllocations) {
  // Tenants 0 and 1 share Q6 and Q14 on one engine and one calibration.
  std::vector<Tenant> tenants = {
      tb_->MakeTenant(tb_->pg_sf1(), Mix({1, 6, 14}, 2.0)),
      tb_->MakeTenant(tb_->pg_sf1(), Mix({6, 14, 18}, 3.0))};
  WhatIfCostEstimator est(machine(), tenants);
  KeyCounter keys(machine());
  const ResourceVector a{0.5, 0.5};
  const ResourceVector b{0.3, 0.6};
  for (const auto& [t, r] : std::vector<std::pair<int, ResourceVector>>{
           {0, a}, {1, a}, {1, b}, {0, b}}) {
    ExpectExact(&est, t, r);
    keys.Add(tenants[static_cast<size_t>(t)], r);
  }
  EXPECT_EQ(est.optimizer_calls(), keys.size());
  EXPECT_EQ(est.optimizer_calls(), 8);  // 3 + 1 at a, 3 + 1 at b
  EXPECT_EQ(est.optimizer_calls() + est.statement_hits(), 12);
}

TEST_F(StatementMemoTest, CalibrationsYieldingIdenticalParamsShareEntries) {
  const calib::CalibrationModel twin = tb_->pg_calibration();
  Tenant other = tb_->MakeTenant(tb_->pg_sf1(), Mix({3, 6}, 1.5));
  other.calibration = &twin;
  std::vector<Tenant> tenants = {
      tb_->MakeTenant(tb_->pg_sf1(), Mix({3, 6}, 1.0)), other};
  WhatIfCostEstimator est(machine(), tenants);
  ExpectExact(&est, 0, {0.4, 0.4});
  const long calls = est.optimizer_calls();
  ExpectExact(&est, 1, {0.4, 0.4});
  EXPECT_EQ(est.optimizer_calls(), calls);
  EXPECT_EQ(est.statement_hits(), 2);
}

TEST_F(StatementMemoTest, DuplicatesInsideOneBatchArePricedOnce) {
  // Tenant 0 lists Q6 twice; tenants 0 and 1 share Q6 and Q12.
  simdb::Workload twice = Mix({6, 12}, 1.0);
  twice.AddStatement(Q(6), 4.0);
  std::vector<Tenant> tenants = {
      tb_->MakeTenant(tb_->pg_sf1(), twice),
      tb_->MakeTenant(tb_->pg_sf1(), Mix({12, 6}, 2.0)),
      tb_->MakeTenant(tb_->db2_sf1(), Mix({6, 12}, 2.0))};
  WhatIfCostEstimator est(machine(), tenants);
  std::vector<TenantAllocation> batch;
  KeyCounter keys(machine());
  long statements = 0;
  for (double c : {0.2, 0.5, 0.8}) {
    for (int t = 0; t < 3; ++t) {
      const ResourceVector r{c, 0.5};
      batch.push_back({t, r});
      batch.push_back({t, r});  // a cache hit, not a statement hit
      keys.Add(tenants[static_cast<size_t>(t)], r);
      statements +=
          static_cast<long>(tenants[static_cast<size_t>(t)]
                                .workload.statements.size());
    }
  }
  const std::vector<double> got = est.EstimateMany(batch);
  for (size_t i = 0; i < batch.size(); ++i) {
    const OracleValue want = Oracle(
        machine(), tenants[static_cast<size_t>(batch[i].tenant)], batch[i].r);
    EXPECT_EQ(got[i], want.seconds) << i;
  }
  // Two distinct statements per (engine, allocation): 2 engines x 3.
  EXPECT_EQ(keys.size(), 12);
  EXPECT_EQ(est.optimizer_calls(), keys.size());
  EXPECT_EQ(est.optimizer_calls() + est.statement_hits(), statements);
  EXPECT_EQ(est.cache_hits(), static_cast<long>(batch.size() / 2));
  for (int t = 0; t < 3; ++t) {
    for (const WhatIfObservation& o : est.observations(t)) {
      EXPECT_EQ(o.plan_signature,
                Oracle(machine(), tenants[static_cast<size_t>(t)],
                       o.allocation)
                    .signature);
    }
  }
}

TEST_F(StatementMemoTest, EstimateSecondsAfterABatchReadsTheBatchsEntries) {
  std::vector<Tenant> tenants = {
      tb_->MakeTenant(tb_->pg_sf1(), Mix({1, 6}, 1.0)),
      tb_->MakeTenant(tb_->pg_sf1(), Mix({6, 1, 14}, 2.0))};
  WhatIfCostEstimator est(machine(), tenants);
  est.EstimateMany(std::vector<TenantAllocation>{{0, {0.25, 0.5}},
                                                 {0, {0.75, 0.5}}});
  const long calls = est.optimizer_calls();
  EXPECT_EQ(calls, 4);
  ExpectExact(&est, 1, {0.75, 0.5});  // only Q14 is new
  EXPECT_EQ(est.optimizer_calls(), calls + 1);
  EXPECT_EQ(est.statement_hits(), 2);
}

TEST_F(StatementMemoTest, SetWorkloadAndReplaceTenantKeepExactValues) {
  std::vector<Tenant> tenants = {
      tb_->MakeTenant(tb_->pg_sf1(), Mix({1, 6}, 1.0)),
      tb_->MakeTenant(tb_->pg_sf1(), Mix({12}, 1.0))};
  WhatIfCostEstimator est(machine(), tenants);
  const ResourceVector r{0.45, 0.55};
  ExpectExact(&est, 0, r);
  ExpectExact(&est, 1, r);
  long calls = est.optimizer_calls();

  // Tenant 1 takes tenant 0's Q6 plus a new Q14: one new key.
  est.SetWorkload(1, Mix({6, 14}, 5.0));
  ExpectExact(&est, 1, r);
  EXPECT_EQ(est.optimizer_calls(), calls + 1);
  calls = est.optimizer_calls();

  // The same queries on another PostgreSQL engine (SF10): no key shared.
  Tenant sf10 = tb_->MakeTenant(tb_->pg_sf10(), Mix({1, 6}, 1.0));
  est.ReplaceTenant(1, sf10);
  ExpectExact(&est, 1, r);
  EXPECT_EQ(est.optimizer_calls(), calls + 2);
  calls = est.optimizer_calls();

  // And back: tenant 0 still holds the SF1 keys.
  est.ReplaceTenant(1, tb_->MakeTenant(tb_->pg_sf1(), Mix({6}, 7.0)));
  ExpectExact(&est, 1, r);
  EXPECT_EQ(est.optimizer_calls(), calls);
}

TEST_F(StatementMemoTest, AnEngineBuiltAtAFreedEnginesAddressIsNotAliased) {
  // Slot 1's engine is destroyed while the slot still holds its statements
  // (a departed tenant), and a different engine (SF10) is built at the
  // same address before the slot is reused.
  std::optional<simdb::DbEngine> engine;
  engine.emplace("pg-a", simdb::EngineFlavor::kPostgres,
                 tb_->tpch_sf1().catalog);
  const simdb::DbEngine* address = &*engine;
  std::vector<Tenant> tenants = {
      tb_->MakeTenant(tb_->pg_sf1(), Mix({12}, 1.0)),
      tb_->MakeTenant(*engine, Mix({1, 6}, 1.0))};
  WhatIfCostEstimator est(machine(), tenants);
  const ResourceVector r{0.45, 0.55};
  ExpectExact(&est, 1, r);
  est.InvalidateTenant(1);
  engine.reset();
  engine.emplace("pg-b", simdb::EngineFlavor::kPostgres,
                 tb_->tpch_sf10().catalog);
  ASSERT_EQ(&*engine, address);

  const long calls = est.optimizer_calls();
  est.ReplaceTenant(1, tb_->MakeTenant(*engine, Mix({1, 6}, 1.0)));
  ExpectExact(&est, 1, r);
  EXPECT_EQ(est.optimizer_calls(), calls + 2);
}

TEST_F(StatementMemoTest, RetiredIdsAreReusedWithoutTheirEntries) {
  StatementMemo memo;
  const simdb::EngineParams params = tb_->pg_sf1().DefaultParams();
  const std::vector<uint32_t> q1 = memo.Intern(&tb_->pg_sf1(), Mix({1}, 1.0));
  const std::vector<uint32_t> q6 = memo.Intern(&tb_->pg_sf1(), Mix({6}, 1.0));
  ASSERT_EQ(q1.size(), 1u);
  memo.Lock().Insert(StatementMemo::MakeKey(q1[0], params), 1.0, "a");
  memo.Lock().Insert(StatementMemo::MakeKey(q6[0], params), 6.0, "b");
  memo.Release(q1);

  // Q14 takes Q1's retired id, and Q1's entry is gone with it.
  const std::vector<uint32_t> q14 =
      memo.Intern(&tb_->pg_sf1(), Mix({14}, 1.0));
  EXPECT_EQ(q14, q1);
  StatementMemo::Value value;
  EXPECT_FALSE(memo.Lock().Find(StatementMemo::MakeKey(q14[0], params),
                                &value));
  ASSERT_TRUE(memo.Lock().Find(StatementMemo::MakeKey(q6[0], params), &value));
  EXPECT_EQ(value.native_cost, 6.0);
  EXPECT_EQ(*value.signature, "b");
}

TEST_F(StatementMemoTest, EvictionPastTheCapKeepsValuesExact) {
  std::vector<Tenant> tenants = {
      tb_->MakeTenant(tb_->pg_sf1(), Mix({1, 6}, 1.0))};
  WhatIfCostEstimator est(machine(), tenants);
  KeyCounter keys(machine());
  std::vector<ResourceVector> grid;
  for (int c = 5; c < 100; ++c) {
    for (int m = 5; m < 100; ++m) grid.push_back({c / 100.0, m / 100.0});
  }
  for (const ResourceVector& r : grid) keys.Add(tenants[0], r);
  ASSERT_GT(keys.size(), static_cast<long>(StatementMemo::kMaxSlots));

  std::vector<TenantAllocation> batch;
  for (const ResourceVector& r : grid) batch.push_back({0, r});
  const std::vector<double> first = est.EstimateMany(batch);
  EXPECT_EQ(est.optimizer_calls(), keys.size());

  // Re-price the oldest allocations with the allocation cache cleared:
  // their keys were evicted, so the optimizer runs again, to the same bits.
  est.InvalidateTenant(0);
  const long calls = est.optimizer_calls();
  for (size_t i = 0; i < 200; ++i) {
    EXPECT_EQ(est.EstimateSeconds(0, grid[i]), first[i]) << i;
    EXPECT_EQ(first[i], Oracle(machine(), tenants[0], grid[i]).seconds) << i;
  }
  EXPECT_GT(est.optimizer_calls(), calls);
}

TEST_F(StatementMemoTest, ScalarProbesRaceABatchOnSharedKeys) {
  std::vector<Tenant> tenants = {
      tb_->MakeTenant(tb_->pg_sf1(), Mix({1, 6, 14}, 1.0)),
      tb_->MakeTenant(tb_->pg_sf1(), Mix({14, 6, 1}, 2.0)),
      tb_->MakeTenant(tb_->db2_sf1(), Mix({6}, 1.0))};
  WhatIfEstimatorOptions options;
  options.batch_threads = 2;
  WhatIfCostEstimator est(machine(), tenants, options);
  std::vector<ResourceVector> grid;
  for (int c = 10; c <= 90; c += 10) grid.push_back({c / 100.0, 0.5});
  std::vector<double> scalar(grid.size());
  std::thread prober([&] {
    for (size_t i = 0; i < grid.size(); ++i) {
      scalar[i] = est.EstimateSeconds(1, grid[i]);
    }
  });
  std::vector<TenantAllocation> batch;
  for (const ResourceVector& r : grid) {
    batch.push_back({0, r});
    batch.push_back({2, r});
  }
  const std::vector<double> batched = est.EstimateMany(batch);
  prober.join();
  for (size_t i = 0; i < grid.size(); ++i) {
    EXPECT_EQ(scalar[i], Oracle(machine(), tenants[1], grid[i]).seconds);
    EXPECT_EQ(batched[2 * i], Oracle(machine(), tenants[0], grid[i]).seconds);
    EXPECT_EQ(batched[2 * i + 1],
              Oracle(machine(), tenants[2], grid[i]).seconds);
  }
}

}  // namespace
}  // namespace vdba::advisor
