// §7.2: cost of the calibration process and of the search algorithm.
// Paper: DB2 calibration < 6 min, PostgreSQL < 9 min (one-time);
// greedy converges in <= 8 iterations, < 2 min with optimizer calls,
// < 1 min for refinement re-runs (no optimizer calls).
#include <cstdio>

#include "advisor/advisor.h"
#include "advisor/greedy_enumerator.h"
#include "advisor/fitted_cost_model.h"
#include "bench_common.h"
#include "workload/tpch.h"

using namespace vdba;         // NOLINT
using namespace vdba::bench;  // NOLINT

int main() {
  PrintHeader("Section 7.2 (calibration & search costs)",
              "calibration: <6 min (DB2), <9 min (PG); greedy <= 8 "
              "iterations; refinement search needs no optimizer calls");
  scenario::Testbed& tb = SharedTestbed();

  TablePrinter t({"step", "simulated cost", "paper"});
  t.AddRow({"PostgreSQL calibration (one-time)",
            TablePrinter::Num(tb.pg_calibration_seconds() / 60.0, 1) + " min",
            "< 9 min"});
  t.AddRow({"DB2 calibration (one-time)",
            TablePrinter::Num(tb.db2_calibration_seconds() / 60.0, 1) + " min",
            "< 6 min"});

  // Initial recommendation: greedy with optimizer calls.
  simdb::Workload w1, w2, w3;
  w1.AddStatement(workload::TpchQuery(tb.tpch_sf1(), 18), 10.0);
  w2.AddStatement(workload::TpchQuery(tb.tpch_sf1(), 21), 10.0);
  w3.AddStatement(workload::TpchQuery(tb.tpch_sf1(), 1), 10.0);
  std::vector<advisor::Tenant> tenants = {tb.MakeTenant(tb.db2_sf1(), w1),
                                          tb.MakeTenant(tb.db2_sf1(), w2),
                                          tb.MakeTenant(tb.db2_sf1(), w3)};
  advisor::VirtualizationDesignAdvisor adv(tb.machine(), tenants);
  advisor::Recommendation rec = adv.Recommend();
  t.AddRow({"greedy search iterations", std::to_string(rec.iterations),
            "<= 8 (delta=5%)"});
  t.AddRow({"optimizer calls during search",
            std::to_string(adv.estimator()->optimizer_calls()),
            "cached and reused"});
  t.AddRow({"statements served by the statement memo",
            std::to_string(adv.estimator()->statement_hits()),
            "exact (engine, statement, params) repeats"});
  t.AddRow({"estimator cache hits",
            std::to_string(adv.estimator()->cache_hits()), "-"});

  // Refinement-style search over fitted models: zero optimizer calls.
  std::vector<advisor::FittedCostModel> models;
  std::vector<const advisor::FittedCostModel*> ptrs;
  for (int i = 0; i < 3; ++i) {
    models.push_back(advisor::FittedCostModel::FromObservations(
        adv.estimator()->observations(i)));
  }
  for (auto& m : models) ptrs.push_back(&m);
  long calls_before = adv.estimator()->optimizer_calls();
  advisor::ModelCostEstimator model_est(ptrs);
  advisor::GreedyEnumerator greedy;
  auto res = greedy.Run(&model_est, adv.QosList());
  t.AddRow({"refinement-search iterations", std::to_string(res.iterations),
            "<= 8"});
  t.AddRow({"optimizer calls during refinement search",
            std::to_string(adv.estimator()->optimizer_calls() - calls_before),
            "0 (model-based)"});
  t.Print();
  PrintFooter();
  return 0;
}
