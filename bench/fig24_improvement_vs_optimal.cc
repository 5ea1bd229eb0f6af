// Figure 24: actual performance improvement of the advisor's CPU
// allocation vs the optimal allocation, for N = 2..10 PostgreSQL TPC-H
// workloads. "Optimal" is found through the SearchStrategy registry over
// an estimator that answers with MEASURED costs: the "exhaustive"
// strategy (the exact grid argmin, with the experiment memory pinned) at
// every N, standing in for the paper's brute-force measurement. The grid
// is min_share + k * delta and the advisor's answer can lie off it (it
// starts from 1/N), so the best known allocation is the better of the
// two.
// Also prints the D1 ablation: estimating with default (uncalibrated)
// parameters instead of the calibrated what-if mapping.
#include <algorithm>
#include <cstdio>

#include "advisor/advisor.h"
#include "bench_common.h"
#include "workload/generator.h"
#include "workload/units.h"

using namespace vdba;         // NOLINT
using namespace vdba::bench;  // NOLINT

namespace {

/// D1 ablation estimator: what-if calls under DEFAULT engine parameters,
/// ignoring the candidate allocation entirely (no calibration mapping).
class NoWhatIfEstimator : public advisor::CostEstimator {
 public:
  explicit NoWhatIfEstimator(std::vector<advisor::Tenant> tenants)
      : tenants_(std::move(tenants)) {}
  double EstimateSeconds(int tenant, const simvm::ResourceVector&) override {
    const advisor::Tenant& t = tenants_[static_cast<size_t>(tenant)];
    double total = 0.0;
    for (const auto& s : t.workload.statements) {
      total += t.calibration->ToSeconds(
                   t.engine->WhatIfOptimize(s.query, t.engine->DefaultParams())
                       .native_cost) *
               s.frequency;
    }
    return total;
  }
  int num_tenants() const override {
    return static_cast<int>(tenants_.size());
  }
  int num_dims() const override { return 2; }

 private:
  std::vector<advisor::Tenant> tenants_;
};

/// Oracle estimator: answers every probe with the tenant's noise-free
/// MEASURED completion time on the simulated testbed. Feeding it to a
/// registered search strategy turns that strategy into an optimal-
/// allocation search on actuals (total objective = TrueTotalSeconds,
/// since gains are 1 and actual costs add per tenant).
class ActualCostEstimator : public advisor::CostEstimator {
 public:
  ActualCostEstimator(const scenario::Testbed& tb,
                      std::vector<advisor::Tenant> tenants)
      : tb_(tb), tenants_(std::move(tenants)) {}
  double EstimateSeconds(int tenant, const simvm::ResourceVector& r) override {
    return tb_.TrueSeconds(tenants_[static_cast<size_t>(tenant)], r);
  }
  int num_tenants() const override {
    return static_cast<int>(tenants_.size());
  }
  int num_dims() const override { return 2; }

 private:
  const scenario::Testbed& tb_;
  std::vector<advisor::Tenant> tenants_;
};

}  // namespace

int main() {
  PrintHeader("Figure 24 (advisor vs optimal, PostgreSQL TPC-H)",
              "advisor's actual improvement is near the optimal allocation's "
              "improvement for every N");
  scenario::Testbed& tb = SharedTestbed();
  Rng rng(20080610);

  simdb::Workload q17_unit = workload::MakeRepeatedQueryWorkload(
      "q17", workload::TpchQuery(tb.tpch_sf10(), 17), 1.0);
  simdb::QuerySpec q18m = workload::TpchQuery18Modified(tb.tpch_sf10());
  simdb::Workload q18m_unit = workload::MakeRepeatedQueryWorkload(
      "q18m", q18m,
      workload::CopiesToMatch(tb.pg_sf10(), q18m, tb.CpuUnitEnv(),
                              scenario::Testbed::kCpuExperimentMemoryMb,
                              tb.hypervisor()->TrueWorkloadSeconds(
                                  tb.pg_sf10(), q17_unit,
                                  {1.0, tb.CpuExperimentMemShare()})));
  workload::UnitMixOptions mix_opts;
  auto mixes =
      workload::MakeRandomUnitMixes(q17_unit, q18m_unit, mix_opts, &rng);

  TablePrinter t({"N", "advisor improvement", "optimal improvement",
                  "no-what-if ablation (D1)"});
  for (int n = 2; n <= 10; ++n) {
    std::vector<advisor::Tenant> tenants;
    for (int i = 0; i < n; ++i) {
      tenants.push_back(
          tb.MakeTenant(tb.pg_sf10(), mixes[static_cast<size_t>(i)]));
    }
    advisor::AdvisorOptions opts;  // strategy: greedy
    opts.search.enumerator.allocate[simvm::kMemDim] = false;
    advisor::VirtualizationDesignAdvisor adv(tb.machine(), tenants, opts);
    auto init = CpuExperimentDefault(n);
    auto rec = adv.MakeStrategy()->Run(adv.estimator(), adv.QosList(), init);

    auto actual_total = [&](const std::vector<simvm::ResourceVector>& a) {
      return tb.TrueTotalSeconds(tenants, a);
    };
    double t_def = actual_total(init);
    double adv_imp = (t_def - actual_total(rec.allocations)) / t_def;

    // Optimal on actuals, through the registry. "exhaustive" pins the
    // non-allocated dimensions from `init`, keeping the experiment's fixed
    // memory share.
    advisor::SearchSpec optimal_spec = opts.search;
    optimal_spec.strategy = "exhaustive";
    ActualCostEstimator actuals(tb, tenants);
    double opt_objective = std::min(
        advisor::MakeSearchStrategy(optimal_spec)
            ->Run(&actuals, adv.QosList(), init)
            .objective,
        actual_total(rec.allocations));
    double opt_imp = (t_def - opt_objective) / t_def;

    // D1 ablation: no what-if mapping.
    NoWhatIfEstimator ablation(tenants);
    auto abl = adv.MakeStrategy()->Run(&ablation, adv.QosList(), init);
    double abl_imp = (t_def - actual_total(abl.allocations)) / t_def;

    t.AddRow({std::to_string(n), TablePrinter::Pct(adv_imp, 1),
              TablePrinter::Pct(opt_imp, 1), TablePrinter::Pct(abl_imp, 1)});
  }
  t.Print();
  PrintFooter();
  return 0;
}
