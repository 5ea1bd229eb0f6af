// Self-test of the benchmark's own machinery: the seeded generator, the
// percentile rule and the output checks. Exits 0 when every case holds.
//
//   python3 svcbench/run.py --selftest
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "checks.h"
#include "fleet.h"
#include "measure.h"
#include "service/advisor_service.h"

namespace svcbench {
namespace {

int failures = 0;

void Expect(bool ok, const char* what) {
  std::printf("%s  %s\n", ok ? "ok  " : "FAIL", what);
  if (!ok) ++failures;
}

bool SameTenant(const vdba::advisor::Tenant& a, const vdba::advisor::Tenant& b) {
  return a.engine == b.engine && a.qos.degradation_limit == b.qos.degradation_limit &&
         a.qos.gain_factor == b.qos.gain_factor && SameWorkload(a.workload, b.workload);
}

/// How many entries of `tenants` are the same tenant as `t`.
int Copies(const std::vector<vdba::advisor::Tenant>& tenants,
           const vdba::advisor::Tenant& t) {
  int copies = 0;
  for (const auto& other : tenants) copies += SameTenant(other, t);
  return copies;
}

bool SameSchedule(const Schedule& a, const Schedule& b) {
  if (a.prefill.size() != b.prefill.size() || a.events.size() != b.events.size()) {
    return false;
  }
  for (size_t i = 0; i < a.prefill.size(); ++i) {
    if (!SameTenant(a.prefill[i], b.prefill[i])) return false;
  }
  for (size_t i = 0; i < a.events.size(); ++i) {
    const ScheduledEvent& x = a.events[i];
    const ScheduledEvent& y = b.events[i];
    if (x.kind != y.kind || x.tenant_id != y.tenant_id ||
        !SameWorkload(x.workload, y.workload)) {
      return false;
    }
  }
  return true;
}

void TestSchedules(const vdba::scenario::Testbed& tb) {
  const Schedule a = MakeDriftSchedule(tb, 7, 200);
  Expect(SameSchedule(a, MakeDriftSchedule(tb, 7, 200)),
         "drift_burst: the same seed gives the same schedule");
  Expect(!SameSchedule(a, MakeDriftSchedule(tb, 8, 200)),
         "drift_burst: another seed gives another schedule");
  const auto sets = MakeTenantSets(tb, 7, 2);
  const auto again = MakeTenantSets(tb, 7, 2);
  bool same = true, differs = false;
  for (size_t i = 0; i < sets[0].size(); ++i) {
    same = same && SameTenant(sets[1][i], again[1][i]);
    differs = differs || !SameTenant(sets[0][i], sets[1][i]);
  }
  Expect(same && differs, "batch_solve: the same seed gives the same tenant sets");

  // Every block of kTenants draws is the FleetTenants population.
  const std::vector<vdba::advisor::Tenant> population = FleetTenants(tb);
  bool same_population = true;
  for (const auto& set : {a.prefill, sets[0], sets[1]}) {
    for (const auto& t : population) {
      same_population = same_population && Copies(set, t) == Copies(population, t);
    }
  }
  Expect(same_population, "every prefill and tenant set is the same population");
}

void TestPercentile() {
  std::vector<double> samples;
  for (int i = 1; i <= 99; ++i) samples.push_back(i);
  double p = 0.0;
  Expect(!Percentile(samples, 0.9, &p), "p90 of 99 samples is refused");
  samples.push_back(100);
  Expect(Percentile(samples, 0.9, &p) && p == 90.0,
         "p90 of 100 samples is the 90th, with 10 beyond it");
  std::vector<double> few(19, 1.0);
  Expect(!Percentile(few, 0.5, &p), "p50 of 19 samples is refused");
  few.push_back(2.0);
  Expect(Percentile(few, 0.5, &p) && p == 1.0, "p50 of 20 samples is given");
}

void TestChecks(const FleetClasses& classes) {
  const std::vector<vdba::advisor::FleetMachine> fleet = MakeFleet(classes);
  const Schedule schedule = MakeDriftSchedule(classes.home(), 3, 0);
  std::vector<vdba::advisor::Tenant> tenants(schedule.prefill.begin(),
                                             schedule.prefill.begin() + 12);
  std::vector<bool> active(tenants.size(), true);
  vdba::service::AdvisorService svc(fleet);
  for (const vdba::advisor::Tenant& t : tenants) svc.SubmitArrival(t).get();
  svc.SubmitDeparture(5).get();
  active[5] = false;
  const vdba::service::FleetSnapshot snap = svc.Snapshot();
  const FleetState good = StateOf(snap);
  Expect(CheckState(good, kMachines, tenants, active).empty(),
         "checker accepts the service's own snapshot");

  FleetState s = good;
  s.objective *= 1.0 + 1e-15;
  Expect(CheckState(s, kMachines, tenants, active).empty(),
         "checker tolerates summation-order rounding in the objective");
  s = good;
  s.objective *= 1.0 + 1e-6;
  Expect(!CheckState(s, kMachines, tenants, active).empty(),
         "checker rejects a wrong objective");
  s = good;
  s.objective = NAN;
  Expect(!CheckState(s, kMachines, tenants, active).empty(),
         "checker rejects a non-finite objective");
  s = good;
  s.allocations[0].set(0, 1.5);
  Expect(!CheckState(s, kMachines, tenants, active).empty(),
         "checker rejects a share above 1");
  s = good;
  s.allocations[0].set(1, 0.0);
  Expect(!CheckState(s, kMachines, tenants, active).empty(),
         "checker rejects a zero share");
  s = good;
  s.assignment[1] = kMachines;
  Expect(!CheckState(s, kMachines, tenants, active).empty(),
         "checker rejects an invalid machine");
  s = good;
  s.assignment[5] = 0;
  Expect(!CheckState(s, kMachines, tenants, active).empty(),
         "checker rejects a departed tenant left on a machine");

  vdba::service::FleetSnapshot other = snap;
  Expect(SnapshotsBitIdentical(snap, other), "identical snapshots compare equal");
  other.estimated_seconds[0] = std::nextafter(other.estimated_seconds[0], 0.0);
  Expect(!SnapshotsBitIdentical(snap, other), "a one-ulp change is detected");

  FleetState sums;
  sums.assignment = {0, 0, 1};
  sums.allocations = {vdba::simvm::ResourceVector{0.7, 0.5},
                      vdba::simvm::ResourceVector{0.4, 0.5},
                      vdba::simvm::ResourceVector{0.2, 0.2}};
  Expect(std::abs(MaxShareSum(sums, 2) - 1.1) < 1e-12,
         "largest per-machine share sum is found");
}

}  // namespace
}  // namespace svcbench

int main() {
  const svcbench::FleetClasses classes = svcbench::MakeFleetClasses();
  svcbench::TestSchedules(classes.home());
  svcbench::TestPercentile();
  svcbench::TestChecks(classes);
  std::printf("%d failure(s)\n", svcbench::failures);
  return svcbench::failures == 0 ? 0 : 1;
}
