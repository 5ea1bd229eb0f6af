#include "checks.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>

namespace svcbench {

using vdba::advisor::FleetRecommendation;
using vdba::advisor::Tenant;
using vdba::service::FleetSnapshot;

FleetState StateOf(const FleetSnapshot& snap) {
  return FleetState{snap.assignment, snap.allocations, snap.estimated_seconds,
                    snap.objective};
}

FleetState StateOf(const FleetRecommendation& rec) {
  return FleetState{rec.assignment, rec.allocations, rec.estimated_seconds,
                    rec.total_cost};
}

std::string CheckState(const FleetState& state, int machines,
                       const std::vector<Tenant>& tenants,
                       const std::vector<bool>& active) {
  const size_t n = tenants.size();
  if (state.assignment.size() != n || state.allocations.size() != n ||
      state.estimated_seconds.size() != n || active.size() != n) {
    return "state covers " + std::to_string(state.assignment.size()) +
           " tenant ids, expected " + std::to_string(n);
  }
  double expected = 0.0;
  for (size_t id = 0; id < n; ++id) {
    const int m = state.assignment[id];
    const std::string who = "tenant " + std::to_string(id);
    if (!active[id]) {
      if (m != -1) return who + " departed but is still on machine " +
                          std::to_string(m);
      continue;
    }
    if (m < 0 || m >= machines) {
      return who + " is on invalid machine " + std::to_string(m);
    }
    const vdba::simvm::ResourceVector& r = state.allocations[id];
    if (r.dims() == 0) return who + " has no allocation";
    for (int d = 0; d < r.dims(); ++d) {
      if (!(r.share(d) > 0.0 && r.share(d) <= 1.0)) {
        return who + " has share " + std::to_string(r.share(d)) +
               " outside (0, 1] on dimension " + std::to_string(d);
      }
    }
    const double seconds = state.estimated_seconds[id];
    if (!std::isfinite(seconds) || seconds <= 0.0) {
      return who + " has estimated seconds " + std::to_string(seconds);
    }
    expected += tenants[id].qos.gain_factor * seconds;
  }
  if (!std::isfinite(state.objective)) return "objective is not finite";
  if (std::abs(state.objective - expected) >
      kObjectiveRelTol * std::max(1.0, std::abs(expected))) {
    char buf[160];
    std::snprintf(buf, sizeof buf,
                  "objective %.17g differs from sum(gain x seconds) %.17g",
                  state.objective, expected);
    return buf;
  }
  return "";
}

double MaxShareSum(const FleetState& state, int machines) {
  double worst = 0.0;
  for (int m = 0; m < machines; ++m) {
    for (int d = 0; d < vdba::simvm::kMaxResourceDims; ++d) {
      double sum = 0.0;
      bool any = false;
      for (size_t id = 0; id < state.assignment.size(); ++id) {
        if (state.assignment[id] != m) continue;
        const vdba::simvm::ResourceVector& r = state.allocations[id];
        if (d >= r.dims()) continue;
        sum += r.share(d);
        any = true;
      }
      if (any) worst = std::max(worst, sum);
    }
  }
  return worst;
}

double BestAloneSeconds(const std::vector<vdba::advisor::FleetMachine>& fleet,
                        const std::vector<Tenant>& tenants,
                        const std::vector<bool>& active) {
  std::vector<Tenant> present;
  for (size_t id = 0; id < tenants.size(); ++id) {
    if (active[id]) present.push_back(tenants[id]);
  }
  const std::vector<std::vector<double>> demand =
      vdba::advisor::FleetAdvisor(fleet, present).ProbeDemandMatrix();
  double total = 0.0;
  for (size_t i = 0; i < present.size(); ++i) {
    total += present[i].qos.gain_factor *
             *std::min_element(demand[i].begin(), demand[i].end());
  }
  return total;
}

bool SnapshotsBitIdentical(const FleetSnapshot& a, const FleetSnapshot& b) {
  return a.assignment == b.assignment && a.allocations == b.allocations &&
         a.estimated_seconds == b.estimated_seconds &&
         a.violated_qos == b.violated_qos && a.objective == b.objective &&
         a.active_tenants == b.active_tenants &&
         a.events_handled == b.events_handled;
}

bool RecommendationsBitIdentical(const FleetRecommendation& a,
                                 const FleetRecommendation& b) {
  return a.assignment == b.assignment && a.allocations == b.allocations &&
         a.estimated_seconds == b.estimated_seconds &&
         a.violated_qos == b.violated_qos && a.total_cost == b.total_cost &&
         a.migrations == b.migrations &&
         a.migration_attempts == b.migration_attempts;
}

}  // namespace svcbench
