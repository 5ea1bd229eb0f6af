// Output checks: what must hold of every correct run, so that a failure
// points at a defect rather than at the benchmark.
#ifndef SVCBENCH_CHECKS_H_
#define SVCBENCH_CHECKS_H_

#include <string>
#include <vector>

#include "advisor/fleet_advisor.h"
#include "advisor/tenant.h"
#include "service/advisor_service.h"

namespace svcbench {

/// Relative tolerance of the objective identity. The service sums the
/// objective per machine, the check sums it per tenant; the two orders
/// differ in the last bits (about 1.5e-16 relative), never by more.
inline constexpr double kObjectiveRelTol = 1e-9;

/// Slack on a per-machine, per-dimension share sum.
inline constexpr double kShareSumTol = 1e-9;

/// Fleet state the checks read: one entry per tenant id ever admitted.
struct FleetState {
  std::vector<int> assignment;  // -1 = departed
  std::vector<vdba::simvm::ResourceVector> allocations;
  std::vector<double> estimated_seconds;
  double objective = 0.0;
};

FleetState StateOf(const vdba::service::FleetSnapshot& snap);
FleetState StateOf(const vdba::advisor::FleetRecommendation& rec);

/// Checks `state` against the tenants the benchmark submitted:
/// `tenants[id]` and `active[id]` for every id. Every active tenant sits
/// on a machine in [0, machines) with every share in (0, 1]; every
/// departed one is unassigned; the objective is finite and equals
/// sum(gain x estimated_seconds) within kObjectiveRelTol. Returns an
/// empty string when all hold, else what failed.
std::string CheckState(const FleetState& state, int machines,
                       const std::vector<vdba::advisor::Tenant>& tenants,
                       const std::vector<bool>& active);

/// Largest per-machine, per-dimension sum of the active tenants' shares.
/// A conserving allocator keeps it at most 1 (+ kShareSumTol).
double MaxShareSum(const FleetState& state, int machines);

/// sum(gain x seconds) of the active tenants, each alone on whichever
/// fleet machine runs it fastest: a lower bound on any fleet objective
/// that depends only on the tenants, not on placement or shares. Probed
/// through FleetAdvisor::ProbeDemandMatrix.
double BestAloneSeconds(const std::vector<vdba::advisor::FleetMachine>& fleet,
                        const std::vector<vdba::advisor::Tenant>& tenants,
                        const std::vector<bool>& active);

/// Bitwise equality of everything a schedule determines (the coalesced
/// drift count, which describes batching, is excluded).
bool SnapshotsBitIdentical(const vdba::service::FleetSnapshot& a,
                           const vdba::service::FleetSnapshot& b);

/// Bitwise equality of two fleet recommendations' assignment,
/// allocations, costs and objective.
bool RecommendationsBitIdentical(const vdba::advisor::FleetRecommendation& a,
                                 const vdba::advisor::FleetRecommendation& b);

}  // namespace svcbench

#endif  // SVCBENCH_CHECKS_H_
