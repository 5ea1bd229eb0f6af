// Local search over the allocation simplex, and the objective adapters
// every allocation search shares.
//
// The paper reports "optimal" actual improvements found by measuring
// allocations (§7.6-7.7). The exact grid argmin over estimates is the
// "exhaustive" strategy (search_strategy.h, a DP at any N); the
// multi-start hill climbing here uses the same delta moves as greedy and
// serves callers that search over MEASURED costs from an arbitrary start
// (the multi-resource and refinement benches). EstimatorObjective is also
// annealing's batched objective. Everything here is dimension-generic.
#ifndef VDBA_ADVISOR_EXHAUSTIVE_ENUMERATOR_H_
#define VDBA_ADVISOR_EXHAUSTIVE_ENUMERATOR_H_

#include <functional>
#include <vector>

#include "advisor/cost_estimator.h"
#include "advisor/greedy_enumerator.h"
#include "advisor/qos.h"
#include "simvm/resource_vector.h"

namespace vdba::advisor {

/// Objective over a full allocation vector (total weighted cost; smaller is
/// better). May be backed by estimates or by actual measurements.
using AllocationObjective =
    std::function<double(const std::vector<simvm::ResourceVector>&)>;

/// Objective over MANY full allocation vectors at once; element k is the
/// objective of batch[k]. Lets local search hand a whole move frontier to
/// a parallel estimator (CostEstimator::EstimateMany) in one fan-out.
using BatchAllocationObjective = std::function<std::vector<double>(
    const std::vector<std::vector<simvm::ResourceVector>>&)>;

/// Adapts a scalar objective to the batched interface (sequential loop).
BatchAllocationObjective BatchedObjective(AllocationObjective f);

/// Batched objective backed by a cost estimator: every (candidate, tenant)
/// probe of the batch goes through one EstimateMany call, and candidate
/// objectives are the gain-weighted per-tenant sums. `qos` may be empty
/// (all gain factors 1).
BatchAllocationObjective EstimatorObjective(CostEstimator* estimator,
                                            std::vector<QosSpec> qos = {});

/// Best allocation found plus its objective value.
struct SearchResult {
  std::vector<simvm::ResourceVector> allocations;
  double objective = 0.0;
  long evaluations = 0;
};

/// Multi-start hill climbing with single-delta moves (the same move set as
/// the greedy enumerator) from `starts`; returns the best local optimum.
/// Each pass evaluates the full pairwise move frontier and applies the
/// steepest improving move. The scalar overload evaluates candidates one
/// by one; LocalSearchBatched hands each pass's frontier to `f` in one
/// call (pair it with EstimatorObjective for cross-tenant fan-out).
SearchResult LocalSearch(
    const std::vector<std::vector<simvm::ResourceVector>>& starts,
    const AllocationObjective& f, const EnumeratorOptions& options);

SearchResult LocalSearchBatched(
    const std::vector<std::vector<simvm::ResourceVector>>& starts,
    const BatchAllocationObjective& f, const EnumeratorOptions& options);

}  // namespace vdba::advisor

#endif  // VDBA_ADVISOR_EXHAUSTIVE_ENUMERATOR_H_
