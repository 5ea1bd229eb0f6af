#include "advisor/exhaustive_enumerator.h"

#include <limits>
#include <utility>

#include "advisor/allocation.h"
#include "util/check.h"

namespace vdba::advisor {

BatchAllocationObjective BatchedObjective(AllocationObjective f) {
  return [f = std::move(f)](
             const std::vector<std::vector<simvm::ResourceVector>>& batch) {
    std::vector<double> out;
    out.reserve(batch.size());
    for (const auto& alloc : batch) out.push_back(f(alloc));
    return out;
  };
}

BatchAllocationObjective EstimatorObjective(CostEstimator* estimator,
                                            std::vector<QosSpec> qos) {
  VDBA_CHECK(estimator != nullptr);
  return [estimator, qos = std::move(qos)](
             const std::vector<std::vector<simvm::ResourceVector>>& batch) {
    std::vector<TenantAllocation> probes;
    size_t total = 0;
    for (const auto& alloc : batch) total += alloc.size();
    probes.reserve(total);
    for (const auto& alloc : batch) {
      for (size_t i = 0; i < alloc.size(); ++i) {
        probes.push_back(TenantAllocation{static_cast<int>(i), alloc[i]});
      }
    }
    std::vector<double> ests = estimator->EstimateMany(probes);
    std::vector<double> out;
    out.reserve(batch.size());
    size_t k = 0;
    for (const auto& alloc : batch) {
      double obj = 0.0;
      for (size_t i = 0; i < alloc.size(); ++i) {
        double gain = i < qos.size() ? qos[i].gain_factor : 1.0;
        obj += gain * ests[k++];
      }
      out.push_back(obj);
    }
    return out;
  };
}

SearchResult LocalSearch(
    const std::vector<std::vector<simvm::ResourceVector>>& starts,
    const AllocationObjective& f, const EnumeratorOptions& options) {
  return LocalSearchBatched(starts, BatchedObjective(f), options);
}

SearchResult LocalSearchBatched(
    const std::vector<std::vector<simvm::ResourceVector>>& starts,
    const BatchAllocationObjective& f, const EnumeratorOptions& options) {
  VDBA_CHECK(!starts.empty());
  SearchResult best;
  best.objective = std::numeric_limits<double>::infinity();

  for (const auto& start : starts) {
    std::vector<simvm::ResourceVector> current = start;
    VDBA_CHECK(!current.empty());
    double current_obj = f({current}).front();
    ++best.evaluations;
    bool improved = true;
    int guard = 0;
    while (improved && guard++ < options.max_iterations) {
      improved = false;
      // Every feasible pairwise move, evaluated in one batched call — a
      // parallel estimator fans it all out at once.
      std::vector<std::vector<simvm::ResourceVector>> frontier =
          PairwiseFrontier(current, options);
      if (frontier.empty()) break;
      std::vector<double> objs = f(frontier);
      best.evaluations += static_cast<long>(frontier.size());
      size_t steepest = 0;
      for (size_t c = 1; c < frontier.size(); ++c) {
        if (objs[c] < objs[steepest]) steepest = c;
      }
      if (objs[steepest] + 1e-12 < current_obj) {
        current_obj = objs[steepest];
        current = std::move(frontier[steepest]);
        improved = true;
      }
    }
    if (current_obj < best.objective) {
      best.objective = current_obj;
      best.allocations = current;
    }
  }
  return best;
}

}  // namespace vdba::advisor
