// Test oracle for the "exhaustive" strategy: a plain walk over every grid
// allocation (step = options.delta, shares >= options.min_share, sums <= 1
// per resource), exponential in N x M. The DP in
// src/search/dp_prune_strategy.h must return this walk's answer bit for
// bit, ties included, so the suites that pin that property run both.
#ifndef VDBA_TESTS_GRID_ORACLE_H_
#define VDBA_TESTS_GRID_ORACLE_H_

#include <functional>
#include <limits>
#include <utility>
#include <vector>

#include "advisor/exhaustive_enumerator.h"
#include "advisor/search_strategy.h"
#include "util/check.h"
#include "util/status.h"

namespace vdba::advisor {

namespace grid_oracle_internal {

/// Enumerates share vectors (v_1..v_n), each a multiple of `delta`, all
/// >= min_share, summing to <= 1 + eps. Calls `emit` for each.
inline void EnumerateShares(int n, double delta, double min_share,
                            std::vector<double>* current,
                            const std::function<void()>& emit) {
  if (static_cast<int>(current->size()) == n) {
    emit();
    return;
  }
  double used = 0.0;
  for (double v : *current) used += v;
  int remaining = n - static_cast<int>(current->size());
  // Leave enough for the remaining tenants to reach min_share each.
  double max_here = 1.0 - used - min_share * (remaining - 1);
  for (double v = min_share; v <= max_here + 1e-9; v += delta) {
    current->push_back(v);
    EnumerateShares(n, delta, min_share, current, emit);
    current->pop_back();
  }
}

/// Recursive cartesian product over the per-dimension option lists, outer
/// loop on dimension 0 (cpu-outer / mem-inner order).
inline void ProductOverDims(
    const std::vector<std::vector<std::vector<double>>>& options_per_dim,
    int dim, int n, std::vector<simvm::ResourceVector>* alloc,
    const std::function<void()>& evaluate) {
  if (dim == static_cast<int>(options_per_dim.size())) {
    evaluate();
    return;
  }
  for (const auto& shares : options_per_dim[static_cast<size_t>(dim)]) {
    for (int i = 0; i < n; ++i) {
      (*alloc)[static_cast<size_t>(i)].set(dim, shares[static_cast<size_t>(i)]);
    }
    ProductOverDims(options_per_dim, dim + 1, n, alloc, evaluate);
  }
}

}  // namespace grid_oracle_internal

/// Walks every grid allocation for N tenants over `dims` dimensions and
/// returns the minimum; rejects N > 4. Candidates go to `f` in
/// `batch_size` chunks, scanned in grid order, so objective ties break
/// toward the earlier candidate. Pinned dimensions sit at 1/N.
inline StatusOr<SearchResult> ExhaustiveSearchBatched(
    int n, const BatchAllocationObjective& f, const EnumeratorOptions& options,
    int dims = 2, size_t batch_size = 512) {
  using grid_oracle_internal::EnumerateShares;
  using grid_oracle_internal::ProductOverDims;
  if (n < 1) return Status::InvalidArgument("need at least one tenant");
  if (n > 4) {
    return Status::InvalidArgument(
        "exhaustive search rejects N > 4 (use LocalSearch)");
  }
  VDBA_CHECK_GT(dims, 0);
  VDBA_CHECK_LE(dims, simvm::kMaxResourceDims);
  VDBA_CHECK_GT(batch_size, 0u);
  SearchResult best;
  best.objective = std::numeric_limits<double>::infinity();

  // Feasible share vectors of one allocated dimension (shared by all).
  std::vector<std::vector<double>> allocated_options;
  std::vector<double> scratch;
  EnumerateShares(n, options.delta, options.min_share, &scratch, [&] {
    allocated_options.push_back(scratch);
  });

  // Per-dimension option lists: pinned dimensions keep the 1/N default.
  std::vector<std::vector<std::vector<double>>> options_per_dim(
      static_cast<size_t>(dims));
  for (int dim = 0; dim < dims; ++dim) {
    if (options.Allocates(dim)) {
      options_per_dim[static_cast<size_t>(dim)] = allocated_options;
    } else {
      options_per_dim[static_cast<size_t>(dim)] = {
          std::vector<double>(static_cast<size_t>(n), 1.0 / n)};
    }
  }

  std::vector<std::vector<simvm::ResourceVector>> pending;
  pending.reserve(batch_size);
  auto flush = [&] {
    if (pending.empty()) return;
    std::vector<double> objs = f(pending);
    for (size_t k = 0; k < pending.size(); ++k) {
      ++best.evaluations;
      if (objs[k] < best.objective) {
        best.objective = objs[k];
        best.allocations = std::move(pending[k]);
      }
    }
    pending.clear();
  };
  std::vector<simvm::ResourceVector> alloc(
      static_cast<size_t>(n), simvm::ResourceVector::Uniform(dims, 1.0 / n));
  ProductOverDims(options_per_dim, 0, n, &alloc, [&] {
    pending.push_back(alloc);
    if (pending.size() >= batch_size) flush();
  });
  flush();
  if (best.allocations.empty()) {
    return Status::Infeasible("no feasible grid allocation");
  }
  return best;
}

/// Scalar-objective overload: same walk, same order, same tie-break.
inline StatusOr<SearchResult> ExhaustiveSearch(int n,
                                               const AllocationObjective& f,
                                               const EnumeratorOptions& options,
                                               int dims = 2) {
  return ExhaustiveSearchBatched(n, BatchedObjective(f), options, dims);
}

/// The grid walk behind the SearchStrategy contract, for comparison with
/// the "exhaustive" key: pinned dimensions take the `initial` shares when
/// one is given (substituted into every candidate BEFORE scoring, since
/// estimates are not separable across dimensions), and the answer goes
/// through the shared FinalizeEnumeration. Aborts on N > 4 or an empty
/// grid.
inline EnumerationResult GridWalkEnumerate(
    CostEstimator* estimator, const std::vector<QosSpec>& qos,
    const EnumeratorOptions& options,
    std::vector<simvm::ResourceVector> initial = {}) {
  const int n = estimator->num_tenants();
  const int dims = estimator->num_dims();
  VDBA_CHECK_EQ(qos.size(), static_cast<size_t>(n));
  if (!initial.empty()) VDBA_CHECK_EQ(initial.size(), static_cast<size_t>(n));

  auto pin = [&](std::vector<simvm::ResourceVector> alloc) {
    if (initial.empty()) return alloc;
    for (int i = 0; i < n; ++i) {
      for (int d = 0; d < dims; ++d) {
        if (!options.Allocates(d)) {
          alloc[static_cast<size_t>(i)].set(
              d, initial[static_cast<size_t>(i)].share(d));
        }
      }
    }
    return alloc;
  };
  BatchAllocationObjective batched = EstimatorObjective(estimator, qos);
  BatchAllocationObjective pinned =
      [&](const std::vector<std::vector<simvm::ResourceVector>>& batch) {
        std::vector<std::vector<simvm::ResourceVector>> patched;
        patched.reserve(batch.size());
        for (const auto& alloc : batch) patched.push_back(pin(alloc));
        return batched(patched);
      };
  StatusOr<SearchResult> res =
      ExhaustiveSearchBatched(n, pinned, options, dims);
  VDBA_CHECK_MSG(res.ok(), "grid walk failed: %s",
                 res.status().ToString().c_str());
  EnumerationResult result = FinalizeEnumeration(
      estimator, qos, pin(std::move(res.value().allocations)));
  result.iterations = static_cast<int>(res.value().evaluations);
  result.converged = true;
  return result;
}

}  // namespace vdba::advisor

#endif  // VDBA_TESTS_GRID_ORACLE_H_
