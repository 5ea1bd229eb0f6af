#include "advisor/allocation.h"

#include <algorithm>

#include "util/check.h"

namespace vdba::advisor {

double EnumeratorOptions::DeltaAt(int dim, int stage) const {
  VDBA_CHECK_GE(stage, 0);
  if (!Allocates(dim)) return delta;
  const std::vector<double>& schedule = deltas[static_cast<size_t>(dim)];
  if (schedule.empty()) return delta;
  size_t s = std::min(static_cast<size_t>(stage), schedule.size() - 1);
  VDBA_CHECK_GT(schedule[s], 0.0);
  return schedule[s];
}

int EnumeratorOptions::NumStages() const {
  size_t stages = 1;
  for (const std::vector<double>& schedule : deltas) {
    stages = std::max(stages, schedule.size());
  }
  return static_cast<int>(stages);
}

std::vector<CandidateMove> MoveFrontier(
    const std::vector<simvm::ResourceVector>& allocations,
    const EnumeratorOptions& options, int dims, int stage) {
  std::vector<CandidateMove> frontier;
  frontier.reserve(allocations.size() * static_cast<size_t>(2 * dims));
  for (size_t i = 0; i < allocations.size(); ++i) {
    const simvm::ResourceVector& r = allocations[i];
    for (int dim = 0; dim < dims; ++dim) {
      if (!options.Allocates(dim)) continue;
      const double delta = options.DeltaAt(dim, stage);
      if (CanRaise(r, dim, delta)) {
        frontier.push_back(CandidateMove{static_cast<int>(i), dim, true,
                                         delta, Raised(r, dim, delta)});
      }
      if (CanLower(r, dim, delta, options.min_share)) {
        frontier.push_back(CandidateMove{static_cast<int>(i), dim, false,
                                         delta, Lowered(r, dim, delta)});
      }
    }
  }
  return frontier;
}

std::vector<std::vector<simvm::ResourceVector>> PairwiseFrontier(
    const std::vector<simvm::ResourceVector>& allocations,
    const EnumeratorOptions& options) {
  const size_t n = allocations.size();
  const int dims = allocations.front().dims();
  std::vector<std::vector<simvm::ResourceVector>> frontier;
  for (int dim = 0; dim < dims; ++dim) {
    if (!options.Allocates(dim)) continue;
    const double delta = options.FinestDelta(dim);
    for (size_t from = 0; from < n; ++from) {
      if (!CanLower(allocations[from], dim, delta, options.min_share)) {
        continue;
      }
      for (size_t to = 0; to < n; ++to) {
        if (from == to || !CanRaise(allocations[to], dim, delta)) continue;
        std::vector<simvm::ResourceVector> candidate = allocations;
        candidate[from] = Lowered(candidate[from], dim, delta);
        candidate[to] = Raised(candidate[to], dim, delta);
        frontier.push_back(std::move(candidate));
      }
    }
  }
  return frontier;
}

std::vector<simvm::ResourceVector> DefaultAllocation(int n, int dims) {
  VDBA_CHECK_GT(n, 0);
  return std::vector<simvm::ResourceVector>(
      static_cast<size_t>(n), simvm::ResourceVector::Uniform(dims, 1.0 / n));
}

bool CanRaise(const simvm::ResourceVector& r, int dim, double delta) {
  return r[dim] + delta <= 1.0 + kShareEpsilon;
}

bool CanLower(const simvm::ResourceVector& r, int dim, double delta,
              double min_share) {
  return r[dim] - delta >= min_share - kShareEpsilon;
}

simvm::ResourceVector Raised(const simvm::ResourceVector& r, int dim,
                             double delta) {
  simvm::ResourceVector up = r;
  up.set(dim, std::min(1.0, r[dim] + delta));
  return up;
}

simvm::ResourceVector Lowered(const simvm::ResourceVector& r, int dim,
                              double delta) {
  simvm::ResourceVector down = r;
  down.set(dim, r[dim] - delta);
  return down;
}

}  // namespace vdba::advisor
