// Shared allocation arithmetic for every enumerator and search strategy.
//
// All of them move shares in delta steps inside the per-dimension box
// [min_share, 1]; centralizing the feasibility tests (and their epsilon)
// keeps greedy, exhaustive, local search, and feasibility restoration in
// exact agreement about which moves are legal. The same applies to move
// *generation*: MoveFrontier materializes every feasible single-delta
// probe of every tenant, which is what the enumerators hand to
// CostEstimator::EstimateMany in one cross-tenant fan-out.
#ifndef VDBA_ADVISOR_ALLOCATION_H_
#define VDBA_ADVISOR_ALLOCATION_H_

#include <array>
#include <vector>

#include "simvm/resource_vector.h"

namespace vdba::advisor {

/// Slack used by every share-boundary comparison.
inline constexpr double kShareEpsilon = 1e-9;

/// Knobs of the enumeration (and of the allocation moves in general).
struct EnumeratorOptions {
  /// Share moved per iteration (the paper's delta; default 5%). Used for
  /// every dimension whose `deltas` schedule is empty.
  double delta = 0.05;
  /// A VM cannot drop below this share of any allocated resource (a VM
  /// with 0% CPU or memory cannot run at all).
  double min_share = 0.05;
  /// Hard cap on iterations (the paper observed convergence in <= 8).
  int max_iterations = 200;
  /// Per-dimension enablement: allocate[d] == false pins dimension d at
  /// its starting share. CPU-only experiments (§7.3, §7.6) pin memory.
  /// Every dimension starts enabled, however many exist.
  std::array<bool, simvm::kMaxResourceDims> allocate = [] {
    std::array<bool, simvm::kMaxResourceDims> a{};
    a.fill(true);
    return a;
  }();
  /// Per-dimension coarse-to-fine delta schedules. deltas[d] lists the
  /// step sizes dimension d anneals through (coarsest first); an empty
  /// list means `delta` throughout. The greedy search starts every
  /// dimension at stage 0 and, once no move at the current steps improves
  /// the objective, advances to the next stage (dimensions with shorter
  /// schedules stay at their finest step); it terminates when the last
  /// stage has no improving move. Cheap dimensions converge in a few
  /// coarse steps while contended ones keep refining.
  std::array<std::vector<double>, simvm::kMaxResourceDims> deltas{};

  /// Whether dimension `dim` is under the enumerator's control.
  /// Out-of-range dims (negative or >= kMaxResourceDims) are never
  /// allocated rather than reading past the array.
  bool Allocates(int dim) const {
    return dim >= 0 && dim < simvm::kMaxResourceDims &&
           allocate[static_cast<size_t>(dim)];
  }

  /// Step size of dimension `dim` at annealing stage `stage` (clamped to
  /// the schedule's last entry; `delta` when the schedule is empty).
  double DeltaAt(int dim, int stage) const;

  /// Number of annealing stages: the longest per-dimension schedule, and
  /// at least 1 (the plain single-delta search).
  int NumStages() const;

  /// Finest step of dimension `dim` (the last schedule entry).
  double FinestDelta(int dim) const { return DeltaAt(dim, NumStages() - 1); }
};

/// One candidate single-delta move in the cross-tenant frontier: tenant
/// `tenant` raising (up) or lowering dimension `dim` by `delta`, landing
/// at allocation `r`.
struct CandidateMove {
  int tenant = 0;
  int dim = 0;
  bool up = false;
  double delta = 0.0;
  simvm::ResourceVector r;
};

/// Every feasible +/- delta probe of every tenant at `allocations` — the
/// full cross-tenant move frontier of one greedy iteration, in (tenant,
/// dim, up-before-down) order. Step sizes come from the stage-`stage`
/// entry of each dimension's schedule.
std::vector<CandidateMove> MoveFrontier(
    const std::vector<simvm::ResourceVector>& allocations,
    const EnumeratorOptions& options, int dims, int stage = 0);

/// Every feasible pairwise transfer at `allocations`: for each allocated
/// dimension at its finest step, in (dim, from, to) order, the allocations
/// with `from` lowered and `to` raised by that step. The move graph that
/// LocalSearchBatched and the annealing strategy both explore.
std::vector<std::vector<simvm::ResourceVector>> PairwiseFrontier(
    const std::vector<simvm::ResourceVector>& allocations,
    const EnumeratorOptions& options);

/// Equal 1/N shares for N tenants over `dims` dimensions (the paper's
/// default allocation, which every experiment uses as the baseline).
std::vector<simvm::ResourceVector> DefaultAllocation(int n, int dims = 2);

/// True when dimension `dim` of `r` can absorb +delta without exceeding a
/// full share.
bool CanRaise(const simvm::ResourceVector& r, int dim, double delta);

/// True when dimension `dim` of `r` can give up delta without dropping
/// below `min_share` (a VM with 0% of any resource cannot run at all).
bool CanLower(const simvm::ResourceVector& r, int dim, double delta,
              double min_share);

/// Copy of `r` with dimension `dim` raised by delta, clamped to 1.
simvm::ResourceVector Raised(const simvm::ResourceVector& r, int dim,
                             double delta);

/// Copy of `r` with dimension `dim` lowered by delta.
simvm::ResourceVector Lowered(const simvm::ResourceVector& r, int dim,
                              double delta);

}  // namespace vdba::advisor

#endif  // VDBA_ADVISOR_ALLOCATION_H_
