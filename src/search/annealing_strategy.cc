#include "search/annealing_strategy.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "advisor/exhaustive_enumerator.h"
#include "util/check.h"
#include "util/rng.h"

namespace vdba::search {

namespace {

using advisor::BatchAllocationObjective;
using advisor::CostEstimator;
using advisor::DefaultAllocation;
using advisor::EnumerationResult;
using advisor::EstimatorObjective;
using advisor::QosSpec;
using simvm::ResourceVector;

/// Fixed seed: identical inputs must yield identical results run-to-run.
constexpr uint64_t kAnnealSeed = 0x5eedc0defee1deadULL;

/// Initial temperature as a fraction of the starting objective — uphill
/// moves a few percent of the objective start out likely to be accepted.
constexpr double kInitialTempFraction = 0.05;

/// Geometric cooling rate per iteration.
constexpr double kCoolingRate = 0.9;

/// Give up after this many iterations without a new best-seen.
constexpr int kStallLimit = 20;

/// Stop once the temperature is too cold to ever accept an uphill move.
constexpr double kTempFloorFraction = 1e-6;

int ClampToInt(long v) {
  return static_cast<int>(
      std::min<long>(v, std::numeric_limits<int>::max()));
}

}  // namespace

EnumerationResult AnnealingStrategy::Run(
    CostEstimator* estimator, const std::vector<QosSpec>& qos,
    std::vector<ResourceVector> initial) const {
  const int n = estimator->num_tenants();
  const int dims = estimator->num_dims();
  VDBA_CHECK_EQ(qos.size(), static_cast<size_t>(n));

  std::vector<ResourceVector> current =
      initial.empty() ? DefaultAllocation(n, dims) : std::move(initial);
  for (ResourceVector& r : current) r = r.Expanded(dims);

  BatchAllocationObjective objective = EstimatorObjective(estimator, qos);
  double current_obj = objective({current}).front();
  long evaluations = 1;

  std::vector<ResourceVector> best = current;
  double best_obj = current_obj;

  Rng rng(kAnnealSeed);
  double temperature = kInitialTempFraction * std::abs(current_obj);
  const double temp_floor = kTempFloorFraction * std::abs(current_obj);
  int stall = 0;
  for (int iter = 0;
       iter < options_.max_iterations && stall < kStallLimit &&
       temperature > temp_floor;
       ++iter) {
    std::vector<std::vector<ResourceVector>> frontier =
        advisor::PairwiseFrontier(current, options_);
    if (frontier.empty()) break;
    std::vector<double> objs = objective(frontier);
    evaluations += static_cast<long>(frontier.size());

    size_t steepest = 0;
    for (size_t c = 1; c < frontier.size(); ++c) {
      if (objs[c] < objs[steepest]) steepest = c;
    }
    if (objs[steepest] + 1e-12 < current_obj) {
      // Descent is possible: take the steepest move, as local search would.
      current_obj = objs[steepest];
      current = std::move(frontier[steepest]);
    } else {
      // Local optimum: propose one uniformly-drawn neighbor and accept its
      // uphill delta with the Metropolis probability at the current
      // temperature.
      const size_t pick = static_cast<size_t>(
          rng.UniformInt(0, static_cast<int64_t>(frontier.size()) - 1));
      const double uphill = objs[pick] - current_obj;
      if (uphill <= 0.0 || rng.Uniform() < std::exp(-uphill / temperature)) {
        current_obj = objs[pick];
        current = std::move(frontier[pick]);
      }
    }

    if (current_obj < best_obj) {
      best_obj = current_obj;
      best = current;
      stall = 0;
    } else {
      ++stall;
    }
    temperature *= kCoolingRate;
  }

  EnumerationResult result =
      advisor::FinalizeEnumeration(estimator, qos, std::move(best));
  result.iterations = ClampToInt(evaluations);
  result.converged = true;
  return result;
}

}  // namespace vdba::search
