// Tracing for the benchmark's traced run: spans recorded from the
// benchmark's own code around each call into a layer, a counting
// estimator decorator, and the layer replays that turn a final fleet
// state into search, estimator and kernel numbers.
//
// Nothing here runs when tracing is off: every hook takes a null Tracer
// as "record nothing".
#ifndef SVCBENCH_TRACE_H_
#define SVCBENCH_TRACE_H_

#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "advisor/cost_estimator.h"
#include "advisor/fleet_advisor.h"
#include "advisor/tenant.h"

namespace svcbench {

/// One recorded span. Spans of one request (an event, a solve, a replay)
/// share `request`; `parent` indexes the enclosing span, -1 at the top.
struct Span {
  std::string name;
  long request = 0;
  int parent = -1;
  double start = 0.0;  // seconds, monotonic clock
  double end = 0.0;
};

/// In-memory span log for one thread. Spans nest: Begin() makes the new
/// span the parent of the next Begin() until its End().
class Tracer {
 public:
  int Begin(std::string name, long request);
  void End(int span);

  const std::vector<Span>& spans() const { return spans_; }
  /// Summed duration of every span called `name`, in seconds.
  double Total(std::string_view name) const;
  /// Total(name) minus the time its direct children cover.
  double SelfTime(std::string_view name) const;
  /// Writes one JSON object per span; returns false on an I/O error.
  bool WriteJsonLines(const std::string& path) const;

 private:
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// Records a span for its scope when `tracer` is not null.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, std::string name, long request)
      : tracer_(tracer),
        span_(tracer ? tracer->Begin(std::move(name), request) : -1) {}
  ~ScopedSpan() {
    if (tracer_ != nullptr) tracer_->End(span_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  int span_;
};

/// A first-seen (tenant, allocation) probe group handed to the estimator
/// in one call: what the estimator's batched kernel prices at once.
struct GridBatch {
  int tenant = 0;
  std::vector<vdba::simvm::ResourceVector> allocations;
};

/// CostEstimator decorator: forwards every call unchanged, counts the
/// probes, wraps each call in an "estimator.estimate" span, and logs the
/// first-seen probes per call for the kernel replay.
class CountingEstimator : public vdba::advisor::CostEstimator {
 public:
  CountingEstimator(vdba::advisor::CostEstimator* inner, Tracer* tracer,
                    long request)
      : inner_(inner), tracer_(tracer), request_(request) {}

  double EstimateSeconds(int tenant,
                         const vdba::simvm::ResourceVector& r) override;
  int num_tenants() const override { return inner_->num_tenants(); }
  int num_dims() const override { return inner_->num_dims(); }
  std::vector<double> EstimateBatch(
      int tenant,
      std::span<const vdba::simvm::ResourceVector> candidates) override;
  std::vector<double> EstimateMany(
      std::span<const vdba::advisor::TenantAllocation> batch) override;

  /// (tenant, allocation) probes forwarded so far.
  long probes() const { return probes_; }
  const std::vector<GridBatch>& grid_batches() const { return batches_; }

 private:
  void Log(std::span<const vdba::advisor::TenantAllocation> batch);

  vdba::advisor::CostEstimator* inner_;
  Tracer* tracer_;
  long request_;
  long probes_ = 0;
  /// Allocations seen so far, per tenant.
  std::vector<std::vector<vdba::simvm::ResourceVector>> seen_;
  std::vector<GridBatch> batches_;
};

/// Per-layer numbers from replaying cold per-machine solves.
struct SolveReplay {
  long runs = 0;            // SearchStrategy::Run calls
  long iterations = 0;      // summed EnumerationResult::iterations
  long probes = 0;          // probes through the decorator
  long optimizer_calls = 0; // estimator counter deltas
  long cache_hits = 0;
  long grid_calls = 0;      // WhatIfOptimizeGrid calls in the kernel replay
  long grid_members = 0;    // parameter vectors priced by those calls
};

/// Replays a cold default-options solve of every non-empty machine of a
/// fleet state: for machine m, a fresh WhatIfCostEstimator over the
/// tenants `assignment` puts there (bound to m's calibration), wrapped in
/// a CountingEstimator, searched by the default SearchStrategy inside a
/// "search.run" span. Then re-prices every logged GridBatch through
/// DbEngine::WhatIfOptimizeGrid, one "simdb.grid" span per statement.
SolveReplay ReplaySolves(const std::vector<vdba::advisor::FleetMachine>& fleet,
                         const std::vector<vdba::advisor::Tenant>& tenants,
                         const std::vector<int>& assignment, Tracer* tracer,
                         long request);

}  // namespace svcbench

#endif  // SVCBENCH_TRACE_H_
