#include "trace.h"

#include <algorithm>
#include <cstdio>
#include <memory>
#include <utility>

#include "advisor/search_strategy.h"
#include "measure.h"

namespace svcbench {

using vdba::advisor::CostEstimator;
using vdba::advisor::FleetMachine;
using vdba::advisor::Tenant;
using vdba::advisor::TenantAllocation;
using vdba::simvm::ResourceVector;

int Tracer::Begin(std::string name, long request) {
  const int parent = open_.empty() ? -1 : open_.back();
  spans_.push_back(Span{std::move(name), request, parent, Now(), 0.0});
  open_.push_back(static_cast<int>(spans_.size()) - 1);
  return open_.back();
}

void Tracer::End(int span) {
  spans_[static_cast<size_t>(span)].end = Now();
  // Spans close innermost first (ScopedSpan), so `span` is on top.
  open_.pop_back();
}

double Tracer::Total(std::string_view name) const {
  double total = 0.0;
  for (const Span& s : spans_) {
    if (s.name == name) total += s.end - s.start;
  }
  return total;
}

double Tracer::SelfTime(std::string_view name) const {
  double self = Total(name);
  for (const Span& s : spans_) {
    if (s.parent >= 0 && spans_[static_cast<size_t>(s.parent)].name == name) {
      self -= s.end - s.start;
    }
  }
  return self;
}

bool Tracer::WriteJsonLines(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "{\"id\": %zu, \"name\": \"%s\", \"request\": %ld, "
                 "\"parent\": %d, \"start_s\": %.9f, \"end_s\": %.9f}\n",
                 i, s.name.c_str(), s.request, s.parent, s.start, s.end);
  }
  return std::fclose(f) == 0;
}

double CountingEstimator::EstimateSeconds(int tenant, const ResourceVector& r) {
  const TenantAllocation one{tenant, r};
  Log({&one, 1});
  ScopedSpan span(tracer_, "estimator.estimate", request_);
  return inner_->EstimateSeconds(tenant, r);
}

std::vector<double> CountingEstimator::EstimateBatch(
    int tenant, std::span<const ResourceVector> candidates) {
  std::vector<TenantAllocation> batch;
  for (const ResourceVector& r : candidates) batch.push_back({tenant, r});
  Log(batch);
  ScopedSpan span(tracer_, "estimator.estimate", request_);
  return inner_->EstimateBatch(tenant, candidates);
}

std::vector<double> CountingEstimator::EstimateMany(
    std::span<const TenantAllocation> batch) {
  Log(batch);
  ScopedSpan span(tracer_, "estimator.estimate", request_);
  return inner_->EstimateMany(batch);
}

void CountingEstimator::Log(std::span<const TenantAllocation> batch) {
  // Its own span, so the bookkeeping counts as neither search nor
  // estimator time.
  ScopedSpan span(tracer_, "trace.log", request_);
  probes_ += static_cast<long>(batch.size());
  seen_.resize(static_cast<size_t>(num_tenants()));
  std::vector<GridBatch> fresh;
  for (const TenantAllocation& p : batch) {
    std::vector<ResourceVector>& seen = seen_[static_cast<size_t>(p.tenant)];
    if (std::find(seen.begin(), seen.end(), p.r) != seen.end()) continue;
    seen.push_back(p.r);
    auto group = std::find_if(fresh.begin(), fresh.end(), [&](const GridBatch& g) {
      return g.tenant == p.tenant;
    });
    if (group == fresh.end()) {
      fresh.push_back(GridBatch{p.tenant, {}});
      group = fresh.end() - 1;
    }
    group->allocations.push_back(p.r);
  }
  for (GridBatch& g : fresh) batches_.push_back(std::move(g));
}

SolveReplay ReplaySolves(const std::vector<FleetMachine>& fleet,
                         const std::vector<Tenant>& tenants,
                         const std::vector<int>& assignment, Tracer* tracer,
                         long request) {
  SolveReplay out;
  const vdba::advisor::SearchSpec spec;  // default strategy and move grid
  std::unique_ptr<vdba::advisor::SearchStrategy> strategy =
      vdba::advisor::MakeSearchStrategy(spec);
  for (size_t m = 0; m < fleet.size(); ++m) {
    const FleetMachine& machine = fleet[m];
    std::vector<Tenant> bound;
    std::vector<vdba::advisor::QosSpec> qos;
    for (size_t id = 0; id < assignment.size(); ++id) {
      if (assignment[id] != static_cast<int>(m)) continue;
      Tenant t = tenants[id];
      if (const auto* model = machine.CalibrationFor(t.engine->flavor())) {
        t.calibration = model;
      }
      qos.push_back(t.qos);
      bound.push_back(std::move(t));
    }
    if (bound.empty()) continue;

    vdba::advisor::WhatIfCostEstimator estimator(machine.hardware, bound);
    CountingEstimator counting(&estimator, tracer, request);
    {
      ScopedSpan span(tracer, "search.run", request);
      out.iterations += strategy->Run(&counting, qos, {}).iterations;
    }
    ++out.runs;
    out.probes += counting.probes();
    out.optimizer_calls += estimator.optimizer_calls();
    out.cache_hits += estimator.cache_hits();

    for (const GridBatch& g : counting.grid_batches()) {
      const Tenant& t = bound[static_cast<size_t>(g.tenant)];
      std::vector<vdba::simdb::EngineParams> params;
      for (const ResourceVector& r : g.allocations) {
        params.push_back(
            t.calibration->ParamsFor(r, machine.hardware.VmMemoryMb(r)));
      }
      for (const vdba::simdb::WorkloadStatement& stmt : t.workload.statements) {
        ScopedSpan span(tracer, "simdb.grid", request);
        const std::vector<vdba::simdb::OptimizeResult> priced =
            t.engine->WhatIfOptimizeGrid(stmt.query, params);
        ++out.grid_calls;
        out.grid_members += static_cast<long>(priced.size());
      }
    }
  }
  return out;
}

}  // namespace svcbench
