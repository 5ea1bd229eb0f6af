#include "advisor/fleet_advisor.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>
#include <map>
#include <numeric>
#include <set>
#include <utility>

#include "util/check.h"

namespace vdba::advisor {

namespace {

/// Slack for capacity / objective comparisons (mirrors kShareEpsilon's
/// role in the enumerators).
constexpr double kFleetEpsilon = 1e-12;

}  // namespace

bool SameMachineClass(const FleetMachine& a, const FleetMachine& b) {
  return a.hardware.memory_mb == b.hardware.memory_mb &&
         a.hardware.resources == b.hardware.resources &&
         a.pg_calibration == b.pg_calibration &&
         a.db2_calibration == b.db2_calibration;
}

std::vector<int> MachineClassRepresentatives(
    const std::vector<FleetMachine>& machines) {
  std::vector<int> rep(machines.size());
  for (size_t m = 0; m < machines.size(); ++m) {
    rep[m] = static_cast<int>(m);
    for (size_t e = 0; e < m; ++e) {
      if (rep[e] == static_cast<int>(e) &&
          SameMachineClass(machines[e], machines[m])) {
        rep[m] = static_cast<int>(e);
        break;
      }
    }
  }
  return rep;
}

// ---------------------------------------------------------------------------
// Placement policies
// ---------------------------------------------------------------------------

std::vector<int> FirstFitDecreasingPolicy::Place(
    const PlacementInput& input) const {
  const int t = input.num_tenants();
  const int p = input.num_machines;
  // A non-finite demand (NaN from an unpriceable tenant) reads as +inf:
  // such a tenant fits nowhere and every comparison stays a strict weak
  // order, so the sorts below are well defined.
  auto demand = [&](int i, int m) {
    double d = input.demand[static_cast<size_t>(i)][static_cast<size_t>(m)];
    return std::isfinite(d) ? d : std::numeric_limits<double>::infinity();
  };

  // Decreasing order of intrinsic demand (the tenant's cost on its best
  // machine); stable sort + index tie-break keeps placement deterministic.
  std::vector<double> best(static_cast<size_t>(t));
  for (int i = 0; i < t; ++i) {
    double b = demand(i, 0);
    for (int m = 1; m < p; ++m) b = std::min(b, demand(i, m));
    best[static_cast<size_t>(i)] = b;
  }
  std::vector<int> order(static_cast<size_t>(t));
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&](int a, int b) {
    return best[static_cast<size_t>(a)] > best[static_cast<size_t>(b)];
  });

  std::vector<double> load(static_cast<size_t>(p), 0.0);
  std::vector<int> assignment(static_cast<size_t>(t), 0);
  std::vector<int> machine_order(static_cast<size_t>(p));
  for (int i : order) {
    // "First fit" scans machines cheapest-for-this-tenant first, so a
    // shipping-heavy tenant tries the net-fast box before anything else.
    std::iota(machine_order.begin(), machine_order.end(), 0);
    std::stable_sort(machine_order.begin(), machine_order.end(),
                     [&](int a, int b) { return demand(i, a) < demand(i, b); });
    int chosen = -1;
    for (int m : machine_order) {
      if (load[static_cast<size_t>(m)] + demand(i, m) <=
          input.capacity[static_cast<size_t>(m)] + kFleetEpsilon) {
        chosen = m;
        break;
      }
    }
    if (chosen < 0) {
      // Nothing fits: overflow into the machine with the least loaded
      // outcome (bins have no hard limit — overfull just means slower).
      // Machine 0 is the fallback when every projection is +inf.
      chosen = 0;
      double best_load = load[0] + demand(i, 0);
      for (int m = 1; m < p; ++m) {
        double projected = load[static_cast<size_t>(m)] + demand(i, m);
        if (projected < best_load - kFleetEpsilon) {
          best_load = projected;
          chosen = m;
        }
      }
    }
    VDBA_CHECK(chosen >= 0 && chosen < p);
    assignment[static_cast<size_t>(i)] = chosen;
    load[static_cast<size_t>(chosen)] += demand(i, chosen);
  }
  return assignment;
}

std::vector<int> RoundRobinPolicy::Place(const PlacementInput& input) const {
  std::vector<int> assignment(static_cast<size_t>(input.num_tenants()));
  for (int i = 0; i < input.num_tenants(); ++i) {
    assignment[static_cast<size_t>(i)] = i % input.num_machines;
  }
  return assignment;
}

namespace {

using PolicyFactory =
    std::function<std::unique_ptr<PlacementPolicy>(const PlacementSpec&)>;

/// Registry keyed by policy name (ordered, so listings are stable) —
/// the placement mirror of search_strategy.cc's strategy registry.
const std::map<std::string, PolicyFactory>& PolicyRegistry() {
  static const auto* registry = new std::map<std::string, PolicyFactory>{
      {"first_fit_decreasing",
       [](const PlacementSpec&) {
         return std::make_unique<FirstFitDecreasingPolicy>();
       }},
      {"round_robin",
       [](const PlacementSpec&) {
         return std::make_unique<RoundRobinPolicy>();
       }},
  };
  return *registry;
}

}  // namespace

std::unique_ptr<PlacementPolicy> MakePlacementPolicy(
    const PlacementSpec& spec) {
  auto it = PolicyRegistry().find(spec.policy);
  if (it == PolicyRegistry().end()) {
    std::string known;
    for (const auto& [key, factory] : PolicyRegistry()) {
      (void)factory;
      if (!known.empty()) known += ", ";
      known += key;
    }
    VDBA_CHECK_MSG(false, "unknown placement policy '%s' (registered: %s)",
                   spec.policy.c_str(), known.c_str());
  }
  return it->second(spec);
}

std::vector<std::string> RegisteredPlacementPolicies() {
  std::vector<std::string> names;
  names.reserve(PolicyRegistry().size());
  for (const auto& [key, factory] : PolicyRegistry()) {
    (void)factory;
    names.push_back(key);
  }
  return names;
}

// ---------------------------------------------------------------------------
// FleetAdvisor
// ---------------------------------------------------------------------------

/// One solved bin: its tenants, the per-PM recommendation, and the
/// saturation-relief probes the migration loop steers by.
struct FleetAdvisor::BinState {
  std::vector<int> tenant_ids;  ///< Global ids, ascending.
  Recommendation rec;
  /// relief[j][d]: estimated seconds bin tenant j would save if dimension
  /// d of its machine were uncontended (share 1.0 instead of its
  /// allocation) — max(0, est_at_alloc - est_at_dim_full).
  std::vector<std::vector<double>> relief;
  /// Gain-weighted total relief per dimension: how many objective seconds
  /// this machine's scarcity of dimension d costs. The most saturated
  /// (machine, dimension) pair is the migration loop's move source.
  std::vector<double> saturation;
};

FleetAdvisor::FleetAdvisor(std::vector<FleetMachine> machines,
                           std::vector<Tenant> tenants, FleetOptions options)
    : machines_(std::move(machines)),
      tenants_(std::move(tenants)),
      options_(std::move(options)) {
  VDBA_CHECK(!machines_.empty());
  VDBA_CHECK(!tenants_.empty());
  VDBA_CHECK_GT(options_.placement.headroom, 0.0);
  for (const FleetMachine& m : machines_) {
    VDBA_CHECK(m.hardware.resources != nullptr);
  }
}

Tenant FleetAdvisor::BoundTenant(int i, const FleetMachine& m) const {
  Tenant t = tenants_[static_cast<size_t>(i)];
  const calib::CalibrationModel* model = m.CalibrationFor(t.engine->flavor());
  if (model != nullptr) t.calibration = model;
  return t;
}

std::vector<std::vector<double>> FleetAdvisor::ProbeDemandMatrix() {
  const int t = num_tenants();
  const int p = num_machines();
  if (pool_ == nullptr && p > 1) {
    pool_ = std::make_unique<ThreadPool>(options_.threads);
  }
  // demand[i][m], filled one machine (column) at a time.
  std::vector<std::vector<double>> demand(
      static_cast<size_t>(t), std::vector<double>(static_cast<size_t>(p)));

  // Only class representatives are probed; classmates copy the column
  // (their estimates are bit-identical — see SameMachineClass).
  const std::vector<int> rep = MachineClassRepresentatives(machines_);
  std::vector<size_t> probe_list;
  for (int m = 0; m < p; ++m) {
    if (rep[static_cast<size_t>(m)] == m) {
      probe_list.push_back(static_cast<size_t>(m));
    }
  }
  demand_columns_probed_ = static_cast<int>(probe_list.size());

  // Per-PM solves run in parallel later, so give each machine's demand
  // estimator the smallest pool (one worker plus the calling thread) and
  // fan across machines instead.
  WhatIfEstimatorOptions est_opts = options_.advisor.estimator;
  est_opts.batch_threads = 1;
  auto probe_machine = [&](size_t pi) {
    const size_t m = probe_list[pi];
    const FleetMachine& machine = machines_[m];
    std::vector<Tenant> bound;
    bound.reserve(static_cast<size_t>(t));
    for (int i = 0; i < t; ++i) {
      bound.push_back(BoundTenant(i, machine));
    }
    WhatIfCostEstimator estimator(machine.hardware, std::move(bound),
                                  est_opts);
    const int dims = machine.hardware.resources->dims();
    std::vector<TenantAllocation> probes;
    probes.reserve(static_cast<size_t>(t));
    for (int i = 0; i < t; ++i) {
      probes.push_back(TenantAllocation{i, simvm::ResourceVector::Full(dims)});
    }
    std::vector<double> est = estimator.EstimateMany(probes);
    for (int i = 0; i < t; ++i) {
      demand[static_cast<size_t>(i)][m] = est[static_cast<size_t>(i)];
    }
  };
  if (pool_ != nullptr && probe_list.size() > 1) {
    pool_->ParallelFor(probe_list.size(), probe_machine);
  } else {
    for (size_t pi = 0; pi < probe_list.size(); ++pi) probe_machine(pi);
  }

  // Copy representative columns to classmates.
  for (int m = 0; m < p; ++m) {
    const size_t r = static_cast<size_t>(rep[static_cast<size_t>(m)]);
    if (r == static_cast<size_t>(m)) continue;
    for (int i = 0; i < t; ++i) {
      demand[static_cast<size_t>(i)][static_cast<size_t>(m)] =
          demand[static_cast<size_t>(i)][r];
    }
  }
  return demand;
}

FleetAdvisor::BinState FleetAdvisor::SolveBin(
    int machine, std::vector<int> tenant_ids) const {
  BinState bin;
  bin.tenant_ids = std::move(tenant_ids);
  const FleetMachine& fm = machines_[static_cast<size_t>(machine)];
  const int dims = fm.hardware.resources->dims();
  bin.saturation.assign(static_cast<size_t>(dims), 0.0);
  if (bin.tenant_ids.empty()) return bin;  // idle box

  std::vector<Tenant> bound;
  bound.reserve(bin.tenant_ids.size());
  for (int id : bin.tenant_ids) bound.push_back(BoundTenant(id, fm));

  AdvisorOptions adv_opts = options_.advisor;
  if (num_machines() > 1) {
    // Bin solves already fan across the fleet pool, so each estimator gets
    // the smallest pool: one worker plus the calling thread. Wider nested
    // pools would oversubscribe cores without changing any value (the
    // estimator contract makes results thread-count invariant).
    adv_opts.estimator.batch_threads = 1;
  }
  VirtualizationDesignAdvisor adv(fm.hardware, std::move(bound), adv_opts);
  bin.rec = adv.Recommend();

  // Saturation probes: what would each tenant's cost be if one dimension
  // were uncontended? One cross-tenant EstimateMany fan-out per bin.
  const size_t n = bin.tenant_ids.size();
  std::vector<TenantAllocation> probes;
  probes.reserve(n * static_cast<size_t>(dims));
  for (size_t j = 0; j < n; ++j) {
    for (int d = 0; d < dims; ++d) {
      simvm::ResourceVector r = bin.rec.allocations[j];
      r.set(d, 1.0);
      probes.push_back(TenantAllocation{static_cast<int>(j), r});
    }
  }
  std::vector<double> relieved = adv.estimator()->EstimateMany(probes);
  bin.relief.assign(n, std::vector<double>(static_cast<size_t>(dims), 0.0));
  for (size_t j = 0; j < n; ++j) {
    const double gain =
        tenants_[static_cast<size_t>(bin.tenant_ids[j])].qos.gain_factor;
    for (int d = 0; d < dims; ++d) {
      double saved = bin.rec.estimated_seconds[j] -
                     relieved[j * static_cast<size_t>(dims) +
                              static_cast<size_t>(d)];
      double relief = std::max(0.0, saved);
      bin.relief[j][static_cast<size_t>(d)] = relief;
      bin.saturation[static_cast<size_t>(d)] += gain * relief;
    }
  }
  return bin;
}

double FleetAdvisor::BinCost(const BinState& bin) const {
  double cost = 0.0;
  for (size_t j = 0; j < bin.tenant_ids.size(); ++j) {
    cost += tenants_[static_cast<size_t>(bin.tenant_ids[j])].qos.gain_factor *
            bin.rec.estimated_seconds[j];
  }
  return cost;
}

FleetRecommendation FleetAdvisor::Recommend() {
  const int t = num_tenants();
  const int p = num_machines();
  if (pool_ == nullptr && p > 1) {
    pool_ = std::make_unique<ThreadPool>(options_.threads);
  }

  FleetRecommendation result;
  result.policy = options_.placement.policy;
  result.strategy = options_.advisor.search.strategy;

  // --- Placement ---------------------------------------------------------
  if (p == 1) {
    // Trivial fleet: skip the demand probes so the single-PM path does
    // exactly what a standalone advisor does.
    result.assignment.assign(static_cast<size_t>(t), 0);
  } else {
    PlacementInput input;
    input.num_machines = p;
    input.demand = ProbeDemandMatrix();
    // Balanced-load capacity: distributing work proportionally to machine
    // speed gives every box the same local-seconds load W / sum(speed);
    // headroom scales that shared target.
    double total_best = 0.0;
    std::vector<double> speed(static_cast<size_t>(p), 0.0);
    for (int i = 0; i < t; ++i) {
      const auto& row = input.demand[static_cast<size_t>(i)];
      double best = *std::min_element(row.begin(), row.end());
      total_best += best;
      for (int m = 0; m < p; ++m) {
        double d = row[static_cast<size_t>(m)];
        speed[static_cast<size_t>(m)] += d > 0.0 ? best / d : 1.0;
      }
    }
    double total_speed = 0.0;
    for (double& s : speed) {
      s /= t;
      total_speed += s;
    }
    input.capacity.assign(
        static_cast<size_t>(p),
        options_.placement.headroom * total_best / total_speed);

    result.assignment = MakePlacementPolicy(options_.placement)->Place(input);
    VDBA_CHECK_EQ(result.assignment.size(), static_cast<size_t>(t));
    for (int m : result.assignment) {
      VDBA_CHECK_GE(m, 0);
      VDBA_CHECK_LT(m, p);
    }
  }

  // --- Per-PM solves (fanned over the fleet pool) ------------------------
  std::vector<std::vector<int>> bins(static_cast<size_t>(p));
  for (int i = 0; i < t; ++i) {
    bins[static_cast<size_t>(result.assignment[static_cast<size_t>(i)])]
        .push_back(i);
  }
  std::vector<BinState> solved(static_cast<size_t>(p));
  auto solve = [&](size_t m) {
    solved[m] = SolveBin(static_cast<int>(m), bins[m]);
  };
  if (pool_ != nullptr && p > 1) {
    pool_->ParallelFor(static_cast<size_t>(p), solve);
  } else {
    for (int m = 0; m < p; ++m) solve(static_cast<size_t>(m));
  }

  // --- Migration repair ---------------------------------------------------
  if (options_.migrate && p > 1) {
    while (result.migrations < options_.max_migrations) {
      // Source: the (machine, dimension) whose scarcity costs the fleet
      // the most objective seconds.
      int src = -1, dim = -1;
      double worst = 0.0;
      for (int m = 0; m < p; ++m) {
        const BinState& bin = solved[static_cast<size_t>(m)];
        if (bin.tenant_ids.empty()) continue;
        for (size_t d = 0; d < bin.saturation.size(); ++d) {
          if (bin.saturation[d] > worst + kFleetEpsilon) {
            worst = bin.saturation[d];
            src = m;
            dim = static_cast<int>(d);
          }
        }
      }
      if (src < 0) break;  // nothing is contended anywhere

      // Destination: the least-loaded other machine.
      int dst = -1;
      double least = std::numeric_limits<double>::infinity();
      for (int m = 0; m < p; ++m) {
        if (m == src) continue;
        double load = BinCost(solved[static_cast<size_t>(m)]);
        if (load < least - kFleetEpsilon) {
          least = load;
          dst = m;
        }
      }
      if (dst < 0) break;

      // Offer the worst-degraded tenants of the saturated dimension, in
      // decreasing relief order (ties: lower id).
      const BinState& src_bin = solved[static_cast<size_t>(src)];
      std::vector<size_t> candidates(src_bin.tenant_ids.size());
      std::iota(candidates.begin(), candidates.end(), 0);
      std::stable_sort(candidates.begin(), candidates.end(),
                       [&](size_t a, size_t b) {
                         return src_bin.relief[a][static_cast<size_t>(dim)] >
                                src_bin.relief[b][static_cast<size_t>(dim)];
                       });
      if (candidates.size() >
          static_cast<size_t>(options_.migration_candidates)) {
        candidates.resize(static_cast<size_t>(options_.migration_candidates));
      }

      std::set<int> old_violations;
      for (int local : src_bin.rec.violated_qos) {
        old_violations.insert(
            src_bin.tenant_ids[static_cast<size_t>(local)]);
      }
      for (int local : solved[static_cast<size_t>(dst)].rec.violated_qos) {
        old_violations.insert(
            solved[static_cast<size_t>(dst)]
                .tenant_ids[static_cast<size_t>(local)]);
      }
      const double old_pair_cost =
          BinCost(src_bin) + BinCost(solved[static_cast<size_t>(dst)]);

      bool accepted = false;
      for (size_t cand : candidates) {
        const int mover = src_bin.tenant_ids[cand];
        ++result.migration_attempts;

        std::vector<int> src_ids, dst_ids;
        for (int id : src_bin.tenant_ids) {
          if (id != mover) src_ids.push_back(id);
        }
        dst_ids = solved[static_cast<size_t>(dst)].tenant_ids;
        dst_ids.insert(
            std::upper_bound(dst_ids.begin(), dst_ids.end(), mover), mover);

        // The trial's two re-solves are independent (SolveBin is const and
        // builds fresh estimators), so they run at once on the fleet pool.
        // Candidates stay strictly sequential: the first acceptable one
        // wins, exactly as in a one-at-a-time loop.
        BinState new_src, new_dst;
        pool_->ParallelFor(2, [&](size_t side) {
          if (side == 0) {
            new_src = SolveBin(src, std::move(src_ids));
          } else {
            new_dst = SolveBin(dst, std::move(dst_ids));
          }
        });

        // Accept only cost-improving moves that introduce no NEW QoS
        // violation (a violation the pre-move state already had may
        // persist — migration must never make QoS worse).
        bool new_violation = false;
        for (const BinState* bin : {&new_src, &new_dst}) {
          for (int local : bin->rec.violated_qos) {
            if (!old_violations.contains(
                    bin->tenant_ids[static_cast<size_t>(local)])) {
              new_violation = true;
            }
          }
        }
        double new_pair_cost = BinCost(new_src) + BinCost(new_dst);
        if (!new_violation && new_pair_cost < old_pair_cost - kFleetEpsilon) {
          solved[static_cast<size_t>(src)] = std::move(new_src);
          solved[static_cast<size_t>(dst)] = std::move(new_dst);
          ++result.migrations;
          accepted = true;
          break;
        }
      }
      if (!accepted) break;  // repair converged
    }
  }

  // --- Assemble ------------------------------------------------------------
  result.allocations.resize(static_cast<size_t>(t));
  result.estimated_seconds.assign(static_cast<size_t>(t), 0.0);
  result.machines.resize(static_cast<size_t>(p));
  for (int m = 0; m < p; ++m) {
    BinState& bin = solved[static_cast<size_t>(m)];
    for (size_t j = 0; j < bin.tenant_ids.size(); ++j) {
      const int id = bin.tenant_ids[j];
      result.assignment[static_cast<size_t>(id)] = m;
      result.allocations[static_cast<size_t>(id)] = bin.rec.allocations[j];
      result.estimated_seconds[static_cast<size_t>(id)] =
          bin.rec.estimated_seconds[j];
    }
    for (int local : bin.rec.violated_qos) {
      result.violated_qos.push_back(
          bin.tenant_ids[static_cast<size_t>(local)]);
    }
    result.total_cost += BinCost(bin);
    result.machines[static_cast<size_t>(m)] =
        MachineRecommendation{std::move(bin.tenant_ids), std::move(bin.rec)};
  }
  std::sort(result.violated_qos.begin(), result.violated_qos.end());
  return result;
}

}  // namespace vdba::advisor
