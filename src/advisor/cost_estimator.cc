#include "advisor/cost_estimator.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <utility>

#include "util/check.h"

namespace vdba::advisor {

std::vector<double> CostEstimator::EstimateBatch(
    int tenant, std::span<const simvm::ResourceVector> candidates) {
  std::vector<double> out;
  out.reserve(candidates.size());
  for (const simvm::ResourceVector& r : candidates) {
    out.push_back(EstimateSeconds(tenant, r));
  }
  return out;
}

std::vector<double> CostEstimator::EstimateMany(
    std::span<const TenantAllocation> batch) {
  std::vector<double> out;
  out.reserve(batch.size());
  for (const TenantAllocation& item : batch) {
    out.push_back(EstimateSeconds(item.tenant, item.r));
  }
  return out;
}

namespace {

void ValidateTenant(const Tenant& t) {
  VDBA_CHECK(t.engine != nullptr);
  VDBA_CHECK(t.calibration != nullptr);
  VDBA_CHECK_EQ(static_cast<int>(t.engine->flavor()),
                static_cast<int>(t.calibration->flavor()));
}

}  // namespace

WhatIfCostEstimator::WhatIfCostEstimator(const simvm::PhysicalMachine& machine,
                                         std::vector<Tenant> tenants,
                                         WhatIfEstimatorOptions options)
    : machine_(machine), options_(options), tenants_(std::move(tenants)) {
  VDBA_CHECK(!tenants_.empty());
  VDBA_CHECK_GT(options_.cache_granularity, 0.0);
  for (const Tenant& t : tenants_) ValidateTenant(t);
  statement_ids_.reserve(tenants_.size());
  for (const Tenant& t : tenants_) {
    statement_ids_.push_back(memo_.Intern(t.engine, t.workload));
  }
  observations_.resize(tenants_.size());
  cache_shards_.reserve(tenants_.size());
  for (size_t i = 0; i < tenants_.size(); ++i) {
    cache_shards_.push_back(std::make_unique<CacheShard>());
  }
}

WhatIfCostEstimator::~WhatIfCostEstimator() = default;

size_t WhatIfCostEstimator::CacheKeyHash::operator()(
    const CacheKey& k) const {
  // splitmix64-style hash combine; the seed's multiply-add scheme collided
  // whenever quantized shares traded off against each other.
  uint64_t h = 0x9e3779b97f4a7c15ull ^ static_cast<uint64_t>(k.tenant);
  for (int qd : k.q) {
    uint64_t x = static_cast<uint64_t>(static_cast<int64_t>(qd)) +
                 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
    x ^= x >> 30;
    x *= 0xbf58476d1ce4e5b9ull;
    x ^= x >> 27;
    h ^= x;
  }
  return static_cast<size_t>(h);
}

WhatIfCostEstimator::CacheKey WhatIfCostEstimator::MakeKey(
    int tenant, const simvm::ResourceVector& r) const {
  CacheKey key;
  key.tenant = tenant;
  for (int d = 0; d < simvm::kMaxResourceDims; ++d) {
    key.q[static_cast<size_t>(d)] = static_cast<int>(
        std::lround(r.share(d) / options_.cache_granularity));
  }
  return key;
}

/// Every (probe, statement) pair of one pricing round, in the caller's
/// layout, with its memo key and, once resolved, its value.
struct WhatIfCostEstimator::StatementSlots {
  std::vector<StatementMemo::Key> keys;
  std::vector<StatementMemo::Value> values;
  /// Signatures of the slots the caller priced, moved into the memo.
  std::vector<std::string> signatures;
  /// Slots the caller must price: the first slot of each key the memo
  /// lacks, ascending. The caller sets their native_cost and signature.
  std::vector<size_t> absent;
  /// (slot, source): later slots of an absent key, copied from `source`.
  std::vector<std::pair<size_t, size_t>> copies;
};

void WhatIfCostEstimator::LookUp(StatementSlots* slots) {
  const size_t n = slots->keys.size();
  slots->values.assign(n, StatementMemo::Value{});
  slots->signatures.resize(n);
  std::vector<size_t> missing;
  {
    StatementMemo::Locked memo = memo_.Lock();
    for (size_t i = 0; i < n; ++i) {
      if (!memo.Find(slots->keys[i], &slots->values[i])) missing.push_back(i);
    }
  }
  // Equal keys share (statement, tag) and sort together, lowest slot
  // first: price that slot and copy it to the others. Tags rarely
  // collide, so a run is almost always a single key.
  const std::vector<StatementMemo::Key>& keys = slots->keys;
  std::vector<std::pair<uint64_t, size_t>> order;
  order.reserve(missing.size());
  for (size_t i : missing) {
    order.emplace_back(keys[i].head(), i);
  }
  std::sort(order.begin(), order.end());
  for (size_t run = 0, end = 0; run < order.size(); run = end) {
    while (end < order.size() && order[end].first == order[run].first) ++end;
    for (size_t j = run; j < end; ++j) {
      const size_t i = order[j].second;
      size_t k = run;
      while (k < j && keys[order[k].second] != keys[i]) ++k;
      if (k < j) {
        slots->copies.emplace_back(i, order[k].second);
      } else {
        slots->absent.push_back(i);
      }
    }
  }
  std::sort(slots->absent.begin(), slots->absent.end());
}

void WhatIfCostEstimator::Record(StatementSlots* slots) {
  if (!slots->absent.empty()) {
    StatementMemo::Locked memo = memo_.Lock();
    for (size_t i : slots->absent) {
      slots->values[i] =
          memo.Insert(slots->keys[i], slots->values[i].native_cost,
                      std::move(slots->signatures[i]));
    }
  }
  for (const auto& [slot, source] : slots->copies) {
    slots->values[slot] = slots->values[source];
  }
  const long priced = static_cast<long>(slots->absent.size());
  optimizer_calls_.fetch_add(priced, std::memory_order_relaxed);
  statement_hits_.fetch_add(static_cast<long>(slots->keys.size()) - priced,
                            std::memory_order_relaxed);
}

WhatIfCostEstimator::CacheValue WhatIfCostEstimator::Total(
    int tenant, const simvm::ResourceVector& r, const StatementSlots& slots,
    size_t first, size_t stride) const {
  const Tenant& t = tenants_[static_cast<size_t>(tenant)];
  double total = 0.0;
  std::string signature;
  for (size_t s = 0; s < t.workload.statements.size(); ++s) {
    const StatementMemo::Value& v = slots.values[first + s * stride];
    total += t.calibration->ToSeconds(v.native_cost, r) *
             t.workload.statements[s].frequency;
    signature += *v.signature;
    signature += ';';
  }
  return CacheValue{total, std::move(signature)};
}

WhatIfCostEstimator::CacheValue WhatIfCostEstimator::Compute(
    int tenant, const simvm::ResourceVector& r) {
  const Tenant& t = tenants_[static_cast<size_t>(tenant)];
  simdb::EngineParams params =
      t.calibration->ParamsFor(r, machine_.VmMemoryMb(r));
  StatementSlots slots;
  for (uint32_t id : statement_ids_[static_cast<size_t>(tenant)]) {
    slots.keys.push_back(StatementMemo::MakeKey(id, params));
  }
  LookUp(&slots);
  for (size_t s : slots.absent) {
    simdb::OptimizeResult opt =
        t.engine->WhatIfOptimize(t.workload.statements[s].query, params);
    slots.values[s].native_cost = opt.native_cost;
    slots.signatures[s] = std::move(opt.signature);
  }
  Record(&slots);
  return Total(tenant, r, slots, 0, 1);
}

const WhatIfCostEstimator::CacheValue& WhatIfCostEstimator::Insert(
    const CacheKey& key, int tenant, const simvm::ResourceVector& r,
    CacheValue value) {
  CacheShard& shard = ShardFor(key);
  const CacheValue* pos = nullptr;
  bool inserted = false;
  {
    std::unique_lock lock(shard.mu);
    auto [it, ins] = shard.map.emplace(key, std::move(value));
    pos = &it->second;
    inserted = ins;
  }
  if (inserted) {
    std::lock_guard lock(observations_mu_);
    observations_[static_cast<size_t>(tenant)].push_back(
        WhatIfObservation{r, pos->est_seconds, pos->signature});
  }
  return *pos;
}

const WhatIfCostEstimator::CacheValue& WhatIfCostEstimator::Lookup(
    int tenant, const simvm::ResourceVector& r) {
  VDBA_CHECK_GE(tenant, 0);
  VDBA_CHECK_LT(static_cast<size_t>(tenant), tenants_.size());
  VDBA_CHECK_MSG(r.Valid(), "invalid allocation %s", r.ToString().c_str());

  // Canonical machine dimensionality keeps the observation log's feature
  // vectors uniform (missing dimensions are unallocated = share 1).
  simvm::ResourceVector canon = r.Expanded(num_dims());
  CacheKey key = MakeKey(tenant, canon);
  CacheShard& shard = ShardFor(key);
  {
    std::shared_lock lock(shard.mu);
    auto it = shard.map.find(key);
    if (it != shard.map.end()) {
      cache_hits_.fetch_add(1, std::memory_order_relaxed);
      return it->second;
    }
  }
  return Insert(key, tenant, canon, Compute(tenant, canon));
}

double WhatIfCostEstimator::EstimateSeconds(int tenant,
                                            const simvm::ResourceVector& r) {
  return Lookup(tenant, r).est_seconds;
}

ThreadPool* WhatIfCostEstimator::pool() {
  std::lock_guard lock(pool_mu_);
  if (pool_ == nullptr) {
    pool_ = std::make_unique<ThreadPool>(options_.batch_threads);
  }
  return pool_.get();
}

std::vector<double> WhatIfCostEstimator::EstimateBatch(
    int tenant, std::span<const simvm::ResourceVector> candidates) {
  std::vector<TenantAllocation> batch;
  batch.reserve(candidates.size());
  for (const simvm::ResourceVector& r : candidates) {
    batch.push_back(TenantAllocation{tenant, r});
  }
  return EstimateMany(batch);
}

struct WhatIfCostEstimator::Miss {
  CacheKey key;
  int tenant;
  simvm::ResourceVector r;
  CacheValue value;
};

void WhatIfCostEstimator::ComputeMisses(std::vector<Miss>* misses) {
  // Group misses by tenant (first-seen order): every probe of one tenant
  // prices the same workload, so one grid call per statement covers the
  // whole group.
  std::vector<int> group_tenant;
  std::vector<std::vector<size_t>> groups;
  for (size_t m = 0; m < misses->size(); ++m) {
    int tenant = (*misses)[m].tenant;
    size_t g = 0;
    while (g < group_tenant.size() && group_tenant[g] != tenant) ++g;
    if (g == group_tenant.size()) {
      group_tenant.push_back(tenant);
      groups.emplace_back();
    }
    groups[g].push_back(m);
  }

  // Calibrated parameter vectors per group member (the scalar path derives
  // them identically inside Compute), and one memo slot per (member,
  // statement): group g's member j and statement s sit at
  // offset[g] + s * |g| + j.
  std::vector<std::vector<simdb::EngineParams>> group_params(groups.size());
  std::vector<size_t> offset(groups.size());
  StatementSlots slots;
  for (size_t g = 0; g < groups.size(); ++g) {
    const Tenant& t = tenants_[static_cast<size_t>(group_tenant[g])];
    group_params[g].reserve(groups[g].size());
    for (size_t m : groups[g]) {
      const Miss& miss = (*misses)[m];
      group_params[g].push_back(
          t.calibration->ParamsFor(miss.r, machine_.VmMemoryMb(miss.r)));
    }
    offset[g] = slots.keys.size();
    for (uint32_t id : statement_ids_[static_cast<size_t>(group_tenant[g])]) {
      for (const simdb::EngineParams& params : group_params[g]) {
        slots.keys.push_back(StatementMemo::MakeKey(id, params));
      }
    }
  }
  LookUp(&slots);

  // One task per (group, statement) with members left to price; its grid
  // call prices exactly those members. Tenants' parameter vectors never
  // share a grid call.
  // `absent` ascends, so each task's slots arrive together.
  struct StmtTask {
    size_t group;
    size_t stmt;
    std::vector<size_t> members;
  };
  std::vector<StmtTask> tasks;
  size_t g = 0;
  for (size_t i : slots.absent) {
    while (g + 1 < groups.size() && i >= offset[g + 1]) ++g;
    const size_t k = groups[g].size();
    const size_t s = (i - offset[g]) / k;
    if (tasks.empty() || tasks.back().group != g || tasks.back().stmt != s) {
      tasks.push_back(StmtTask{g, s, {}});
    }
    tasks.back().members.push_back((i - offset[g]) % k);
  }

  auto run_task = [&](size_t ti) {
    const StmtTask& task = tasks[ti];
    const Tenant& t = tenants_[static_cast<size_t>(group_tenant[task.group])];
    const std::vector<simdb::EngineParams>& all = group_params[task.group];
    std::vector<simdb::EngineParams> params;
    params.reserve(task.members.size());
    for (size_t j : task.members) params.push_back(all[j]);
    std::vector<simdb::OptimizeResult> results = t.engine->WhatIfOptimizeGrid(
        t.workload.statements[task.stmt].query, params);
    const size_t base = offset[task.group] + task.stmt * all.size();
    for (size_t i = 0; i < results.size(); ++i) {
      const size_t slot = base + task.members[i];
      slots.values[slot].native_cost = results[i].native_cost;
      slots.signatures[slot] = std::move(results[i].signature);
    }
  };

  if (tasks.size() > 1) {
    // Largest tasks first: one big task picked up last would serialize
    // the tail (LPT order).
    std::vector<size_t> order(tasks.size());
    std::iota(order.begin(), order.end(), size_t{0});
    std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
      return tasks[a].members.size() > tasks[b].members.size();
    });
    pool()->ParallelForOrder(order, run_task);
  } else if (tasks.size() == 1) {
    run_task(0);
  }
  Record(&slots);

  for (size_t g = 0; g < groups.size(); ++g) {
    for (size_t j = 0; j < groups[g].size(); ++j) {
      Miss& miss = (*misses)[groups[g][j]];
      miss.value = Total(group_tenant[g], miss.r, slots, offset[g] + j,
                         groups[g].size());
    }
  }
}

std::vector<double> WhatIfCostEstimator::EstimateMany(
    std::span<const TenantAllocation> batch) {
  // Partition the batch into cache hits and distinct misses (first
  // occurrence wins, exactly as a sequential run would).
  std::vector<Miss> misses;
  // Per-item: index into `misses` for the FIRST occurrence of an uncached
  // key, -1 for cached keys and later duplicates (which replay as cache
  // hits below, exactly like a sequential run).
  std::vector<int> miss_index(batch.size(), -1);
  std::unordered_map<CacheKey, int, CacheKeyHash> pending;
  for (size_t i = 0; i < batch.size(); ++i) {
    const int tenant = batch[i].tenant;
    VDBA_CHECK_GE(tenant, 0);
    VDBA_CHECK_LT(static_cast<size_t>(tenant), tenants_.size());
    simvm::ResourceVector r = batch[i].r.Expanded(num_dims());
    VDBA_CHECK_MSG(r.Valid(), "invalid allocation %s", r.ToString().c_str());
    CacheKey key = MakeKey(tenant, r);
    {
      CacheShard& shard = ShardFor(key);
      std::shared_lock lock(shard.mu);
      if (shard.map.contains(key)) continue;
    }
    auto [it, inserted] =
        pending.emplace(key, static_cast<int>(misses.size()));
    if (inserted) {
      misses.push_back(Miss{key, tenant, r, CacheValue{}});
      miss_index[i] = it->second;
    }
  }

  if (!misses.empty()) {
    // One miss fan-out at a time: the pool rejects concurrent ParallelFor
    // submissions, and serializing here keeps concurrent EstimateMany
    // callers safe without a pool redesign.
    std::lock_guard batch_lock(batch_mu_);
    ComputeMisses(&misses);
  }

  // Commit results in the order a sequential run would have: walk the
  // items, inserting each first-seen miss, counting later duplicates and
  // pre-existing entries as cache hits.
  std::vector<double> out(batch.size(), 0.0);
  for (size_t i = 0; i < batch.size(); ++i) {
    int m = miss_index[i];
    if (m >= 0) {
      Miss& miss = misses[static_cast<size_t>(m)];
      out[i] = Insert(miss.key, miss.tenant, miss.r, std::move(miss.value))
                   .est_seconds;
    } else {
      out[i] = Lookup(batch[i].tenant, batch[i].r).est_seconds;
    }
  }
  return out;
}

double WhatIfCostEstimator::EstimateWithSignature(
    int tenant, const simvm::ResourceVector& r, std::string* signature) {
  const CacheValue& v = Lookup(tenant, r);
  if (signature != nullptr) *signature = v.signature;
  return v.est_seconds;
}

void WhatIfCostEstimator::SetWorkload(int tenant, simdb::Workload workload) {
  VDBA_CHECK_GE(tenant, 0);
  VDBA_CHECK_LT(static_cast<size_t>(tenant), tenants_.size());
  Tenant& t = tenants_[static_cast<size_t>(tenant)];
  // Intern before releasing, so statements the old and new workloads share
  // keep their ids and their memo entries.
  std::vector<uint32_t> ids = memo_.Intern(t.engine, workload);
  memo_.Release(statement_ids_[static_cast<size_t>(tenant)]);
  statement_ids_[static_cast<size_t>(tenant)] = std::move(ids);
  t.workload = std::move(workload);
  InvalidateTenant(tenant);
}

void WhatIfCostEstimator::InvalidateTenant(int tenant) {
  VDBA_CHECK_GE(tenant, 0);
  VDBA_CHECK_LT(static_cast<size_t>(tenant), tenants_.size());
  {
    std::lock_guard lock(observations_mu_);
    observations_[static_cast<size_t>(tenant)].clear();
  }
  // Drop exactly this tenant's cache entries; other tenants stay warm.
  CacheShard& shard = *cache_shards_[static_cast<size_t>(tenant)];
  std::unique_lock lock(shard.mu);
  shard.map.clear();
}

int WhatIfCostEstimator::AddTenant(Tenant tenant) {
  ValidateTenant(tenant);
  statement_ids_.push_back(memo_.Intern(tenant.engine, tenant.workload));
  tenants_.push_back(std::move(tenant));
  cache_shards_.push_back(std::make_unique<CacheShard>());
  {
    std::lock_guard lock(observations_mu_);
    observations_.emplace_back();
  }
  return static_cast<int>(tenants_.size()) - 1;
}

void WhatIfCostEstimator::ReplaceTenant(int tenant, Tenant replacement) {
  VDBA_CHECK_GE(tenant, 0);
  VDBA_CHECK_LT(static_cast<size_t>(tenant), tenants_.size());
  ValidateTenant(replacement);
  // Intern before releasing, so a tenant put back into the slot it just
  // left (a rejected migration's rollback) keeps its memo entries. The old
  // engine is never dereferenced and may already be destroyed; statements
  // are keyed by engine id, so a new engine at its address matches none.
  std::vector<uint32_t> ids =
      memo_.Intern(replacement.engine, replacement.workload);
  memo_.Release(statement_ids_[static_cast<size_t>(tenant)]);
  statement_ids_[static_cast<size_t>(tenant)] = std::move(ids);
  tenants_[static_cast<size_t>(tenant)] = std::move(replacement);
  InvalidateTenant(tenant);
}

}  // namespace vdba::advisor
