#include "fleet.h"

#include <string>
#include <utility>

#include "simvm/resource_vector.h"
#include "workload/tpch.h"

namespace svcbench {

using vdba::advisor::FleetMachine;
using vdba::advisor::QosSpec;
using vdba::advisor::Tenant;
using vdba::scenario::Testbed;
using vdba::scenario::TestbedOptions;
using vdba::simdb::Workload;

FleetClasses MakeFleetClasses() {
  auto base = [] {
    TestbedOptions opts;
    opts.machine.resources = &vdba::simvm::ResourceModel::CpuMemIoNet();
    opts.calibration.io_shares = {0.35, 0.5, 0.7, 1.0};
    opts.calibration.net_shares = {0.35, 0.5, 0.7, 1.0};
    opts.with_sf10 = false;
    opts.with_tpcc = false;
    return opts;
  };
  TestbedOptions balanced = base();
  balanced.machine.name = "balanced";
  TestbedOptions net_fast = base();
  net_fast.machine.name = "net-fast";
  net_fast.machine.net_page_ms /= 4.0;
  TestbedOptions cpu_fast = base();
  cpu_fast.machine.name = "cpu-fast";
  cpu_fast.machine.cpu_ops_per_sec *= 1.5;

  FleetClasses classes;
  for (const TestbedOptions& opts : {balanced, net_fast, cpu_fast}) {
    classes.testbeds.push_back(std::make_unique<Testbed>(opts));
  }
  return classes;
}

std::vector<FleetMachine> MakeFleet(const FleetClasses& classes) {
  std::vector<FleetMachine> fleet;
  for (int m = 0; m < kMachines; ++m) {
    const Testbed& tb =
        *classes.testbeds[static_cast<size_t>(m) % classes.testbeds.size()];
    FleetMachine fm;
    fm.hardware = tb.machine();
    fm.hardware.name = tb.machine().name + "-" + std::to_string(m);
    fm.pg_calibration = &tb.pg_calibration();
    fm.db2_calibration = &tb.db2_calibration();
    fleet.push_back(fm);
  }
  return fleet;
}

uint64_t SplitMix::Next() {
  uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

int SplitMix::Int(int lo, int hi) {
  return lo + static_cast<int>(Next() % static_cast<uint64_t>(hi - lo + 1));
}

std::vector<Tenant> FleetTenants(const Testbed& tb) {
  static constexpr int kTemplates[] = {1, 3, 6, 12, 14, 18, 21};
  std::vector<Tenant> tenants;
  for (int i = 0; i < kTenants; ++i) {
    Workload w;
    const int statements = 5 + i % 4;
    for (int s = 0; s < statements; ++s) {
      w.AddStatement(vdba::workload::TpchQuery(tb.tpch_sf1(), kTemplates[(i + 2 * s) % 7]),
                     1.0 + (i + s) % 4);
    }
    if (i % 2 == 0) {
      w.AddStatement(vdba::workload::TpchReplicationExtract(tb.tpch_sf1()), 4.0);
    }
    QosSpec qos;
    if (i % 8 == 0) qos.degradation_limit = 6.0;
    tenants.push_back(tb.MakeTenant(i % 2 ? tb.db2_sf1() : tb.pg_sf1(), w, qos));
  }
  return tenants;
}

TenantGenerator::TenantGenerator(const Testbed& testbed, uint64_t seed)
    : rng_(seed), population_(FleetTenants(testbed)) {
  for (Deck* deck : {&tenants_, &workloads_, &targets_}) {
    for (int i = 0; i < kTenants; ++i) deck->cards.push_back(i);
    deck->next = deck->cards.size();  // shuffled on first deal
  }
}

int TenantGenerator::Deal(Deck* deck) {
  if (deck->next == deck->cards.size()) {
    rng_.Shuffle(&deck->cards);
    deck->next = 0;
  }
  return deck->cards[deck->next++];
}

Workload TenantGenerator::NextWorkload() {
  return population_[static_cast<size_t>(Deal(&workloads_))].workload;
}

int TenantGenerator::NextDriftTarget() { return Deal(&targets_); }

Tenant TenantGenerator::NextTenant() {
  return population_[static_cast<size_t>(Deal(&tenants_))];
}

namespace {

/// Prefill plus the bookkeeping every schedule shares.
Schedule StartSchedule(TenantGenerator* gen) {
  Schedule s;
  for (int i = 0; i < kTenants; ++i) {
    s.prefill.push_back(gen->NextTenant());
    s.final_tenants.push_back(s.prefill.back());
    s.final_active.push_back(true);
  }
  return s;
}

}  // namespace

Schedule MakeDriftSchedule(const Testbed& testbed, uint64_t seed, int events) {
  TenantGenerator gen(testbed, seed);
  Schedule s = StartSchedule(&gen);
  for (int e = 0; e < events; ++e) {
    ScheduledEvent ev;
    ev.kind = EventKind::kDrift;
    ev.tenant_id = gen.NextDriftTarget();
    ev.workload = gen.NextWorkload();
    s.final_tenants[static_cast<size_t>(ev.tenant_id)].workload = ev.workload;
    s.events.push_back(std::move(ev));
  }
  return s;
}

std::vector<std::vector<Tenant>> MakeTenantSets(const Testbed& testbed,
                                                uint64_t seed, int count) {
  TenantGenerator gen(testbed, seed);
  std::vector<std::vector<Tenant>> sets(static_cast<size_t>(count));
  for (std::vector<Tenant>& set : sets) {
    for (int i = 0; i < kTenants; ++i) set.push_back(gen.NextTenant());
  }
  return sets;
}

bool SameWorkload(const Workload& a, const Workload& b) {
  if (a.statements.size() != b.statements.size()) return false;
  for (size_t i = 0; i < a.statements.size(); ++i) {
    if (a.statements[i].query.name != b.statements[i].query.name ||
        a.statements[i].frequency != b.statements[i].frequency) {
      return false;
    }
  }
  return true;
}

}  // namespace svcbench
