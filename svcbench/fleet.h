// The benchmark's inputs: the fleet it runs on and the seeded tenant and
// event schedules it feeds to the system.
//
// Everything the system receives is generated here from a seed, so two
// runs with one seed hand the service, the fleet advisor and the kernel
// bit-identical inputs.
#ifndef SVCBENCH_FLEET_H_
#define SVCBENCH_FLEET_H_

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "advisor/fleet_advisor.h"
#include "advisor/tenant.h"
#include "scenario/scenario.h"
#include "simdb/workload.h"

namespace svcbench {

inline constexpr int kMachines = 8;
inline constexpr int kTenants = 64;

/// The three machine classes of the fleet (balanced, 4x faster NIC,
/// 1.5x CPU), each with its own calibrated testbed.
struct FleetClasses {
  std::vector<std::unique_ptr<vdba::scenario::Testbed>> testbeds;

  /// The testbed tenants are built against (the balanced class).
  const vdba::scenario::Testbed& home() const { return *testbeds[0]; }
};

/// Builds and calibrates the three machine classes.
FleetClasses MakeFleetClasses();

/// kMachines machines cycling through the classes.
std::vector<vdba::advisor::FleetMachine> MakeFleet(const FleetClasses& classes);

/// Deterministic splitmix64 stream.
class SplitMix {
 public:
  explicit SplitMix(uint64_t seed) : state_(seed) {}
  uint64_t Next();
  /// Uniform integer in [lo, hi].
  int Int(int lo, int hi);
  /// Fisher-Yates shuffle.
  template <typename T>
  void Shuffle(std::vector<T>* v) {
    for (int i = static_cast<int>(v->size()) - 1; i > 0; --i) {
      std::swap((*v)[static_cast<size_t>(i)], (*v)[static_cast<size_t>(Int(0, i))]);
    }
  }

 private:
  uint64_t state_;
};

/// The tenant population of bench/service_events.cc (MakeFleetTenants):
/// kTenants TPC-H mixes of five to eight statements over templates 1, 3,
/// 6, 12, 14, 18 and 21 at frequencies 1-4; the even-numbered tenants run
/// on PostgreSQL and add a data-shipping extract at frequency 4, the odd
/// ones on DB2; every eighth tenant has a degradation limit of 6.
std::vector<vdba::advisor::Tenant> FleetTenants(
    const vdba::scenario::Testbed& testbed);

/// Seeded tenant factory over FleetTenants.
///
/// Tenants are dealt from a seeded deck holding each FleetTenants entry
/// once, drift workloads from a second deck of their workloads and drift
/// targets from a third deck of the kTenants prefill ids; a deck is
/// reshuffled when exhausted. So every block of kTenants draws is the same
/// population, and every tenant drifts once per block of kTenants drifts,
/// whatever the seed; the seed decides the order and the pairings. This
/// keeps the amount of work steady across seeds while the schedule varies.
class TenantGenerator {
 public:
  TenantGenerator(const vdba::scenario::Testbed& testbed, uint64_t seed);

  vdba::advisor::Tenant NextTenant();
  /// The next population workload, for a drift.
  vdba::simdb::Workload NextWorkload();
  /// The next prefill id in [0, kTenants), for a drift.
  int NextDriftTarget();

 private:
  /// The indices 0..kTenants-1, dealt in seeded order.
  struct Deck {
    std::vector<int> cards;
    size_t next = 0;
  };
  int Deal(Deck* deck);

  SplitMix rng_;
  std::vector<vdba::advisor::Tenant> population_;
  Deck tenants_, workloads_, targets_;
};

enum class EventKind { kArrival, kDrift };

/// One scheduled event. Arrival ids are the ids the service assigns
/// (ids are handed out in arrival order and never reused), so a schedule
/// names departure and drift targets without asking the service.
struct ScheduledEvent {
  EventKind kind = EventKind::kDrift;
  int tenant_id = -1;
  vdba::advisor::Tenant tenant;      // arrival payload
  vdba::simdb::Workload workload;    // drift payload
};

/// A prefill of kTenants arrivals followed by seeded events.
struct Schedule {
  std::vector<vdba::advisor::Tenant> prefill;
  std::vector<ScheduledEvent> events;
  /// Every tenant the schedule ever admits, indexed by id, with its
  /// workload after the last drift (departed tenants included).
  std::vector<vdba::advisor::Tenant> final_tenants;
  std::vector<bool> final_active;
};

/// `drift_burst` events: drifts of dealt tenants to dealt workloads.
Schedule MakeDriftSchedule(const vdba::scenario::Testbed& testbed,
                           uint64_t seed, int events);

/// `batch_solve` inputs: `count` independent tenant sets of kTenants.
std::vector<std::vector<vdba::advisor::Tenant>> MakeTenantSets(
    const vdba::scenario::Testbed& testbed, uint64_t seed, int count);

/// True when two workloads have the same statements, templates and
/// frequencies (the self-test).
bool SameWorkload(const vdba::simdb::Workload& a,
                  const vdba::simdb::Workload& b);

}  // namespace svcbench

#endif  // SVCBENCH_FLEET_H_
