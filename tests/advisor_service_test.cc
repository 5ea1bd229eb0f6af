// AdvisorService: event-queue FIFO under concurrent producers, warm
// repair bit-identity on no-op drift, targeted cache invalidation
// (only the drifted/departed tenant's entries go), admission onto the
// least-loaded machine, and graceful shutdown draining in-flight events.
#include "service/advisor_service.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <future>
#include <limits>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "advisor/advisor.h"
#include "scenario/scenario.h"
#include "util/event_queue.h"
#include "workload/tpch.h"

namespace vdba::service {
namespace {

using advisor::FleetMachine;
using advisor::QosSpec;
using advisor::Tenant;

// ---------------------------------------------------------------------------
// EventQueue
// ---------------------------------------------------------------------------

TEST(EventQueueTest, FifoUnderConcurrentProducers) {
  // 4 producers push (producer, seq) pairs concurrently; one consumer
  // drains. MPSC FIFO means each producer's pairs come out in seq order
  // (global interleaving across producers is unspecified).
  constexpr int kProducers = 4;
  constexpr int kPerProducer = 500;
  EventQueue<std::pair<int, int>> queue;

  std::vector<std::pair<int, int>> popped;
  std::thread consumer([&] {
    while (std::optional<std::pair<int, int>> item = queue.WaitPop()) {
      popped.push_back(*item);
    }
  });
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&queue, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        ASSERT_TRUE(queue.Push(std::make_pair(p, i)));
      }
    });
  }
  for (std::thread& t : producers) t.join();
  queue.Close();
  consumer.join();

  ASSERT_EQ(popped.size(), static_cast<size_t>(kProducers * kPerProducer));
  std::vector<int> next_seq(kProducers, 0);
  for (const auto& [producer, seq] : popped) {
    EXPECT_EQ(seq, next_seq[static_cast<size_t>(producer)])
        << "producer " << producer << " reordered";
    ++next_seq[static_cast<size_t>(producer)];
  }
}

TEST(EventQueueTest, CloseRefusesNewPushesButDrainsAcceptedOnes) {
  EventQueue<int> queue;
  for (int i = 0; i < 5; ++i) ASSERT_TRUE(queue.Push(int{i}));
  queue.Close();
  EXPECT_FALSE(queue.Push(int{99}));
  for (int i = 0; i < 5; ++i) {
    std::optional<int> got = queue.WaitPop();
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(*got, i);
  }
  EXPECT_FALSE(queue.WaitPop().has_value());
}

TEST(EventQueueTest, ProducersRacingCloseLoseNoEventAndLeakNoPromise) {
  // Regression for the Close() promise-completion path: 4 producers
  // hammer Push while the main thread closes mid-stream. The contract
  // under the race: every ACCEPTED event is drained (and its promise
  // resolved by the consumer), every REFUSED event stays with its
  // producer (Push does not consume on refusal) so the producer can
  // resolve its promise — the AdvisorService::Enqueue pattern. Nothing
  // may be lost or resolved twice.
  struct Item {
    int producer = -1;
    std::promise<int> done;
  };
  constexpr int kProducers = 4;
  constexpr int kPerProducer = 400;
  EventQueue<Item> queue;

  std::atomic<int> accepted{0};
  std::atomic<int> refused{0};
  std::vector<std::vector<std::future<int>>> futures(kProducers);
  std::atomic<int> drained{0};
  std::thread consumer([&] {
    while (std::optional<Item> item = queue.WaitPop()) {
      drained.fetch_add(1);
      item->done.set_value(1);  // handled
    }
  });
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    futures[static_cast<size_t>(p)].reserve(kPerProducer);
    producers.emplace_back([&, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        Item item;
        item.producer = p;
        futures[static_cast<size_t>(p)].push_back(item.done.get_future());
        if (queue.Push(std::move(item))) {
          accepted.fetch_add(1);
        } else {
          refused.fetch_add(1);
          item.done.set_value(0);  // refused — the producer completes it
        }
      }
    });
  }
  // Close somewhere in the middle of the hammering.
  while (accepted.load() < kPerProducer / 2) std::this_thread::yield();
  queue.Close();
  for (std::thread& t : producers) t.join();
  consumer.join();

  EXPECT_EQ(accepted.load() + refused.load(), kProducers * kPerProducer);
  EXPECT_EQ(drained.load(), accepted.load()) << "accepted event lost";
  int handled = 0;
  for (auto& per_producer : futures) {
    for (std::future<int>& f : per_producer) {
      ASSERT_EQ(f.wait_for(std::chrono::seconds(30)),
                std::future_status::ready)
          << "a promise never completed";
      handled += f.get();
    }
  }
  EXPECT_EQ(handled, accepted.load());
}

// ---------------------------------------------------------------------------
// AdvisorService
// ---------------------------------------------------------------------------

scenario::Testbed& TB() {
  static scenario::Testbed tb = [] {
    scenario::TestbedOptions options;
    options.with_sf10 = false;
    options.with_tpcc = false;
    return scenario::Testbed(options);
  }();
  return tb;
}

/// Tenant i: alternating CPU-hungry (Q18) / I/O-bound (Q21) TPC-H work,
/// sizes spread so machines are genuinely contended.
Tenant ServiceTenant(int i, double weight = 2.0) {
  scenario::Testbed& tb = TB();
  simdb::Workload w;
  w.AddStatement(workload::TpchQuery(tb.tpch_sf1(), i % 2 == 0 ? 18 : 21),
                 weight + i);
  return tb.MakeTenant(i % 2 == 0 ? tb.db2_sf1() : tb.pg_sf1(), w);
}

ServiceOptions SingleMachineOptions() {
  ServiceOptions options;
  // Keep single-machine tests migration-free regardless of saturation.
  options.saturation_threshold = std::numeric_limits<double>::infinity();
  return options;
}

TEST(AdvisorServiceTest, FirstArrivalMatchesColdBatchSolve) {
  AdvisorService service({FleetMachine{TB().machine()}},
                         SingleMachineOptions());
  EventOutcome out = service.SubmitArrival(ServiceTenant(0)).get();
  ASSERT_TRUE(out.ok) << out.error;
  EXPECT_EQ(out.tenant, 0);
  EXPECT_EQ(out.machine, 0);

  advisor::VirtualizationDesignAdvisor cold(TB().machine(),
                                            {ServiceTenant(0)});
  advisor::Recommendation want = cold.Recommend();
  FleetSnapshot snap = service.Snapshot();
  ASSERT_EQ(snap.allocations.size(), 1u);
  EXPECT_EQ(snap.allocations[0], want.allocations[0]);
  EXPECT_DOUBLE_EQ(snap.objective, want.objective);
}

TEST(AdvisorServiceTest, NoOpDriftReturnsTheIncumbentBitIdentical) {
  AdvisorService service({FleetMachine{TB().machine()}},
                         SingleMachineOptions());
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(service.SubmitArrival(ServiceTenant(i)).get().ok);
  }
  FleetSnapshot before = service.Snapshot();

  // Re-submit tenant 1's workload unchanged: the warm repair must
  // terminate at the incumbent and commit it bit-identically.
  EventOutcome out =
      service.SubmitDrift(1, ServiceTenant(1).workload).get();
  ASSERT_TRUE(out.ok) << out.error;
  EXPECT_EQ(out.machine, 0);

  FleetSnapshot after = service.Snapshot();
  ASSERT_EQ(after.allocations.size(), before.allocations.size());
  for (size_t i = 0; i < before.allocations.size(); ++i) {
    EXPECT_EQ(after.allocations[i], before.allocations[i]) << i;
    EXPECT_DOUBLE_EQ(after.estimated_seconds[i],
                     before.estimated_seconds[i])
        << i;
  }
  EXPECT_DOUBLE_EQ(after.objective, before.objective);
  EXPECT_EQ(after.violated_qos, before.violated_qos);
}

TEST(AdvisorServiceTest, DriftInvalidatesOnlyTheDriftedTenant) {
  AdvisorService service({FleetMachine{TB().machine()}},
                         SingleMachineOptions());
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(service.SubmitArrival(ServiceTenant(i)).get().ok);
  }
  const advisor::WhatIfCostEstimator* est = service.machine_estimator(0);
  ASSERT_NE(est, nullptr);
  const size_t obs0 = est->observations(0).size();
  const size_t obs1 = est->observations(1).size();
  const size_t obs2 = est->observations(2).size();
  ASSERT_GT(obs1, 0u);
  const long hits_before = est->cache_hits();

  // No-op drift on tenant 1 (slot 1): its log is cleared and repopulated
  // by the repair's probes; tenants 0 and 2 keep their logs EXACTLY —
  // every one of their repair probes must hit the still-warm cache.
  ASSERT_TRUE(service.SubmitDrift(1, ServiceTenant(1).workload).get().ok);

  EXPECT_EQ(est->observations(0).size(), obs0);
  EXPECT_EQ(est->observations(2).size(), obs2);
  EXPECT_GT(est->observations(1).size(), 0u);
  EXPECT_LE(est->observations(1).size(), obs1);
  EXPECT_GT(est->cache_hits(), hits_before);

  // Departure evicts the departing tenant's log; the survivors' stay.
  ASSERT_TRUE(service.SubmitDeparture(1).get().ok);
  EXPECT_EQ(est->observations(1).size(), 0u);
  EXPECT_GT(est->observations(0).size(), 0u);
  EXPECT_GT(est->observations(2).size(), 0u);
}

TEST(AdvisorServiceTest, DepartureRedistributesTheFreedShare) {
  AdvisorService service({FleetMachine{TB().machine()}},
                         SingleMachineOptions());
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(service.SubmitArrival(ServiceTenant(i)).get().ok);
  }
  FleetSnapshot before = service.Snapshot();
  ASSERT_TRUE(service.SubmitDeparture(0).get().ok);
  FleetSnapshot after = service.Snapshot();

  EXPECT_EQ(after.assignment[0], -1);
  EXPECT_EQ(after.active_tenants, 2);
  // The freed share must not stay stranded: each survivor ends at least
  // as well off as at its pre-departure allocation (the repair seeds
  // redistribute the share, and the keep-incumbent guard only ever
  // improves from there).
  for (int id : {1, 2}) {
    EXPECT_LE(after.estimated_seconds[static_cast<size_t>(id)],
              before.estimated_seconds[static_cast<size_t>(id)] + 1e-9)
        << id;
  }
}

TEST(AdvisorServiceTest, ArrivalsLandOnTheLeastLoadedFeasibleMachine) {
  scenario::Testbed& tb = TB();
  std::vector<FleetMachine> machines(
      2, FleetMachine{tb.machine(), &tb.pg_calibration(),
                      &tb.db2_calibration()});
  ServiceOptions options;
  options.saturation_threshold = std::numeric_limits<double>::infinity();
  AdvisorService service(machines, options);

  // First tenant: both machines idle, FFD ties to machine 0. Second:
  // machine 0 now carries load, so the least-loaded outcome is machine 1.
  EventOutcome first = service.SubmitArrival(ServiceTenant(0, 8.0)).get();
  ASSERT_TRUE(first.ok) << first.error;
  EXPECT_EQ(first.machine, 0);
  EventOutcome second = service.SubmitArrival(ServiceTenant(1, 8.0)).get();
  ASSERT_TRUE(second.ok) << second.error;
  EXPECT_EQ(second.machine, 1);

  FleetSnapshot snap = service.Snapshot();
  EXPECT_EQ(snap.active_tenants, 2);
  EXPECT_EQ(snap.assignment, (std::vector<int>{0, 1}));
}

TEST(AdvisorServiceTest, StopDrainsInFlightEventsAndRefusesLaterOnes) {
  AdvisorService service({FleetMachine{TB().machine()}},
                         SingleMachineOptions());
  // Queue a burst and stop immediately: every accepted event must still
  // be handled (Close() starts the drain, it does not drop).
  std::vector<std::future<EventOutcome>> futures;
  for (int i = 0; i < 4; ++i) {
    futures.push_back(service.SubmitArrival(ServiceTenant(i)));
  }
  service.Stop();
  for (size_t i = 0; i < futures.size(); ++i) {
    EventOutcome out = futures[i].get();
    EXPECT_TRUE(out.ok) << i << ": " << out.error;
  }
  EXPECT_EQ(service.Snapshot().active_tenants, 4);
  EXPECT_EQ(service.Snapshot().events_handled, 4);

  EventOutcome refused = service.SubmitArrival(ServiceTenant(9)).get();
  EXPECT_FALSE(refused.ok);
  EXPECT_EQ(refused.error, "service stopped");
}

TEST(AdvisorServiceTest, InvalidEventsAreRefusedWithoutStateDamage) {
  AdvisorService service({FleetMachine{TB().machine()}},
                         SingleMachineOptions());
  ASSERT_TRUE(service.SubmitArrival(ServiceTenant(0)).get().ok);
  FleetSnapshot before = service.Snapshot();

  EXPECT_FALSE(service.SubmitDeparture(7).get().ok);
  EXPECT_FALSE(service.SubmitDrift(-1, ServiceTenant(0).workload).get().ok);
  Tenant engineless;
  // A workload, so the refusal comes from the loop's engine check (an
  // empty workload is refused at submission and never counted).
  engineless.workload = ServiceTenant(0).workload;
  EXPECT_FALSE(service.SubmitArrival(engineless).get().ok);

  FleetSnapshot after = service.Snapshot();
  EXPECT_EQ(after.active_tenants, before.active_tenants);
  EXPECT_DOUBLE_EQ(after.objective, before.objective);
  // Refused events still count as handled (they went through the loop).
  EXPECT_EQ(after.events_handled, before.events_handled + 3);
}

TEST(AdvisorServiceTest, MalformedSubmissionsAreRefusedAtSubmission) {
  // Regressions: a NaN frequency used to reach FirstFitDecreasingPolicy as
  // a NaN demand row and write out of bounds (the nightly ASan job runs
  // this suite), and a NaN gain factor was accepted and kept the fleet
  // objective NaN from then on. Default options keep migration armed on
  // a two-machine fleet, the configuration that reached the overflow.
  scenario::Testbed& tb = TB();
  std::vector<FleetMachine> machines(
      2, FleetMachine{tb.machine(), &tb.pg_calibration(),
                      &tb.db2_calibration()});
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  for (int workers : {1, 2}) {
    SCOPED_TRACE("workers=" + std::to_string(workers));
    ServiceOptions options;
    options.workers = workers;
    AdvisorService service(machines, options);
    for (int i = 0; i < 2; ++i) {
      ASSERT_TRUE(service.SubmitArrival(ServiceTenant(i)).get().ok);
    }
    FleetSnapshot before = service.Snapshot();

    auto expect_refused = [](EventOutcome out, const char* reason) {
      EXPECT_FALSE(out.ok);
      EXPECT_NE(out.error.find(reason), std::string::npos) << out.error;
    };
    for (double bad : {nan, inf, -1.0}) {
      Tenant tenant = ServiceTenant(2);
      tenant.workload.statements.back().frequency = bad;
      expect_refused(service.SubmitArrival(tenant).get(), "frequency");
      expect_refused(service.SubmitDrift(0, tenant.workload).get(),
                     "frequency");
    }
    for (double bad : {nan, inf, -inf, 0.0, -2.0}) {
      Tenant tenant = ServiceTenant(2);
      tenant.qos.gain_factor = bad;
      expect_refused(service.SubmitArrival(tenant).get(), "gain_factor");
    }
    for (double bad : {nan, -1.0, -inf}) {
      Tenant tenant = ServiceTenant(2);
      tenant.qos.degradation_limit = bad;
      expect_refused(service.SubmitArrival(tenant).get(),
                     "degradation_limit");
    }
    Tenant empty = ServiceTenant(2);
    empty.workload.statements.clear();
    expect_refused(service.SubmitArrival(empty).get(), "no statements");
    expect_refused(service.SubmitDrift(0, simdb::Workload()).get(),
                   "no statements");

    // Refused at submission: nothing entered the queue or touched state.
    FleetSnapshot after = service.Snapshot();
    EXPECT_EQ(after.assignment, before.assignment);
    EXPECT_EQ(after.allocations, before.allocations);
    EXPECT_EQ(after.estimated_seconds, before.estimated_seconds);
    EXPECT_EQ(after.violated_qos, before.violated_qos);
    EXPECT_EQ(after.objective, before.objective);
    EXPECT_EQ(after.events_handled, before.events_handled);

    // The boundary values stay valid: a zero frequency is an idle
    // statement, and an unconstrained tenant with a heavy gain factor is
    // admitted with a finite objective.
    Tenant idle = ServiceTenant(2);
    idle.workload.AddStatement(idle.workload.statements.front().query, 0.0);
    idle.qos.gain_factor = 3.0;
    idle.qos.degradation_limit = inf;
    EventOutcome ok = service.SubmitArrival(idle).get();
    ASSERT_TRUE(ok.ok) << ok.error;
    EXPECT_TRUE(std::isfinite(ok.objective));
  }
}

TEST(AdvisorServiceTest, AcceptedMigrationRepairsBothMachines) {
  // A migration trial repairs its source and destination at once; an
  // accepted move must commit both. Right after each migrating event,
  // every active tenant — the mover included — carries a positive
  // estimate from the machine it ended on (an unrepaired destination
  // would leave the mover at its placeholder cost of 0).
  scenario::Testbed& tb = TB();
  std::vector<FleetMachine> machines(
      2, FleetMachine{tb.machine(), &tb.pg_calibration(),
                      &tb.db2_calibration()});
  for (int workers : {1, 2}) {
    SCOPED_TRACE("workers=" + std::to_string(workers));
    ServiceOptions options;  // migration armed by default
    options.workers = workers;
    AdvisorService service(machines, options);
    int migrations = 0;
    for (int i = 0; i < 8; ++i) {
      EventOutcome out = service.SubmitArrival(ServiceTenant(i)).get();
      ASSERT_TRUE(out.ok) << out.error;
      if (out.migrations == 0) continue;
      migrations += out.migrations;
      FleetSnapshot snap = service.Snapshot();
      for (size_t id = 0; id < snap.assignment.size(); ++id) {
        EXPECT_GT(snap.estimated_seconds[id], 0.0) << "tenant " << id;
      }
    }
    EXPECT_GT(migrations, 0);
  }
}

// ---------------------------------------------------------------------------
// Multi-worker service: the repair-quality assertions above must hold
// verbatim with several lane workers repairing concurrently.
// ---------------------------------------------------------------------------

ServiceOptions TwoMachineOptions(int workers) {
  ServiceOptions options;
  options.saturation_threshold = std::numeric_limits<double>::infinity();
  options.workers = workers;
  return options;
}

std::vector<FleetMachine> TwoMachines() {
  scenario::Testbed& tb = TB();
  return std::vector<FleetMachine>(
      2, FleetMachine{tb.machine(), &tb.pg_calibration(),
                      &tb.db2_calibration()});
}

TEST(AdvisorServiceMultiWorkerTest, NoOpDriftBitIdenticalUnderShardedLoop) {
  for (int workers : {2, 4}) {
    SCOPED_TRACE("workers=" + std::to_string(workers));
    AdvisorService service(TwoMachines(), TwoMachineOptions(workers));
    for (int i = 0; i < 4; ++i) {
      ASSERT_TRUE(service.SubmitArrival(ServiceTenant(i)).get().ok);
    }
    FleetSnapshot before = service.Snapshot();

    EventOutcome out =
        service.SubmitDrift(1, ServiceTenant(1).workload).get();
    ASSERT_TRUE(out.ok) << out.error;

    FleetSnapshot after = service.Snapshot();
    ASSERT_EQ(after.allocations.size(), before.allocations.size());
    EXPECT_EQ(after.assignment, before.assignment);
    for (size_t i = 0; i < before.allocations.size(); ++i) {
      EXPECT_EQ(after.allocations[i], before.allocations[i]) << i;
      EXPECT_DOUBLE_EQ(after.estimated_seconds[i],
                       before.estimated_seconds[i])
          << i;
    }
    EXPECT_DOUBLE_EQ(after.objective, before.objective);
    EXPECT_EQ(after.violated_qos, before.violated_qos);
  }
}

TEST(AdvisorServiceMultiWorkerTest, DepartureRedistributesUnderShardedLoop) {
  for (int workers : {2, 4}) {
    SCOPED_TRACE("workers=" + std::to_string(workers));
    AdvisorService service(TwoMachines(), TwoMachineOptions(workers));
    for (int i = 0; i < 4; ++i) {
      ASSERT_TRUE(service.SubmitArrival(ServiceTenant(i)).get().ok);
    }
    FleetSnapshot before = service.Snapshot();
    EventOutcome out = service.SubmitDeparture(0).get();
    ASSERT_TRUE(out.ok) << out.error;
    FleetSnapshot after = service.Snapshot();

    EXPECT_EQ(after.assignment[0], -1);
    EXPECT_EQ(after.active_tenants, 3);
    // The departed tenant's machine-mates absorb the freed share: no
    // survivor of that machine ends worse than its pre-departure cost;
    // tenants on OTHER machines are untouched bit-identically (lanes are
    // machine-local).
    for (size_t id = 1; id < 4; ++id) {
      if (before.assignment[id] == out.machine) {
        EXPECT_LE(after.estimated_seconds[id],
                  before.estimated_seconds[id] + 1e-9)
            << id;
      } else {
        EXPECT_EQ(after.allocations[id], before.allocations[id]) << id;
        EXPECT_DOUBLE_EQ(after.estimated_seconds[id],
                         before.estimated_seconds[id])
            << id;
      }
    }
  }
}

}  // namespace
}  // namespace vdba::service
