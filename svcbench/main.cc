// svcbench: the advisor service under default options, end to end and
// layer by layer.
//
//   svcbench --workload drift_burst|batch_solve --seed N
//            --seconds S --trace 0|1 [--trace-dir DIR]
//
// Each workload runs in rounds. A round sets the system up from scratch
// (calibrated machine classes, the seeded inputs, and for the service a
// prefill to kTenants tenants), then runs the inputs' operations. The
// seed yields kVariants input sets and round r runs set r % kVariants, so
// one run averages over several schedules. A round must end in the state
// the same set's first round ended in, bit for bit, and the figures that
// should repeat bit for bit (decision quality, share sums, QoS verdicts,
// counts) are read from the first pass over the sets. Rounds repeat until
// S seconds of operations have been timed and every set has run twice.
//
// Timings pool every round's samples; percentiles are taken over the
// pool.
//
// With --trace 0 the last line holds the end-to-end metrics. With
// --trace 1 the run times the minimum rounds untraced, then again with
// spans and counters, then replays the layers on the final inputs; the
// last line holds the per-layer metrics. See README.md for what each
// metric is and which end-to-end metric it should move.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <future>
#include <memory>
#include <string>
#include <vector>

#include "advisor/fleet_advisor.h"
#include "checks.h"
#include "fleet.h"
#include "measure.h"
#include "service/advisor_service.h"
#include "trace.h"

namespace svcbench {
namespace {

using vdba::advisor::FleetAdvisor;
using vdba::advisor::FleetMachine;
using vdba::advisor::FleetRecommendation;
using vdba::advisor::Tenant;
using vdba::service::AdvisorService;
using vdba::service::EventOutcome;
using vdba::service::FleetSnapshot;
using vdba::service::ServiceOptions;

/// Input sets a run cycles through.
constexpr int kVariants = 4;
/// Drifts per drift_burst backlog: each prefill tenant drifts four times.
constexpr int kBurstEvents = 4 * kTenants;
/// drift_burst's serial replay samples the fleet state this often.
constexpr int kBurstSampleEvery = 20;
/// Tenant sets solved per batch_solve round.
constexpr int kSetsPerRound = 25;
/// drift_burst repair workers: with the generator and the dispatcher
/// this keeps the benchmark within four hardware threads.
constexpr int kBurstWorkers = 2;

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::string trace_dir;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  bool seed = false, seconds = false, trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      args->workload = value;
    } else if (key == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
      seed = *end == '\0' && !value.empty();
    } else if (key == "--seconds") {
      args->seconds = std::strtod(value.c_str(), &end);
      seconds = *end == '\0' && args->seconds > 0.0;
    } else if (key == "--trace") {
      args->trace = value == "1";
      trace = value == "0" || value == "1";
    } else if (key == "--trace-dir") {
      args->trace_dir = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && seed && seconds && trace &&
         (args->workload == "drift_burst" || args->workload == "batch_solve");
}

/// The timed operations of one round (or of several, pooled).
struct Timing {
  std::vector<double> latency_ms;
  double timed_s = 0.0;  // wall time of the timed loops
  double cpu_s = 0.0;    // process CPU time of the timed loops
  long ops = 0;

  void Add(const Timing& other);
};

void Timing::Add(const Timing& other) {
  latency_ms.insert(latency_ms.end(), other.latency_ms.begin(), other.latency_ms.end());
  timed_s += other.timed_s;
  cpu_s += other.cpu_s;
  ops += other.ops;
}

/// Everything one workload run measured.
struct Measured {
  long attempted = 0;
  long failed = 0;
  std::vector<double> setup_s;      // one per round
  std::vector<double> calibrate_s;  // one per round
  std::vector<Timing> rounds;
  // Observed fleet states of the first pass (deterministic).
  std::vector<double> objectives;
  std::vector<double> slowdowns;   // objective / BestAloneSeconds
  std::vector<double> share_sums;  // MaxShareSum
  long qos_violations = 0;         // final states (batch_solve: every solve)
  // Service counters of the first pass; estimator deltas in traced runs.
  long events = 0;
  long migrations = 0;
  long optimizer_calls = 0;
  long cache_hits = 0;
  double drain_s = 0.0;
  // Round 0's machines and final state, for the layer replays; `classes`
  // owns the engines and calibrations they point into.
  FleetClasses classes;
  std::vector<FleetMachine> fleet;
  std::vector<Tenant> final_tenants;
  std::vector<int> final_assignment;
};

std::future<EventOutcome> Submit(AdvisorService* svc, const ScheduledEvent& ev) {
  switch (ev.kind) {
    case EventKind::kArrival: return svc->SubmitArrival(ev.tenant);
    case EventKind::kDrift: return svc->SubmitDrift(ev.tenant_id, ev.workload);
  }
  return {};
}

/// Estimator counters summed over the service's machines. Only read while
/// no event is in flight.
std::pair<long, long> EstimatorCounters(const AdvisorService& svc) {
  long calls = 0, hits = 0;
  for (int m = 0; m < svc.num_machines(); ++m) {
    if (const auto* est = svc.machine_estimator(m)) {
      calls += est->optimizer_calls();
      hits += est->cache_hits();
    }
  }
  return {calls, hits};
}

/// Fresh calibrated machine classes, timed into `out`.
FleetClasses Calibrate(Measured* out) {
  const double start = Now();
  FleetClasses classes = MakeFleetClasses();
  out->calibrate_s.push_back(Now() - start);
  return classes;
}

/// Keeps round 0's machines alive for the replays.
void Keep(int round, FleetClasses classes, const std::vector<FleetMachine>& fleet,
          Measured* out) {
  if (round != 0) return;
  out->fleet = fleet;
  out->classes = std::move(classes);
}

/// Checks one observed fleet state and, in the first pass, folds its
/// quality figures in.
void Observe(int round, const FleetState& state,
             const std::vector<FleetMachine>& fleet,
             const std::vector<Tenant>& tenants, const std::vector<bool>& active,
             Result* result, Measured* out) {
  const std::string why = CheckState(state, kMachines, tenants, active);
  if (!why.empty()) result->Fail("round " + std::to_string(round) + ": " + why);
  if (round >= kVariants) return;
  out->objectives.push_back(state.objective);
  out->slowdowns.push_back(state.objective / BestAloneSeconds(fleet, tenants, active));
  out->share_sums.push_back(MaxShareSum(state, kMachines));
}

/// A service holding the schedule's prefill, every arrival checked.
std::unique_ptr<AdvisorService> Prefilled(const std::vector<FleetMachine>& fleet,
                                          const Schedule& schedule, int workers,
                                          Result* result, Measured* out) {
  ServiceOptions options;
  options.workers = workers;
  auto svc = std::make_unique<AdvisorService>(fleet, options);
  for (size_t i = 0; i < schedule.prefill.size(); ++i) {
    EventOutcome o = svc->SubmitArrival(schedule.prefill[i]).get();
    ++out->attempted;
    if (!o.ok || o.tenant != static_cast<int>(i)) {
      ++out->failed;
      result->Fail("prefill arrival " + std::to_string(i) + ": " + o.error);
    }
  }
  return svc;
}

/// Checks a round's final snapshot: the event count, and bitwise equality
/// with the first round of the same input set.
void FinishServiceRound(int round, const FleetSnapshot& snap,
                        const Schedule& schedule, FleetSnapshot* first,
                        Result* result, Measured* out) {
  const long expected_events =
      static_cast<long>(schedule.prefill.size() + schedule.events.size());
  if (snap.events_handled != expected_events) {
    result->Fail("service handled " + std::to_string(snap.events_handled) +
                 " events, expected " + std::to_string(expected_events));
  }
  if (round == 0) {
    out->final_tenants = schedule.final_tenants;
    out->final_assignment = snap.assignment;
  }
  if (round < kVariants) {
    out->qos_violations += static_cast<long>(snap.violated_qos.size());
    *first = snap;
  } else if (!SnapshotsBitIdentical(snap, *first)) {
    result->Fail("round " + std::to_string(round) + " final snapshot differs from round " +
                 std::to_string(round % kVariants) + "'s");
  }
}

/// What a backlog drain produced.
struct Backlog {
  std::vector<EventOutcome> outcomes;
  std::vector<double> latency_ms;  // resolution minus submission
  double drain_s = 0.0;            // first submission to last resolution
  double cpu_s = 0.0;
};

/// Submits every event of `events` without waiting, then waits for all.
Backlog DrainBacklog(AdvisorService* svc, const std::vector<ScheduledEvent>& events,
                     long request, Tracer* tracer) {
  Backlog b;
  std::vector<std::future<EventOutcome>> futures;
  std::vector<double> submitted;
  const double start = Now();
  const double cpu_start = CpuNow();
  for (size_t i = 0; i < events.size(); ++i) {
    ScopedSpan span(tracer, "service.submit", request + static_cast<long>(i));
    submitted.push_back(Now());
    futures.push_back(Submit(svc, events[i]));
  }
  ScopedSpan span(tracer, "service.drain", request);
  for (size_t i = 0; i < futures.size(); ++i) {
    b.outcomes.push_back(futures[i].get());
    b.latency_ms.push_back((Now() - submitted[i]) * 1e3);
  }
  b.drain_s = Now() - start;
  b.cpu_s = CpuNow() - cpu_start;
  return b;
}

/// Counts a drain's events into `out`.
void CountBacklog(const Backlog& b, Result* result, Measured* out) {
  for (size_t i = 0; i < b.outcomes.size(); ++i) {
    ++out->attempted;
    if (!b.outcomes[i].ok) {
      ++out->failed;
      result->Fail("event " + std::to_string(i) + " failed: " + b.outcomes[i].error);
    }
  }
}

/// drift_burst: a backlog of drifts submitted at once, workers=2. The
/// first pass also replays each schedule at workers=1, one event at a
/// time: it must land on the same bits, and the states it passes through
/// are the decision-quality samples.
void BurstRound(int round, uint64_t seed, Tracer* tracer, FleetSnapshot* first,
                Result* result, Measured* out) {
  const double setup_start = Now();
  FleetClasses classes = Calibrate(out);
  const std::vector<FleetMachine> fleet = MakeFleet(classes);
  const Schedule schedule =
      MakeDriftSchedule(classes.home(), seed, kBurstEvents);
  std::unique_ptr<AdvisorService> svc =
      Prefilled(fleet, schedule, kBurstWorkers, result, out);
  out->setup_s.push_back(Now() - setup_start);

  const std::pair<long, long> before = EstimatorCounters(*svc);
  const Backlog b = DrainBacklog(svc.get(), schedule.events,
                                 static_cast<long>(round) * 100000, tracer);
  CountBacklog(b, result, out);
  Timing& timing = out->rounds.emplace_back();
  timing.latency_ms = b.latency_ms;
  timing.timed_s = b.drain_s;
  timing.cpu_s = b.cpu_s;
  timing.ops = static_cast<long>(b.outcomes.size());
  const FleetSnapshot snap = svc->Snapshot();
  if (round < kVariants) {
    for (const EventOutcome& o : b.outcomes) out->migrations += o.migrations;
    out->events += static_cast<long>(b.outcomes.size());
    out->drain_s += b.drain_s;
    if (tracer != nullptr) {
      const std::pair<long, long> after = EstimatorCounters(*svc);
      out->optimizer_calls += after.first - before.first;
      out->cache_hits += after.second - before.second;
    }
  }
  svc.reset();
  const std::string why = CheckState(StateOf(snap), kMachines, schedule.final_tenants,
                                     schedule.final_active);
  if (!why.empty()) result->Fail("round " + std::to_string(round) + ": " + why);

  if (round < kVariants) {
    std::unique_ptr<AdvisorService> serial = Prefilled(fleet, schedule, 1, result, out);
    std::vector<Tenant> tenants = schedule.prefill;
    const std::vector<bool> all_active(tenants.size(), true);
    Observe(round, StateOf(serial->Snapshot()), fleet, tenants, all_active, result, out);
    for (size_t i = 0; i < schedule.events.size(); ++i) {
      const ScheduledEvent& ev = schedule.events[i];
      const EventOutcome o = Submit(serial.get(), ev).get();
      ++out->attempted;
      if (!o.ok) {
        ++out->failed;
        result->Fail("replayed drift " + std::to_string(i) + " failed: " + o.error);
      }
      tenants[static_cast<size_t>(ev.tenant_id)].workload = ev.workload;
      if ((i + 1) % kBurstSampleEvery == 0) {
        Observe(round, StateOf(serial->Snapshot()), fleet, tenants, all_active,
                result, out);
      }
    }
    if (!SnapshotsBitIdentical(snap, serial->Snapshot())) {
      result->Fail("workers=" + std::to_string(kBurstWorkers) +
                   " final snapshot differs from the workers=1 replay");
    }
  }
  FinishServiceRound(round, snap, schedule, first, result, out);
  Keep(round, std::move(classes), fleet, out);
}

/// batch_solve: back-to-back cold FleetAdvisor solves, default options.
void BatchRound(int round, uint64_t seed, Tracer* tracer,
                std::vector<FleetRecommendation>* first, Result* result,
                Measured* out) {
  const double setup_start = Now();
  FleetClasses classes = Calibrate(out);
  const std::vector<FleetMachine> fleet = MakeFleet(classes);
  const std::vector<std::vector<Tenant>> sets =
      MakeTenantSets(classes.home(), seed, kSetsPerRound);
  // One untimed solve first: thread pools and first-touch allocation are
  // set-up, not per-solve cost.
  FleetAdvisor(fleet, sets[0]).Recommend();
  out->setup_s.push_back(Now() - setup_start);

  const std::vector<bool> all_active(kTenants, true);
  Timing& timing = out->rounds.emplace_back();
  for (size_t i = 0; i < sets.size(); ++i) {
    const long request = static_cast<long>(round) * 100000 + static_cast<long>(i);
    const double start = Now();
    const double cpu_start = CpuNow();
    FleetRecommendation rec;
    {
      ScopedSpan span(tracer, "fleet.recommend", request);
      rec = FleetAdvisor(fleet, sets[i]).Recommend();
    }
    const double seconds = Now() - start;
    timing.cpu_s += CpuNow() - cpu_start;
    timing.timed_s += seconds;
    timing.latency_ms.push_back(seconds * 1e3);
    ++timing.ops;
    ++out->attempted;

    const FleetState state = StateOf(rec);
    const double share_sum = MaxShareSum(state, kMachines);
    if (share_sum > 1.0 + kShareSumTol) {
      ++out->failed;
      result->Fail("solve " + std::to_string(i) + ": a machine's shares sum to " +
                   std::to_string(share_sum));
    }
    Observe(round, state, fleet, sets[i], all_active, result, out);
    if (round == 0 && i == 0) {
      out->final_tenants = sets[i];
      out->final_assignment = rec.assignment;
    }
    if (round < kVariants) {
      out->qos_violations += static_cast<long>(rec.violated_qos.size());
      first->push_back(std::move(rec));
    } else if (!RecommendationsBitIdentical(rec, (*first)[i])) {
      result->Fail("round " + std::to_string(round) + " solve " + std::to_string(i) +
                   " differs from round " + std::to_string(round % kVariants) + "'s");
    }
  }
  Keep(round, std::move(classes), fleet, out);
}

/// Every input set runs twice, so each is checked against its repeat;
/// the pool then holds at least 200 operations.
constexpr int kMinRounds = 2 * kVariants;

/// The seed of input set `variant`: disjoint across run seeds.
uint64_t VariantSeed(uint64_t seed, int variant) {
  return seed * kVariants + static_cast<uint64_t>(variant);
}

/// Runs `rounds` rounds, or with rounds == 0 until `seconds` of
/// operations are timed and the minimum is met.
Measured RunWorkload(const Args& args, Tracer* tracer, int rounds,
                     Result* result) {
  Measured out;
  std::vector<FleetSnapshot> snaps(kVariants);
  std::vector<std::vector<FleetRecommendation>> recs(kVariants);
  double timed_s = 0.0;
  for (int r = 0;; ++r) {
    const bool done = rounds > 0 ? r >= rounds
                                 : r >= kMinRounds && timed_s >= args.seconds;
    if (done) break;
    const int v = r % kVariants;
    const uint64_t seed = VariantSeed(args.seed, v);
    if (args.workload == "drift_burst") {
      BurstRound(r, seed, tracer, &snaps[v], result, &out);
    } else {
      BatchRound(r, seed, tracer, &recs[v], result, &out);
    }
    timed_s += out.rounds.back().timed_s;
  }
  return out;
}

/// Every round's timings, pooled.
Timing Pooled(const Measured& m) {
  Timing pooled;
  for (const Timing& t : m.rounds) pooled.Add(t);
  return pooled;
}

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// Prints one timing line; false when a percentile lacks its samples.
bool Report(const std::string& name, const std::vector<double>& samples,
            double* p50, double* p90) {
  const bool ok = Percentile(samples, 0.5, p50) && Percentile(samples, 0.9, p90);
  std::printf("  %-10s n=%-5zu p50=%9.3f ms  p90=%9.3f ms%s\n", name.c_str(),
              samples.size(), *p50, *p90, ok ? "" : "  (too few samples)");
  return ok;
}

int EndToEnd(const Args& args) {
  Result result;
  const Measured m = RunWorkload(args, nullptr, 0, &result);
  result.attempted = m.attempted;
  result.failed = m.failed;

  const Timing pooled = Pooled(m);
  std::printf("svcbench %s seed=%llu rounds=%zu: timed %.3f s, %ld ops\n",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed),
              m.rounds.size(), pooled.timed_s, pooled.ops);
  double p50 = 0.0, p90 = 0.0;
  if (!Report("all", pooled.latency_ms, &p50, &p90)) result.Fail("too few latency samples");
  std::printf("  %zu states: objective %.6f s, slowdown %.6f, max share sum %.6f\n",
              m.objectives.size(), Mean(m.objectives), Mean(m.slowdowns),
              Mean(m.share_sums));

  result.Set("setup_s", Median(m.setup_s), "s");
  result.Set("latency_ms_p50", p50, "ms");
  result.Set("latency_ms_p90", p90, "ms");
  result.Set("ops_per_s", Ratio(pooled.ops, pooled.timed_s), "1/s");
  result.Set("cpu_ms_per_op", Ratio(pooled.cpu_s * 1e3, pooled.ops), "ms");
  result.Set("fleet_slowdown", Mean(m.slowdowns), "x");
  result.Set("share_sum_max", Mean(m.share_sums), "share");
  std::printf("%s\n", result.Json().c_str());
  return 0;
}

int PerLayer(const Args& args) {
  Result result;
  const Measured plain = RunWorkload(args, nullptr, kMinRounds, &result);
  Tracer tracer;
  Measured m = RunWorkload(args, &tracer, kMinRounds, &result);

  // Layer replays on round 0's final inputs. Every replay is a cold
  // default-options solve: on drift_burst it prices the final state
  // afresh and does not retrace the service's warm repairs, so its
  // search.*, simdb.* and estimator.probes/hit_ratio figures describe the
  // cold path batch_solve times.
  const long replay = 900000;
  std::vector<Tenant> active;
  for (size_t id = 0; id < m.final_assignment.size(); ++id) {
    if (m.final_assignment[id] >= 0) active.push_back(m.final_tenants[id]);
  }
  int columns = 0;
  {
    FleetAdvisor probe(m.fleet, active);
    ScopedSpan span(&tracer, "fleet.probe_demand", replay);
    probe.ProbeDemandMatrix();
    columns = probe.demand_columns_probed();
  }
  FleetRecommendation fleet_rec;
  {
    ScopedSpan span(&tracer, "fleet.recommend", replay);
    fleet_rec = FleetAdvisor(m.fleet, active).Recommend();
  }
  const SolveReplay solves =
      ReplaySolves(m.fleet, m.final_tenants, m.final_assignment, &tracer, replay);
  if (args.workload == "batch_solve") {
    // The service layer on this workload's inputs: one tenant set arriving
    // as a backlog.
    std::vector<ScheduledEvent> arrivals(m.final_tenants.size());
    for (size_t i = 0; i < arrivals.size(); ++i) {
      arrivals[i].kind = EventKind::kArrival;
      arrivals[i].tenant = m.final_tenants[i];
    }
    AdvisorService svc(m.fleet);
    const Backlog b = DrainBacklog(&svc, arrivals, replay + 1000, &tracer);
    CountBacklog(b, &result, &m);
    for (const EventOutcome& o : b.outcomes) m.migrations += o.migrations;
    m.events += static_cast<long>(b.outcomes.size());
    m.drain_s += b.drain_s;
  }
  result.attempted = plain.attempted + m.attempted;
  result.failed = plain.failed + m.failed;

  double plain_p50 = 0.0, traced_p50 = 0.0, submit_p50 = 0.0;
  if (!Percentile(Pooled(plain).latency_ms, 0.5, &plain_p50) ||
      !Percentile(Pooled(m).latency_ms, 0.5, &traced_p50)) {
    result.Fail("too few latency samples");
  }
  std::vector<double> submit_us;
  for (const Span& s : tracer.spans()) {
    if (s.name == "service.submit") submit_us.push_back((s.end - s.start) * 1e6);
  }
  if (!Percentile(submit_us, 0.5, &submit_p50)) result.Fail("too few submit spans");

  // Estimator counts per operation: per event from the service's machine
  // estimators (the warm repair path), per solve from the cold solve
  // replay on batch_solve.
  const bool batch = args.workload == "batch_solve";
  const double grid_s = tracer.Total("simdb.grid");
  const double max_share_sum = *std::max_element(m.share_sums.begin(), m.share_sums.end());

  result.Set("service.events", static_cast<double>(m.events), "count");
  result.Set("service.migrations", static_cast<double>(m.migrations), "count");
  result.Set("service.migrations_per_event", Ratio(m.migrations, m.events), "ratio");
  result.Set("service.submit_us_p50", submit_p50, "us");
  result.Set("service.drain_s", m.drain_s, "s");
  result.Set("fleet.objective_s", Mean(m.objectives), "s");
  result.Set("fleet.demand_probe_ms", tracer.Total("fleet.probe_demand") * 1e3, "ms");
  result.Set("fleet.demand_columns_probed", columns, "count");
  result.Set("fleet.migration_attempts", fleet_rec.migration_attempts, "count");
  result.Set("fleet.migration_accept_ratio",
             Ratio(fleet_rec.migrations, fleet_rec.migration_attempts), "ratio");
  result.Set("estimator.optimizer_calls",
             batch ? solves.optimizer_calls : Ratio(m.optimizer_calls, m.events), "count");
  result.Set("estimator.cache_hits",
             batch ? solves.cache_hits : Ratio(m.cache_hits, m.events), "count");
  result.Set("estimator.probes", static_cast<double>(solves.probes), "count");
  result.Set("estimator.hit_ratio", Ratio(solves.cache_hits, solves.probes), "ratio");
  result.Set("search.runs", static_cast<double>(solves.runs), "count");
  result.Set("search.iterations", Ratio(solves.iterations, solves.runs), "count");
  result.Set("search.probes_per_run", Ratio(solves.probes, solves.runs), "count");
  result.Set("search.self_ms", Ratio(tracer.SelfTime("search.run") * 1e3, solves.runs),
             "ms");
  result.Set("simdb.grid_calls", static_cast<double>(solves.grid_calls), "count");
  result.Set("simdb.grid_ms_per_call", Ratio(grid_s * 1e3, solves.grid_calls), "ms");
  result.Set("simdb.members_per_grid_call",
             Ratio(solves.grid_members, solves.grid_calls), "count");
  result.Set("simdb.optimizer_calls_per_s", Ratio(solves.grid_members, grid_s), "1/s");
  result.Set("calib.calibrate_s", Median(m.calibrate_s), "s");
  result.Set("trace.untraced_ms_p50", plain_p50, "ms");
  result.Set("trace.overhead_pct", Ratio(traced_p50 - plain_p50, plain_p50) * 100.0, "%");
  result.Set("trace.spans", static_cast<double>(tracer.spans().size()), "count");
  result.Set("qos_violations", static_cast<double>(m.qos_violations), "count");
  result.Set("share_oversubscription",
             max_share_sum > 1.0 + kShareSumTol ? max_share_sum - 1.0 : 0.0, "share");
  result.Set("process.peak_rss_mb", PeakRssMb(), "MiB");

  std::printf("svcbench %s seed=%llu traced: rounds=%zu spans=%zu\n",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed),
              m.rounds.size(), tracer.spans().size());
  std::printf("  search.*, simdb.*, estimator.probes and estimator.hit_ratio: "
              "cold replay of %d machine solves\n", static_cast<int>(solves.runs));
  if (!args.trace_dir.empty()) {
    const std::string path = args.trace_dir + "/trace-" + args.workload + "-" +
                             std::to_string(args.seed) + ".jsonl";
    if (!tracer.WriteJsonLines(path)) result.Fail("cannot write " + path);
  }
  std::printf("%s\n", result.Json().c_str());
  return 0;
}

}  // namespace
}  // namespace svcbench

int main(int argc, char** argv) {
  svcbench::Args args;
  if (!svcbench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: svcbench --workload drift_burst|batch_solve "
                 "--seed N --seconds S --trace 0|1 [--trace-dir DIR]\n");
    return 2;
  }
  return args.trace ? svcbench::PerLayer(args) : svcbench::EndToEnd(args);
}
