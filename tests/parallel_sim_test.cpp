// The partitioned parallel engine behind ScenarioBuilder::workers(N).
//
// The headline claim is bit-identity: the partitioned schedule (zone
// sub-queues, conservative lookahead windows, barrier-merged cross-zone
// messages) is a pure function of the scenario, and the worker count only
// decides how many OS threads execute it. So workers(1) and workers(4) must
// agree on *everything* — makespan, event count, every migration, every
// final placement, every recorded trace event — even on a faulty world
// where message fates are drawn per message. The second claim is that the
// engine stays honest under chaos: a zone outage with the invariant auditor
// attached runs violation-free on a workers(4) scenario.

#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <vector>

#include "balancer/cluster_sim.hpp"
#include "balancer/load_balancer.hpp"
#include "cluster/infod.hpp"
#include "driver/builder.hpp"
#include "simcore/simulator.hpp"
#include "trace/trace.hpp"
#include "verify/invariant_auditor.hpp"
#include "workload/synthetic.hpp"

namespace ampom {
namespace {

using sim::Time;

balancer::JobSpec burst_job(net::NodeId home, std::uint64_t touches, int index) {
  balancer::JobSpec job;
  job.home = home;
  job.label = "burst";
  job.start = Time::from_ms(40 * (index % 8));
  job.make_workload = [touches] {
    return std::make_unique<workload::HotColdStream>(8 * sim::kMiB, /*hot_pages=*/256,
                                                     touches, /*cold_fraction=*/0.05,
                                                     Time::from_us(90));
  };
  return job;
}

// Everything observable about one finished run, trace stream included.
struct RunResult {
  Time makespan{};
  std::uint64_t events{0};
  std::uint64_t migrations{0};
  std::uint64_t failed_migrations{0};
  std::uint64_t pings{0};
  std::vector<net::NodeId> placement;
  std::vector<trace::Event> trace_events;
};

void expect_identical(const RunResult& a, const RunResult& b) {
  EXPECT_EQ(a.makespan, b.makespan);
  EXPECT_EQ(a.events, b.events);
  EXPECT_EQ(a.migrations, b.migrations);
  EXPECT_EQ(a.failed_migrations, b.failed_migrations);
  EXPECT_EQ(a.pings, b.pings);
  EXPECT_EQ(a.placement, b.placement);
  ASSERT_EQ(a.trace_events.size(), b.trace_events.size());
  for (std::size_t i = 0; i < a.trace_events.size(); ++i) {
    const trace::Event& x = a.trace_events[i];
    const trace::Event& y = b.trace_events[i];
    ASSERT_EQ(x.ts, y.ts) << "trace event " << i;
    ASSERT_STREQ(x.name, y.name) << "trace event " << i;
    ASSERT_EQ(x.cat, y.cat) << "trace event " << i;
    ASSERT_EQ(x.kind, y.kind) << "trace event " << i;
    ASSERT_EQ(x.node, y.node) << "trace event " << i;
    ASSERT_EQ(x.corr, y.corr) << "trace event " << i;
    ASSERT_EQ(x.arg0, y.arg0) << "trace event " << i;
    ASSERT_EQ(x.arg1, y.arg1) << "trace event " << i;
  }
}

// A 2000-node (20 zones x 100) gossip world with per-message faults and a
// mid-run crash+restore, hot-spotted so the balancer has real migrations to
// make. `workers` is the only knob that varies between compared runs.
RunResult run_faulty_world(std::size_t workers) {
  driver::FaultPlan faults;
  faults.seed = 7;
  faults.default_faults.drop_probability = 0.004;
  faults.default_faults.duplicate_probability = 0.002;
  faults.crashes.push_back({/*node=*/150, Time::from_ms(900), Time::from_ms(2500)});

  const driver::Scenario scenario = driver::ScenarioBuilder{}
                                        .scheme(driver::Scheme::Ampom)
                                        .topology(/*zones=*/20, /*nodes_per_zone=*/100)
                                        .gossip(/*fan_out=*/3)
                                        .reliable()
                                        .faults(std::move(faults))
                                        .workers(workers)
                                        .build();
  balancer::ClusterSim world{scenario};

  trace::TraceConfig trace_config;
  trace_config.enabled = true;
  trace_config.sched_sample_period = Time::zero();  // no sampler; events only
  trace::TraceRecorder recorder{trace_config};
  world.set_trace(&recorder);

  // Two hot nodes per even zone plus a pile-up on node 0: intra-zone spread
  // and cross-zone sheds both happen, some of them through the faulty epoch.
  int index = 0;
  for (std::uint32_t zone = 0; zone < 20; zone += 2) {
    const auto hot = static_cast<net::NodeId>(zone * 100);
    world.spawn(burst_job(hot, 20000, index++));
    world.spawn(burst_job(hot, 20000, index++));
  }
  for (int i = 0; i < 6; ++i) {
    world.spawn(burst_job(0, 20000, index++));
  }

  balancer::LoadBalancer::Config cfg;
  cfg.assumed_freeze_seconds = 0.2;
  balancer::LoadBalancer balancer{world, cfg};
  balancer.start();
  world.run();

  RunResult result;
  result.makespan = world.makespan();
  result.events = world.simulator().events_processed();
  for (const auto& host : world.hosts()) {
    result.migrations += host->migrations();
    result.failed_migrations += host->failed_migrations();
    result.placement.push_back(host->current_node());
  }
  for (net::NodeId id = 0; id < world.node_count(); ++id) {
    result.pings += world.infod(id).pings_sent();
  }
  result.trace_events = recorder.events();  // deterministic shard merge
  return result;
}

TEST(ParallelSim, FourWorkersBitIdenticalToOneOnFaultyWorld) {
  const RunResult one = run_faulty_world(1);
  const RunResult four = run_faulty_world(4);
  expect_identical(one, four);
  // The comparison is not vacuous: the run migrates, gossips and records.
  EXPECT_GT(one.migrations, 0u);
  EXPECT_GT(one.pings, 0u);
  EXPECT_GT(one.trace_events.size(), 0u);
}

TEST(ParallelSim, WorkersRequireMultiZoneTopology) {
  EXPECT_THROW((void)driver::ScenarioBuilder{}
                   .scheme(driver::Scheme::Ampom)
                   .topology(/*zones=*/1, /*nodes_per_zone=*/16)
                   .workers(4)
                   .build(),
               std::invalid_argument);
  EXPECT_THROW(
      (void)driver::ScenarioBuilder{}.scheme(driver::Scheme::Ampom).workers(2).build(),
      std::invalid_argument);
}

TEST(ParallelSim, AuditorStaysCleanUnderChaosWithWorkers) {
  // Zone 1 crashes whole and comes back while four workers are configured.
  // Attaching an observer serializes execution onto one thread (the auditor
  // reads world state from partition callbacks), but the *partitioned
  // schedule* is unchanged — so this pins the engine's event ordering, not
  // just its happy path, under detection, outage and heal.
  const driver::Scenario scenario = driver::ScenarioBuilder{}
                                        .scheme(driver::Scheme::Ampom)
                                        .topology(/*zones=*/4, /*nodes_per_zone=*/25)
                                        .gossip(/*fan_out=*/3)
                                        .reliable()
                                        .zone_outage(/*zone=*/1u, Time::from_sec(1),
                                                     /*restore_at=*/Time::from_sec(3))
                                        .workers(4)
                                        .build();
  balancer::ClusterSim world{scenario};
  verify::InvariantAuditor auditor{world};
  // Homes stay out of zone 1: a process frozen at home by its own node's
  // crash has no thaw path (same rule the other chaos worlds follow) —
  // zone 1 participates as gossip peers, crash victims and heal subjects.
  constexpr std::uint32_t kSafeZones[] = {0, 2, 3};
  for (int i = 0; i < 12; ++i) {
    const auto u = static_cast<std::uint32_t>(i);
    const auto home = static_cast<net::NodeId>(kSafeZones[u % 3] * 25 + (u * 7) % 25);
    world.spawn(burst_job(home, 30000, i));
  }
  balancer::LoadBalancer::Config cfg;
  cfg.assumed_freeze_seconds = 0.2;
  balancer::LoadBalancer balancer{world, cfg};
  balancer.start();
  world.run();

  for (const auto& host : world.hosts()) {
    EXPECT_TRUE(host->finished());
  }
  EXPECT_EQ(auditor.violations(), 0u) << auditor.first_violation();
  EXPECT_GT(auditor.epochs_run(), 0u);
}

}  // namespace
}  // namespace ampom
