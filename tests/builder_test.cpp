// ScenarioBuilder: fluent construction and build()-time validation.

#include <gtest/gtest.h>

#include <algorithm>
#include <string_view>

#include "balancer/cluster_sim.hpp"
#include "driver/builder.hpp"
#include "driver/runner.hpp"
#include "workload/hpcc.hpp"
#include "workload/synthetic.hpp"

namespace {

using namespace ampom;

driver::ScenarioBuilder minimal() {
  return driver::ScenarioBuilder{}.hpcc_workload(workload::HpccKernel::Stream, 9);
}

TEST(ScenarioBuilder, BuildsARunnableScenario) {
  const driver::Scenario s = minimal().scheme(driver::Scheme::Ampom).build();
  EXPECT_EQ(s.scheme, driver::Scheme::Ampom);
  EXPECT_EQ(s.memory_mib, 9u);
  EXPECT_EQ(s.workload_label, workload::hpcc_kernel_name(workload::HpccKernel::Stream));
  ASSERT_TRUE(static_cast<bool>(s.make_workload));

  const driver::RunMetrics m = driver::run_experiment(s);
  EXPECT_GT(m.total_time, sim::Time::zero());
  EXPECT_TRUE(m.ledger_ok);
}

TEST(ScenarioBuilder, MatchesHandRolledScenario) {
  // The builder is sugar, not semantics: same knobs, same simulation.
  driver::Scenario by_hand;
  by_hand.scheme = driver::Scheme::NoPrefetch;
  by_hand.memory_mib = 9;
  by_hand.workload_label = workload::hpcc_kernel_name(workload::HpccKernel::Stream);
  by_hand.make_workload = [] {
    return workload::make_hpcc_kernel(workload::HpccKernel::Stream, 9);
  };

  const driver::Scenario built = minimal().scheme(driver::Scheme::NoPrefetch).build();

  const driver::RunMetrics a = driver::run_experiment(by_hand);
  const driver::RunMetrics b = driver::run_experiment(built);
  EXPECT_EQ(a.total_time, b.total_time);
  EXPECT_EQ(a.freeze_time, b.freeze_time);
  EXPECT_EQ(a.hard_faults, b.hard_faults);
  EXPECT_EQ(a.pages_arrived, b.pages_arrived);
}

TEST(ScenarioBuilder, RunnerHonoursTheTopology) {
  std::size_t nodes = 0;
  const driver::RunMetrics m =
      driver::run_experiment(minimal()
                                 .topology(1, 4)
                                 .on_setup([&nodes](sim::Simulator&, net::Fabric& fabric) {
                                   nodes = fabric.node_count();
                                 })
                                 .build());
  EXPECT_EQ(nodes, 4u);
  EXPECT_TRUE(m.migration_completed);
}

TEST(ScenarioBuilder, RejectsMissingWorkload) {
  driver::ScenarioBuilder empty;
  EXPECT_FALSE(empty.validate().empty());
  EXPECT_THROW((void)empty.build(), std::invalid_argument);
}

TEST(ScenarioBuilder, RejectsFaultsWithoutReliability) {
  driver::FaultPlan plan;
  plan.default_faults.drop_probability = 0.05;
  auto b = minimal().faults(plan);
  const std::string problem = b.validate();
  // The message must name both sides of the conflict.
  EXPECT_NE(problem.find("fault plan"), std::string::npos) << problem;
  EXPECT_NE(problem.find("reliability"), std::string::npos) << problem;
  EXPECT_THROW((void)b.build(), std::invalid_argument);

  // Turning reliability on resolves it.
  b.reliable();
  EXPECT_TRUE(b.validate().empty());
}

// reliable() is one switch for every protocol layer of the world the
// scenario builds. On a lossy link with node 2 crashed: on, the paging client
// retransmits, the migration chunks are acked and the survivors agree node 2
// is dead; off, none of the three happens.
class ReliableSwitch : public ::testing::TestWithParam<bool> {};

TEST_P(ReliableSwitch, TurnsEveryLayerOnOrOff) {
  const bool reliable = GetParam();
  const driver::Scenario scenario = driver::ScenarioBuilder{}
                                        .scheme(driver::Scheme::Ampom)
                                        .topology(1, 3)
                                        .reliable(reliable)
                                        .tracing()
                                        .build();
  balancer::ClusterSim world{scenario};
  EXPECT_EQ(world.reliable(), reliable);
  trace::TraceRecorder recorder{scenario.trace};
  world.set_trace(&recorder);
  // Installed on the built world: the builder rejects a fault plan without
  // reliability, because the classic protocols hang on a lost page.
  driver::FaultPlan plan;
  plan.seed = 17;
  plan.default_faults.drop_probability = 0.05;
  plan.crashes.push_back({/*node=*/2, /*at=*/sim::Time::from_sec(1.0), /*restore_at=*/{}});
  world.set_fault_plan(plan);

  balancer::JobSpec job;
  job.home = 0;
  job.label = "hotcold";
  job.make_workload = [] {
    return std::make_unique<workload::HotColdStream>(8 * sim::kMiB, /*hot_pages=*/256, 40000,
                                                     /*cold_fraction=*/0.05,
                                                     sim::Time::from_us(100));
  };
  job.start = sim::Time::from_sec(1.0);
  balancer::ProcessHost& host = world.spawn(std::move(job));
  world.simulator().schedule_at(sim::Time::from_sec(1.1), [&host] { host.migrate_to(1); });
  const bool finished = world.run_until(sim::Time::from_sec(10));

  const proc::PagingClientStats* paging = host.paging_stats(1);
  ASSERT_NE(paging, nullptr);
  const auto& events = recorder.events();
  const auto acks = std::count_if(events.begin(), events.end(), [](const trace::Event& e) {
    return std::string_view{e.name} == "MigrationAck";
  });
  const cluster::PeerHealth node2 = world.consensus_health(2);
  if (reliable) {
    EXPECT_TRUE(finished);
    EXPECT_GT(paging->retransmits, 0u);
    EXPECT_GT(acks, 0);
    EXPECT_EQ(node2, cluster::PeerHealth::kDead);
  } else {
    EXPECT_EQ(paging->retransmits, 0u);
    EXPECT_EQ(acks, 0);
    EXPECT_EQ(node2, cluster::PeerHealth::kAlive);
  }
}

INSTANTIATE_TEST_SUITE_P(OnAndOff, ReliableSwitch, ::testing::Bool());

TEST(ScenarioBuilder, InactiveFaultPlanNeedsNoReliability) {
  // A default (inactive) plan with a custom seed is not "faults on".
  driver::FaultPlan plan;
  plan.seed = 99;
  EXPECT_TRUE(minimal().faults(plan).validate().empty());
}

TEST(ScenarioBuilder, RejectsRemigrationWithBackgroundTraffic) {
  auto b = minimal()
               .remigrate_after(sim::Time::from_ms(100))
               .background_traffic(0.3);
  EXPECT_NE(b.validate().find("mutually exclusive"), std::string::npos);
  EXPECT_THROW((void)b.build(), std::invalid_argument);
}

TEST(ScenarioBuilder, RejectsRemigrationOfCheckpoint) {
  auto b = minimal()
               .scheme(driver::Scheme::Checkpoint)
               .remigrate_after(sim::Time::from_ms(100));
  EXPECT_FALSE(b.validate().empty());
  EXPECT_THROW((void)b.build(), std::invalid_argument);
}

TEST(ScenarioBuilder, RejectsOutOfRangeFractions) {
  EXPECT_THROW((void)minimal().background_traffic(1.5).build(), std::invalid_argument);
  EXPECT_THROW((void)minimal().background_traffic(-0.1).build(), std::invalid_argument);
  EXPECT_THROW((void)minimal().dest_background_load(1.0).build(), std::invalid_argument);
}

TEST(ScenarioBuilder, RejectsTracingWithZeroCap) {
  trace::TraceConfig cfg;
  cfg.enabled = true;
  cfg.max_events = 0;
  EXPECT_THROW((void)minimal().trace(cfg).build(), std::invalid_argument);
}

TEST(ScenarioBuilder, TracingTogglesTheDefaultConfig) {
  const driver::Scenario s = minimal().tracing().build();
  EXPECT_TRUE(s.trace.enabled);
  EXPECT_GT(s.trace.max_events, 0u);
  const driver::Scenario off = minimal().tracing(false).build();
  EXPECT_FALSE(off.trace.enabled);
}

TEST(ScenarioBuilder, ClusterTopologyMakesWorkloadOptional) {
  // A topology marks the scenario as a cluster world: jobs come from
  // spawn(), so the per-process workload factory is no longer required.
  const driver::Scenario s =
      driver::ScenarioBuilder{}.scheme(driver::Scheme::Ampom).topology(2, 4).build();
  EXPECT_TRUE(s.topology.set());
  EXPECT_EQ(s.topology.node_count(), 8u);
  EXPECT_EQ(s.topology.zone_of(5), 1u);
  EXPECT_FALSE(s.gossip.enabled);
}

TEST(ScenarioBuilder, RejectsDegenerateTopologyAndGossip) {
  EXPECT_THROW((void)driver::ScenarioBuilder{}.topology(0, 4).build(),
               std::invalid_argument);
  EXPECT_THROW((void)driver::ScenarioBuilder{}.topology(2, 0).build(),
               std::invalid_argument);
  // fan_out 0 would disseminate nothing and every peer would look dead.
  EXPECT_THROW((void)driver::ScenarioBuilder{}.topology(2, 4).gossip(0).build(),
               std::invalid_argument);
  // Gossip is a cluster-world dissemination mode: it needs a topology...
  EXPECT_THROW((void)minimal().gossip(2).build(), std::invalid_argument);
  // ...with someone to gossip with.
  EXPECT_THROW((void)driver::ScenarioBuilder{}.topology(1, 1).gossip(1).build(),
               std::invalid_argument);
}

TEST(ScenarioBuilder, RejectsZoneOutageBeyondTopology) {
  EXPECT_THROW((void)driver::ScenarioBuilder{}
                   .topology(2, 3)
                   .reliable()
                   .zone_outage(/*zone=*/2u, sim::Time::from_sec(1))
                   .build(),
               std::invalid_argument);
  const driver::Scenario ok = driver::ScenarioBuilder{}
                                  .topology(2, 3)
                                  .reliable()
                                  .zone_outage(/*zone=*/1u, sim::Time::from_sec(1))
                                  .build();
  EXPECT_EQ(ok.faults.chaos.zone_outages.size(), 1u);
  EXPECT_EQ(ok.faults.chaos.zone_outages[0].zone, 1);
}

TEST(ScenarioBuilder, BuilderIsReusable) {
  auto b = minimal();
  const driver::Scenario first = b.scheme(driver::Scheme::Ampom).build();
  const driver::Scenario second = b.scheme(driver::Scheme::OpenMosix).build();
  EXPECT_EQ(first.scheme, driver::Scheme::Ampom);
  EXPECT_EQ(second.scheme, driver::Scheme::OpenMosix);
}

}  // namespace
