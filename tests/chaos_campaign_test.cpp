// Chaos campaigns: deterministic expansion, structural validation through
// the builder, a full campaign run through the experiment harness, and the
// split-brain scenario — a partition falling mid-migration must still yield
// exactly-once execution once it heals.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <stdexcept>

#include "balancer/cluster_sim.hpp"
#include "balancer/load_balancer.hpp"
#include "cluster/chaos.hpp"
#include "driver/builder.hpp"
#include "driver/runner.hpp"
#include "verify/invariant_auditor.hpp"
#include "workload/synthetic.hpp"

namespace ampom::cluster {
namespace {

using sim::Time;

ChaosPlan mixed_plan() {
  ChaosPlan plan;
  plan.seed = 99;
  plan.zone_outages.push_back({{2, 3}, Time::from_ms(1000), Time::from_ms(2500)});
  plan.partitions.push_back({{0, 1}, Time::from_ms(1200), Time::from_ms(1900)});
  plan.crash_waves.push_back({/*crashes=*/2, Time::from_ms(1500), Time::from_ms(300),
                              /*downtime=*/Time::from_ms(1000), /*spare_node0=*/true});
  plan.link_flaps.push_back({0, 4, Time::from_ms(1000), Time::from_ms(2000),
                             Time::from_ms(200), /*duty=*/0.5});
  return plan;
}

TEST(ChaosExpansion, DeterministicAndShapedAsDeclared) {
  const ChaosPlan plan = mixed_plan();
  const ExpandedChaos a = expand_chaos(plan, 6);
  const ExpandedChaos b = expand_chaos(plan, 6);

  // Same (plan, node_count) -> same schedule, event for event.
  ASSERT_EQ(a.crashes.size(), b.crashes.size());
  for (std::size_t i = 0; i < a.crashes.size(); ++i) {
    EXPECT_EQ(a.crashes[i].node, b.crashes[i].node);
    EXPECT_EQ(a.crashes[i].at, b.crashes[i].at);
    EXPECT_EQ(a.crashes[i].restore_at, b.crashes[i].restore_at);
  }
  ASSERT_EQ(a.outages.size(), b.outages.size());
  for (std::size_t i = 0; i < a.outages.size(); ++i) {
    EXPECT_EQ(a.outages[i].a, b.outages[i].a);
    EXPECT_EQ(a.outages[i].b, b.outages[i].b);
    EXPECT_EQ(a.outages[i].down_at, b.outages[i].down_at);
    EXPECT_EQ(a.outages[i].up_at, b.outages[i].up_at);
  }

  // Zone outage: one crash per zone member. Crash wave: two more victims,
  // node 0 spared, no victim repeated within the wave.
  EXPECT_EQ(a.crashes.size(), 4u);  // 2 zone + 2 wave
  for (std::size_t i = 2; i < 4; ++i) {
    EXPECT_NE(a.crashes[i].node, 0u);
    EXPECT_LT(a.crashes[i].node, 6u);
    EXPECT_EQ(a.crashes[i].restore_at, a.crashes[i].at + Time::from_ms(1000));
  }
  EXPECT_NE(a.crashes[2].node, a.crashes[3].node);
  EXPECT_EQ(a.crashes[3].at - a.crashes[2].at, Time::from_ms(300));

  // Partition {0,1} of 6 nodes: every cross pair goes down, |A|*|B| links.
  // (Match on the full [at, heal) window — a flap window may share the start
  // instant but never the partition's heal time.)
  const auto is_partition_outage = [](const ExpandedChaos::Outage& o) {
    return o.down_at == Time::from_ms(1200) && o.up_at == Time::from_ms(1900);
  };
  EXPECT_EQ(std::count_if(a.outages.begin(), a.outages.end(), is_partition_outage), 2 * 4);

  // Flap windows stay inside [start, stop) and each is shorter than a period.
  for (const auto& o : a.outages) {
    if (is_partition_outage(o)) {
      continue;
    }
    EXPECT_GE(o.down_at, Time::from_ms(1000));
    EXPECT_LE(o.up_at, Time::from_ms(2000));
    EXPECT_LE(o.up_at - o.down_at, Time::from_ms(200));
  }

  // Heal marks cover partition heal, zone restore and flap stop, sorted.
  EXPECT_TRUE(std::is_sorted(a.heal_marks.begin(), a.heal_marks.end()));
  EXPECT_GE(a.heal_marks.size(), 3u);
  EXPECT_GE(a.last_fault_at, Time::from_ms(2500));
}

TEST(ChaosExpansion, ValidationRejectsMalformedCampaigns) {
  {
    ChaosPlan plan;
    plan.zone_outages.push_back({{}, Time::from_ms(100), {}});
    EXPECT_NE(validate_chaos(plan), "");
    EXPECT_THROW((void)expand_chaos(plan, 4), std::invalid_argument);
  }
  {
    ChaosPlan plan;  // heal before the partition begins
    plan.partitions.push_back({{1}, Time::from_ms(500), Time::from_ms(400)});
    EXPECT_NE(validate_chaos(plan), "");
  }
  {
    ChaosPlan plan;  // flap with a degenerate duty cycle
    plan.link_flaps.push_back({0, 1, Time::from_ms(100), Time::from_ms(500),
                               Time::from_ms(100), /*duty=*/1.5});
    EXPECT_NE(validate_chaos(plan), "");
  }
  {
    ChaosPlan plan;  // node id outside the cluster: caught at expansion
    plan.zone_outages.push_back({{9}, Time::from_ms(100), {}});
    EXPECT_EQ(validate_chaos(plan), "");  // size-independent checks pass...
    EXPECT_THROW((void)expand_chaos(plan, 4), std::invalid_argument);
  }
  // The builder front door rejects the same plans at build() time.
  EXPECT_THROW(
      (void)driver::ScenarioBuilder{}
          .workload("w", [] {
            return std::make_unique<workload::HotColdStream>(
                2 * sim::kMiB, 32, 1000, 0.05, Time::from_us(100));
          })
          .reliable()
          .partition({1}, Time::from_ms(500), Time::from_ms(400))
          .build(),
      std::invalid_argument);
}

// A declared campaign flows through ScenarioBuilder -> run_experiment and
// the run still completes with the full stream consumed.
TEST(ChaosCampaign, RunsThroughExperimentHarness) {
  const driver::Scenario scenario =
      driver::ScenarioBuilder{}
          .scheme(driver::Scheme::Ampom)
          .workload("hotcold", [] {
            return std::make_unique<workload::HotColdStream>(
                4 * sim::kMiB, 64, 30000, 0.05, Time::from_us(100));
          })
          .reliable()
          .chaos_seed(7)
          .flapping_link(0, 1, Time::from_ms(1100), Time::from_ms(1900),
                         Time::from_ms(150), 0.4)
          .build();
  const driver::RunMetrics metrics = driver::run_experiment(scenario);
  EXPECT_TRUE(metrics.migration_completed);
  EXPECT_TRUE(metrics.ledger_ok);
  EXPECT_GT(metrics.refs_consumed, 0u);
  EXPECT_GT(metrics.paging_retransmits, 0u);  // the flap actually bit
}

// Split-brain: the fabric partitions {0,1} | {2,3} while a process is
// migrating from node 0 to node 2. Neither side may run (or re-create) the
// process twice: after the heal the auditor must have seen exactly-once
// execution, the whole stream consumed once, and every page owned by either
// the home or the current node — never by a node on the losing side.
TEST(ChaosCampaign, SplitBrainMigrationIsExactlyOnce) {
  balancer::ClusterSim world{4, driver::Scheme::Ampom};
  verify::InvariantAuditor auditor{world};
  world.set_reliable(true);

  driver::FaultPlan plan;
  plan.chaos.seed = 3;
  plan.chaos.partitions.push_back(
      {{0, 1}, Time::from_ms(1450), Time::from_ms(2600)});
  world.set_fault_plan(plan);

  balancer::JobSpec job;
  job.home = 0;
  job.label = "split-brain";
  job.start = Time::from_sec(1.0);
  job.make_workload = [] {
    return std::make_unique<workload::HotColdStream>(4 * sim::kMiB, 64, 40000, 0.05,
                                                     Time::from_us(100));
  };
  balancer::ProcessHost& host = world.spawn(job);
  world.simulator().schedule_at(Time::from_ms(1400), [&host] { host.migrate_to(2); });

  balancer::LoadBalancer::Config config;
  config.period = Time::from_ms(250);
  config.imbalance_threshold = 1e9;
  balancer::LoadBalancer balancer{world, config};
  balancer.start();

  ASSERT_TRUE(world.run_until(Time::from_sec(30)));

  EXPECT_TRUE(host.finished());
  EXPECT_EQ(auditor.violations(), 0u);
  // Exactly-once: the stream was consumed in full, once — no reference was
  // lost to the partition and none was replayed by a second incarnation.
  EXPECT_EQ(host.stats().refs_consumed, host.process().stream().emitted());
  // Ownership never leaked to a third party: every page sits with the home
  // node or wherever the process ended up.
  const mem::PageLedger& ledger = host.ledger();
  for (mem::PageId p = 0; p < ledger.page_count(); ++p) {
    const net::NodeId owner = ledger.owner(p);
    EXPECT_TRUE(owner == host.home_node() || owner == host.current_node())
        << "page " << p << " owned by node " << owner;
  }
}

}  // namespace
}  // namespace ampom::cluster
