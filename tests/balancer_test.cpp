// Tests of the multi-process cluster world and the load balancer.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>

#include "balancer/cluster_sim.hpp"
#include "balancer/load_balancer.hpp"
#include "driver/builder.hpp"
#include "workload/synthetic.hpp"

namespace ampom::balancer {
namespace {

using sim::Time;

JobSpec sequential_job(net::NodeId home, std::uint64_t touches = 20000,
                       std::int64_t cpu_us = 100) {
  JobSpec job;
  job.home = home;
  job.label = "seq";
  job.make_workload = [touches, cpu_us] {
    return std::make_unique<workload::HotColdStream>(8 * sim::kMiB, /*hot_pages=*/256, touches,
                                                     /*cold_fraction=*/0.05,
                                                     Time::from_us(cpu_us));
  };
  return job;
}

TEST(ClusterSim, ValidatesConstruction) {
  EXPECT_THROW(ClusterSim(1, driver::Scheme::Ampom), std::invalid_argument);
}

TEST(ClusterSim, SpawnValidatesJobs) {
  ClusterSim world{2, driver::Scheme::Ampom};
  JobSpec bad;
  EXPECT_THROW(world.spawn(bad), std::invalid_argument);
  JobSpec out_of_range = sequential_job(0);
  out_of_range.home = 9;
  EXPECT_THROW(world.spawn(out_of_range), std::invalid_argument);
  EXPECT_THROW(world.run(), std::logic_error);  // nothing spawned
}

TEST(ClusterSim, SingleJobRunsToCompletion) {
  ClusterSim world{2, driver::Scheme::Ampom};
  ProcessHost& host = world.spawn(sequential_job(0));
  world.run();
  EXPECT_TRUE(host.finished());
  EXPECT_EQ(host.migrations(), 0u);
  EXPECT_GT(host.stats().refs_consumed, 0u);
}

TEST(ClusterSim, TwoJobsOnOneNodeTimeShare) {
  ClusterSim solo{2, driver::Scheme::Ampom};
  ProcessHost& alone = solo.spawn(sequential_job(0));
  solo.run();
  const double alone_sec = alone.finished_at().sec();

  ClusterSim crowd{2, driver::Scheme::Ampom};
  crowd.spawn(sequential_job(0));
  crowd.spawn(sequential_job(0));
  crowd.run();
  // Two CPU-bound processes sharing one node take roughly twice as long.
  EXPECT_GT(crowd.makespan().sec(), alone_sec * 1.6);
}

TEST(ClusterSim, ManualMigrationMovesTheProcess) {
  ClusterSim world{3, driver::Scheme::Ampom};
  ProcessHost& host = world.spawn(sequential_job(0, 60000));
  world.simulator().schedule_at(Time::from_sec(0.5), [&host] { host.migrate_to(2); });
  world.run();
  EXPECT_TRUE(host.finished());
  EXPECT_EQ(host.current_node(), 2u);
  EXPECT_EQ(host.migrations(), 1u);
  EXPECT_GT(host.freeze_total(), Time::zero());
  EXPECT_TRUE(host.ledger().at_most_one_transfer_each());
}

TEST(ClusterSim, TwoMigrantsPageConcurrentlyViaPidDemux) {
  ClusterSim world{3, driver::Scheme::Ampom};
  ProcessHost& a = world.spawn(sequential_job(0, 60000));
  ProcessHost& b = world.spawn(sequential_job(0, 60000));
  world.simulator().schedule_at(Time::from_sec(0.4), [&a] { a.migrate_to(1); });
  world.simulator().schedule_at(Time::from_sec(0.5), [&b] { b.migrate_to(2); });
  world.run();
  EXPECT_EQ(a.current_node(), 1u);
  EXPECT_EQ(b.current_node(), 2u);
  EXPECT_GT(a.stats().soft_faults + a.stats().hard_faults, 0u);
  EXPECT_GT(b.stats().soft_faults + b.stats().hard_faults, 0u);
}

TEST(ClusterSim, SecondHopUsesRemigration) {
  ClusterSim world{3, driver::Scheme::Ampom};
  ProcessHost& host = world.spawn(sequential_job(0, 120000));
  world.simulator().schedule_at(Time::from_sec(0.4), [&host] { host.migrate_to(1); });
  world.simulator().schedule_at(Time::from_sec(1.5), [&host] { host.migrate_to(2); });
  world.run();
  EXPECT_TRUE(host.finished());
  EXPECT_EQ(host.migrations(), 2u);
  EXPECT_EQ(host.current_node(), 2u);
}

TEST(ClusterSim, HonoursTheScenarioAmpomTraceHook) {
  std::uint64_t analyses = 0;
  ClusterSim world{driver::ScenarioBuilder{}
                       .scheme(driver::Scheme::Ampom)
                       .topology(1, 2)
                       .ampom_trace([&analyses](const core::ZoneInputs&, std::uint64_t,
                                                std::size_t) { ++analyses; })
                       .build()};
  ProcessHost& host = world.spawn(sequential_job(0, 60000));
  world.simulator().schedule_at(Time::from_sec(0.5), [&host] { host.migrate_to(1); });
  world.run();
  EXPECT_EQ(host.migrations(), 1u);
  EXPECT_GT(analyses, 0u);
}

// One 0 -> 1 hop under `scheme` in a three-node world: its freeze, and the
// bytes node 2 received (daemon pings only, unless it is the checkpoint
// file server).
struct HopOutcome {
  Time freeze;
  std::uint64_t node2_rx_bytes;
};

HopOutcome one_hop(driver::Scheme scheme) {
  ClusterSim world{3, scheme};
  ProcessHost& host = world.spawn(sequential_job(0, 60000));
  world.simulator().schedule_at(Time::from_sec(0.5), [&host] { host.migrate_to(1); });
  world.run();
  EXPECT_TRUE(host.finished()) << driver::scheme_name(scheme);
  EXPECT_EQ(host.migrations(), 1u) << driver::scheme_name(scheme);
  return {host.freeze_total(), world.fabric().counters(2).rx_bytes};
}

TEST(ClusterSim, PreCopyAndCheckpointRunTheirOwnEngines) {
  const HopOutcome full = one_hop(driver::Scheme::OpenMosix);
  const HopOutcome precopy = one_hop(driver::Scheme::PreCopy);
  const HopOutcome checkpoint = one_hop(driver::Scheme::Checkpoint);
  // Pre-copy ships the image while the process runs and freezes only for
  // the last dirty set; checkpoint freezes across the upload to the file
  // server (node 2) and the download from it.
  EXPECT_LT(precopy.freeze, full.freeze);
  EXPECT_GT(checkpoint.freeze, full.freeze);
  EXPECT_GT(checkpoint.node2_rx_bytes, full.node2_rx_bytes + 8 * sim::kMiB);
}

TEST(ClusterSim, MigrationRequestsAreIdempotentWhileMigrating) {
  ClusterSim world{3, driver::Scheme::OpenMosix};
  ProcessHost& host = world.spawn(sequential_job(0, 120000));
  world.simulator().schedule_at(Time::from_sec(0.4), [&host] {
    host.migrate_to(1);
    host.migrate_to(2);  // ignored: migration already in flight
  });
  world.run();
  EXPECT_EQ(host.migrations(), 1u);
  EXPECT_EQ(host.current_node(), 1u);
}

TEST(LoadBalancerTest, ConfigValidation) {
  ClusterSim world{2, driver::Scheme::Ampom};
  LoadBalancer::Config cfg;
  cfg.imbalance_threshold = 0.0;
  EXPECT_THROW(LoadBalancer(world, cfg), std::invalid_argument);
}

TEST(LoadBalancerTest, SpreadsJobsAcrossIdleNodes) {
  ClusterSim world{4, driver::Scheme::Ampom};
  for (int i = 0; i < 4; ++i) {
    world.spawn(sequential_job(0, 60000));
  }
  LoadBalancer balancer{world, LoadBalancer::Config{}};
  balancer.start();
  world.run();
  EXPECT_GT(balancer.decisions(), 0u);
  // At least some jobs moved off the overloaded home node.
  std::uint64_t moved = 0;
  for (const auto& host : world.hosts()) {
    moved += host->migrations() > 0 ? 1u : 0u;
  }
  EXPECT_GE(moved, 2u);
}

TEST(LoadBalancerTest, BalancingImprovesMakespan) {
  auto build = [](bool balance) {
    auto world = std::make_unique<ClusterSim>(4, driver::Scheme::Ampom);
    for (int i = 0; i < 6; ++i) {
      world->spawn(sequential_job(0, 40000));
    }
    std::unique_ptr<LoadBalancer> balancer;
    if (balance) {
      balancer = std::make_unique<LoadBalancer>(*world, LoadBalancer::Config{});
      balancer->start();
    }
    world->run();
    return world->makespan().sec();
  };
  const double unbalanced = build(false);
  const double balanced = build(true);
  EXPECT_LT(balanced, unbalanced * 0.7);
}

TEST(LoadBalancerTest, FreezeCostGatesDecisions) {
  // With an assumed multi-second freeze, small imbalances are not worth it.
  ClusterSim world{3, driver::Scheme::OpenMosix};
  world.spawn(sequential_job(0, 20000));
  world.spawn(sequential_job(0, 20000));
  LoadBalancer::Config cfg;
  cfg.assumed_freeze_seconds = 1e9;  // prohibitive
  LoadBalancer balancer{world, cfg};
  balancer.start();
  world.run();
  EXPECT_EQ(balancer.decisions(), 0u);
  EXPECT_GT(balancer.ticks(), 0u);
}

// In a Checkpoint world the last node is the file server: the engine cannot
// checkpoint to or restart from the node holding the image, so the balancer
// must never move a process into or out of it, whatever the loads say.
TEST(LoadBalancerTest, CheckpointWorldNeverMovesThroughTheFileServer) {
  ClusterSim world{4, driver::Scheme::Checkpoint};
  constexpr net::NodeId kFileServer = 3;
  for (int i = 0; i < 4; ++i) {
    world.spawn(sequential_job(0, 60000));
  }
  for (int i = 0; i < 3; ++i) {
    world.spawn(sequential_job(kFileServer, 60000));
  }
  LoadBalancer balancer{world, LoadBalancer::Config{}};
  balancer.start();
  world.run();
  EXPECT_GT(balancer.decisions(), 0u);
  for (const auto& host : world.hosts()) {
    EXPECT_TRUE(host->finished());
    if (host->home_node() == kFileServer) {
      EXPECT_EQ(host->migrations(), 0u);
    } else {
      EXPECT_NE(host->current_node(), kFileServer);
    }
  }
}

// Regression: with the file server the least-loaded node, the scan used to
// pick it as the destination, migrate_to refused every host, and the tick
// made no move although nodes 1 and 2 could take one. Nine jobs homed on
// node 0 of a 4-node world held the loads at 7/1/1/0 from 4.76 s to 8.26 s,
// five ticks with no migration in flight and no decision. The scan skips
// nodes no move may target, so node 0 sheds on the next idle tick.
TEST(LoadBalancerTest, CheckpointWorldBalancesPastAnIdleFileServer) {
  ClusterSim world{4, driver::Scheme::Checkpoint};
  constexpr net::NodeId kFileServer = 3;
  for (int i = 0; i < 9; ++i) {
    world.spawn(sequential_job(0, 60000));
  }
  const LoadBalancer::Config cfg;
  LoadBalancer balancer{world, cfg};
  balancer.start();

  // The longest stretch with node 0 at least three jobs above node 1 or 2,
  // no migration in flight, and no new decision.
  const Time step = Time::from_ms(50);
  Time stalled{};
  Time longest_stall{};
  std::uint64_t decisions = 0;
  std::function<void()> sample = [&] {
    const std::uint64_t idlest = std::min(world.active_on(1), world.active_on(2));
    const bool imbalanced = world.active_on(0) >= idlest + 3;
    if (world.migrations_in_flight() == 0 && imbalanced && balancer.decisions() == decisions) {
      stalled += step;
      longest_stall = std::max(longest_stall, stalled);
    } else {
      stalled = Time::zero();
    }
    decisions = balancer.decisions();
    if (world.active_on(0) > 0) {
      world.simulator().schedule_after(step, [&] { sample(); });
    }
  };
  world.simulator().schedule_at(step, [&] { sample(); });
  world.run();

  EXPECT_LT(longest_stall.sec(), (cfg.period * 2).sec())
      << "balancer idle while node 0 was overloaded";
  EXPECT_GE(balancer.decisions(), 4u);
  for (const auto& host : world.hosts()) {
    EXPECT_TRUE(host->finished());
    EXPECT_NE(host->current_node(), kFileServer);
  }
}

}  // namespace
}  // namespace ampom::balancer
