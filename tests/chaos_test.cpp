// Chaos tests: migration and remote paging under injected faults.
//
// The reliable protocol stack (paging retransmission, ack'd migration
// chunks, heartbeat failure detection, deputy-side recovery) must carry a
// process through lossy links and a mid-run destination crash — and because
// every fault comes from one seeded RNG, reruns with the same seed must be
// bit-identical.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "balancer/cluster_sim.hpp"
#include "balancer/load_balancer.hpp"
#include "driver/builder.hpp"
#include "driver/runner.hpp"
#include "net/fault_injector.hpp"
#include "trace/trace.hpp"
#include "workload/synthetic.hpp"

namespace ampom::balancer {
namespace {

using sim::Time;

JobSpec paging_job(net::NodeId home, std::uint64_t touches = 120000) {
  JobSpec job;
  job.home = home;
  job.label = "chaos";
  job.make_workload = [touches] {
    return std::make_unique<workload::HotColdStream>(8 * sim::kMiB, /*hot_pages=*/256, touches,
                                                     /*cold_fraction=*/0.05,
                                                     Time::from_us(100));
  };
  return job;
}

driver::FaultPlan lossy_plan(double drop, std::uint64_t seed) {
  driver::FaultPlan plan;
  plan.seed = seed;
  plan.default_faults.drop_probability = drop;
  return plan;
}

TEST(Chaos, MigrationAndPagingCompleteUnderLoss) {
  // 1% and 5% message loss: the migration still commits, the migrant still
  // pages from its home node, and the ledger still accounts for every page.
  for (const double drop : {0.01, 0.05}) {
    ClusterSim world{3, driver::Scheme::Ampom};
    world.set_reliable(true);
    world.set_fault_plan(lossy_plan(drop, /*seed=*/11));
    ProcessHost& host = world.spawn(paging_job(0));
    world.simulator().schedule_at(Time::from_sec(0.4), [&host] { host.migrate_to(1); });
    world.run();

    EXPECT_TRUE(host.finished()) << "drop=" << drop;
    EXPECT_EQ(host.migrations(), 1u) << "drop=" << drop;
    EXPECT_EQ(host.current_node(), 1u) << "drop=" << drop;
    // Final ownership: every page is either still home or at the migrant's
    // node — loss-driven retransmission never forked or leaked a page.
    const mem::PageLedger& ledger = host.ledger();
    for (mem::PageId page = 0; page < ledger.page_count(); ++page) {
      const net::NodeId owner = ledger.owner(page);
      EXPECT_TRUE(owner == 0u || owner == 1u) << "page " << page << " at " << owner;
    }
    // The faults really happened and the protocol really recovered.
    EXPECT_GT(world.fault_injector()->stats().dropped, 0u);
    const proc::PagingClientStats* paging = host.paging_stats(1);
    ASSERT_NE(paging, nullptr);
    if (drop >= 0.05) {
      EXPECT_GT(paging->retransmits, 0u);
    }
  }
}

// A scripted run has no balancer to re-home a process stranded on a crashed
// node: the Runner must end it, by finishing or by throwing, never spin.
driver::RunMetrics scripted_run_with_crash(net::NodeId node, Time at) {
  driver::FaultPlan plan;
  plan.crashes.push_back({node, at, /*restore_at=*/at + Time::from_sec(1.0)});
  return driver::run_experiment(driver::ScenarioBuilder{}
                                    .workload("chaos", paging_job(0).make_workload)
                                    .reliable()
                                    .faults(plan)
                                    .build());
}

TEST(Chaos, ScriptedRunStrandedOnACrashedNodeEnds) {
  // The destination dies under the migrant (migration at 1.001 s).
  EXPECT_THROW((void)scripted_run_with_crash(1, Time::from_sec(2.0)), std::runtime_error);
}

TEST(Chaos, ScriptedRunToADeadDestinationFinishesAtHome) {
  // The destination is down when the hop starts: the ack'd transfer aborts
  // and the process finishes where it was born.
  const driver::RunMetrics m = scripted_run_with_crash(1, Time::from_ms(900));
  EXPECT_FALSE(m.migration_completed);
  EXPECT_GT(m.refs_consumed, 0u);
}

TEST(Chaos, DeadDestinationAbortsMigrationAndUnfreezesAtSource) {
  ClusterSim world{3, driver::Scheme::Ampom};
  world.set_reliable(true);
  world.crash_node(2);
  ProcessHost& host = world.spawn(paging_job(0, /*touches=*/40000));
  world.simulator().schedule_at(Time::from_sec(0.4), [&host] { host.migrate_to(2); });
  world.run();

  EXPECT_TRUE(host.finished());
  EXPECT_EQ(host.current_node(), 0u);  // never left home
  EXPECT_EQ(host.migrations(), 0u);
  EXPECT_EQ(host.failed_migrations(), 1u);
  // Nothing moved: the repartition is deferred until verified delivery.
  const mem::PageLedger& ledger = host.ledger();
  for (mem::PageId page = 0; page < ledger.page_count(); ++page) {
    EXPECT_EQ(ledger.owner(page), 0u);
  }
}

// The ISSUE's scripted chaos scenario: 2% loss everywhere, and the node the
// migrant runs on dies mid-run. Failure detection must notice the silence,
// the balancer must reclaim the stranded process, and the deputy must
// reconstruct page ownership from the HPT/ledger.
struct ChaosOutcome {
  double makespan_sec{0.0};
  std::uint64_t recoveries{0};
  std::uint64_t rehomes{0};
  std::uint64_t pages_recovered{0};
  std::uint64_t injected_drops{0};
  net::FaultInjectorStats faults;
  // Every message's fate as the fabric recorded it, in order: (time, event
  // — the payload name on send, then drop/duplicate/crash_drop/deliver —,
  // node, correlation id, wire bytes).
  std::vector<std::tuple<Time, std::string, std::uint32_t, std::uint64_t, std::uint64_t>> net_log;
  bool all_pages_home{true};
};

ChaosOutcome run_crash_scenario(std::uint64_t seed) {
  ChaosOutcome out;
  ClusterSim world{3, driver::Scheme::Ampom};
  world.set_reliable(true);
  driver::FaultPlan plan = lossy_plan(0.02, seed);
  plan.crashes.push_back({/*node=*/1, /*at=*/Time::from_sec(1.2), /*restore_at=*/{}});
  world.set_fault_plan(plan);
  trace::TraceConfig trace_config;
  trace_config.enabled = true;
  trace_config.sched_sample_period = Time::zero();
  trace::TraceRecorder recorder{trace_config};
  world.set_trace(&recorder);

  ProcessHost& host = world.spawn(paging_job(0));
  world.simulator().schedule_at(Time::from_sec(0.4), [&host] { host.migrate_to(1); });

  // The balancer acts purely as the failure handler here: a prohibitive
  // imbalance threshold disables load-driven moves.
  LoadBalancer::Config cfg;
  cfg.period = Time::from_ms(250);
  cfg.imbalance_threshold = 1e9;
  LoadBalancer balancer{world, cfg};
  balancer.start();
  world.run();
  balancer.stop();

  out.makespan_sec = world.makespan().sec();
  out.recoveries = host.recoveries();
  out.rehomes = balancer.rehomes();
  out.pages_recovered = host.deputy().stats().pages_recovered;
  out.injected_drops = world.fault_injector()->stats().dropped;
  out.faults = world.fault_injector()->stats();
  for (const trace::Event& event : recorder.events()) {
    if (event.cat == trace::Category::kNet) {
      out.net_log.emplace_back(event.ts, event.name, event.node, event.corr, event.arg0);
    }
  }
  const mem::PageLedger& ledger = host.ledger();
  for (mem::PageId page = 0; page < ledger.page_count(); ++page) {
    out.all_pages_home = out.all_pages_home && ledger.owner(page) == 0u;
  }
  EXPECT_TRUE(host.finished());
  EXPECT_EQ(host.current_node(), 0u);  // reclaimed to home after the crash
  return out;
}

TEST(Chaos, CrashedHostIsDetectedAndMigrantRehomed) {
  const ChaosOutcome out = run_crash_scenario(/*seed=*/23);
  EXPECT_EQ(out.recoveries, 1u);
  EXPECT_EQ(out.rehomes, 1u);
  EXPECT_GT(out.pages_recovered, 0u);  // the deputy reclaimed the lost pages
  EXPECT_GT(out.injected_drops, 0u);   // the 2% loss was really in effect
  EXPECT_TRUE(out.all_pages_home);     // ledger fully reconstructed
}

TEST(Chaos, CrashScenarioIsDeterministic) {
  const ChaosOutcome a = run_crash_scenario(/*seed=*/23);
  const ChaosOutcome b = run_crash_scenario(/*seed=*/23);
  EXPECT_EQ(a.makespan_sec, b.makespan_sec);
  EXPECT_EQ(a.faults.messages_seen, b.faults.messages_seen);
  EXPECT_EQ(a.faults.dropped, b.faults.dropped);
  EXPECT_EQ(a.faults.crash_drops, b.faults.crash_drops);
  EXPECT_GT(a.faults.crash_drops, 0u);  // the crash really suppressed traffic
  EXPECT_EQ(a.injected_drops, b.injected_drops);
  EXPECT_EQ(a.recoveries, b.recoveries);
  EXPECT_EQ(a.pages_recovered, b.pages_recovered);
  EXPECT_FALSE(a.net_log.empty());
  EXPECT_EQ(a.net_log, b.net_log);
}

TEST(Chaos, BalancerSkipsDeadNodesWhenPlacing) {
  // Four nodes, one dead: the balancer spreads load but never picks the
  // dead node as a destination.
  ClusterSim world{4, driver::Scheme::Ampom};
  world.set_reliable(true);
  for (int i = 0; i < 4; ++i) {
    world.spawn(paging_job(0, /*touches=*/60000));
  }
  world.simulator().schedule_at(Time::from_ms(100), [&world] { world.crash_node(3); });
  LoadBalancer balancer{world, LoadBalancer::Config{}};
  balancer.start();
  world.run();

  EXPECT_GT(balancer.decisions(), 0u);
  for (const auto& host : world.hosts()) {
    EXPECT_TRUE(host->finished());
    EXPECT_NE(host->current_node(), 3u);
  }
}

}  // namespace
}  // namespace ampom::balancer
