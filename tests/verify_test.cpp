// InvariantAuditor tests: the auditor stays silent on healthy chaos runs,
// perturbs nothing it observes, and catches a deliberately reintroduced
// protocol bug (the skipped abort rollback) at the exact trigger event.

#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <sstream>
#include <string>

#include "balancer/cluster_sim.hpp"
#include "balancer/load_balancer.hpp"
#include "verify/invariant_auditor.hpp"
#include "workload/hpcc.hpp"
#include "workload/synthetic.hpp"

namespace ampom::verify {
namespace {

using balancer::ClusterSim;
using balancer::ProcessHost;
using sim::Time;

balancer::JobSpec crash_job(net::NodeId home, std::uint64_t touches = 40000) {
  balancer::JobSpec job;
  job.home = home;
  job.label = "verify";
  job.start = Time::from_sec(1.0);
  job.make_workload = [touches] {
    return std::make_unique<workload::HotColdStream>(4 * sim::kMiB, /*hot_pages=*/64, touches,
                                                     /*cold_fraction=*/0.05, Time::from_us(100));
  };
  return job;
}

balancer::LoadBalancer::Config failure_handler_config() {
  balancer::LoadBalancer::Config config;
  config.period = Time::from_ms(250);
  config.imbalance_threshold = 1e9;  // never act on load, only on failures
  return config;
}

// A migrant's host crashes and stays down: detection condemns it, the
// balancer re-homes the migrant, the run finishes — and the auditor, having
// swept every epoch and trigger, found nothing to object to.
TEST(InvariantAuditor, CleanOnCrashRecoveryRun) {
  ClusterSim world{4, driver::Scheme::Ampom};
  InvariantAuditor auditor{world};
  world.set_reliable(true);
  world.enable_recovery_tracking();

  driver::FaultPlan plan;
  plan.crashes.push_back({/*node=*/1, /*at=*/Time::from_sec(1.8), /*restore_at=*/{}});
  world.set_fault_plan(plan);

  ProcessHost& host = world.spawn(crash_job(0));
  world.simulator().schedule_at(Time::from_sec(1.3), [&host] { host.migrate_to(1); });
  balancer::LoadBalancer balancer{world, failure_handler_config()};
  balancer.start();
  world.run();

  EXPECT_TRUE(host.finished());
  EXPECT_EQ(host.current_node(), 0u);  // re-homed after the crash
  EXPECT_EQ(host.recoveries(), 1u);
  EXPECT_EQ(auditor.violations(), 0u);
  EXPECT_GT(auditor.epochs_run(), 0u);
  EXPECT_GT(auditor.checks_run(), 0u);
  EXPECT_EQ(auditor.first_violation(), "");

  // Recovery observability rode along: the crash was detected and the
  // migrant's re-homing latency measured.
  const ClusterSim::RecoveryStats& recovery = world.recovery_stats();
  EXPECT_EQ(recovery.crashes, 1u);
  EXPECT_EQ(recovery.rehomes, 1u);
  EXPECT_EQ(recovery.detect_ms.count(), 1u);
  EXPECT_GT(recovery.detect_ms.mean(), 0.0);
  EXPECT_EQ(recovery.rehome_ms.count(), 1u);
  // The reboot-reclaim fast path: a Frozen migrant on a node not yet
  // condemned by consensus is reclaimed at the next balancer tick, well
  // before the heartbeat-silence threshold declares the node dead.
  EXPECT_LT(recovery.rehome_ms.mean(), recovery.detect_ms.mean());

  driver::RunMetrics metrics;
  world.fill_recovery_metrics(metrics);
  EXPECT_EQ(metrics.crashes_injected, 1u);
  EXPECT_EQ(metrics.migrants_rehomed, 1u);
  EXPECT_GT(metrics.detect_p50_ms, 0.0);
  EXPECT_GT(metrics.rehome_p95_ms, 0.0);
}

// The auditor is an observer, not a participant: the same scenario with and
// without it produces identical application-visible results.
TEST(InvariantAuditor, ObserverChangesNothing) {
  const auto run = [](bool with_auditor) {
    ClusterSim world{3, driver::Scheme::Ampom};
    std::unique_ptr<InvariantAuditor> auditor;
    if (with_auditor) {
      auditor = std::make_unique<InvariantAuditor>(world);
    }
    world.set_reliable(true);
    driver::FaultPlan plan;
    plan.seed = 17;
    plan.default_faults.drop_probability = 0.02;
    world.set_fault_plan(plan);
    ProcessHost& host = world.spawn(crash_job(0, /*touches=*/30000));
    world.simulator().schedule_at(Time::from_sec(1.3), [&host] { host.migrate_to(1); });
    world.run();
    EXPECT_TRUE(host.finished());
    return std::tuple{host.stats().refs_consumed, host.stats().finished_at,
                      host.stats().hard_faults, host.ledger().total_transfers(),
                      host.migrations()};
  };
  EXPECT_EQ(run(false), run(true));
  EXPECT_EQ(run(false), run(false));  // and the baseline itself is stable
}

// Mutation check: re-enable the "skip the abort rollback" bug. Migrating
// into a node that is already down forces the reliable transfer to abort;
// the mutated engine leaves the carried pages owned by the dead destination
// and the auditor's abort trigger must name exactly that.
TEST(InvariantAuditor, CatchesSkippedAbortRollback) {
  ClusterSim world{3, driver::Scheme::Ampom};
  InvariantAuditor auditor{world};
  world.set_reliable(true);
  world.mutate_skip_abort_rollback();

  driver::FaultPlan plan;
  plan.crashes.push_back({/*node=*/2, /*at=*/Time::from_sec(1.2), /*restore_at=*/{}});
  world.set_fault_plan(plan);

  ProcessHost& host = world.spawn(crash_job(0));
  world.simulator().schedule_at(Time::from_sec(1.5), [&host] { host.migrate_to(2); });
  balancer::LoadBalancer balancer{world, failure_handler_config()};
  balancer.start();

  try {
    world.run();
    FAIL() << "expected InvariantViolation";
  } catch (const InvariantViolation& violation) {
    const std::string what = violation.what();
    EXPECT_NE(what.find("owned by the lost destination"), std::string::npos) << what;
    EXPECT_NE(what.find("audit trail"), std::string::npos) << what;
  }
  EXPECT_GE(auditor.violations(), 1u);
  EXPECT_NE(auditor.first_violation().find("owned by the lost destination"),
            std::string::npos);

  // The exact same run with the mutation off completes clean — the finding
  // is the mutation's, not the scenario's.
  ClusterSim control{3, driver::Scheme::Ampom};
  InvariantAuditor control_auditor{control};
  control.set_reliable(true);
  driver::FaultPlan control_plan;
  control_plan.crashes.push_back({/*node=*/2, /*at=*/Time::from_sec(1.2), /*restore_at=*/{}});
  control.set_fault_plan(control_plan);
  ProcessHost& control_host = control.spawn(crash_job(0));
  control.simulator().schedule_at(Time::from_sec(1.5),
                                  [&control_host] { control_host.migrate_to(2); });
  balancer::LoadBalancer control_balancer{control, failure_handler_config()};
  control_balancer.start();
  control.run();
  EXPECT_TRUE(control_host.finished());
  EXPECT_EQ(control_host.failed_migrations(), 1u);  // the abort still happened
  EXPECT_EQ(control_auditor.violations(), 0u);
}

// Regression for a fuzzer find (seed 8398): two nodes crash and later
// restore with their pre-crash heartbeat clocks intact. At the next
// balancer tick the restored pair outvotes the survivors, condemns the
// (perfectly alive) host of a running migrant, and the false recovery
// tears down the deputy mid-service. With fresh-boot detection semantics
// the restored nodes grant the full grace window instead, and nothing is
// reclaimed.
TEST(InvariantAuditor, RestoredNodesDoNotCondemnSurvivors) {
  ClusterSim world{4, driver::Scheme::Ampom};
  InvariantAuditor auditor{world};
  world.set_reliable(true);
  world.enable_recovery_tracking();

  driver::FaultPlan plan;
  // Down long enough for the survivors to look (falsely) silent for the
  // whole dead threshold from the crashed nodes' stale point of view.
  plan.crashes.push_back(
      {/*node=*/1, /*at=*/Time::from_ms(1800), /*restore_at=*/Time::from_ms(4050)});
  plan.crashes.push_back(
      {/*node=*/2, /*at=*/Time::from_ms(1800), /*restore_at=*/Time::from_ms(4050)});
  world.set_fault_plan(plan);

  // A migrant running on node 3 well past the restore instant.
  ProcessHost& host = world.spawn(crash_job(0, /*touches=*/45000));
  world.simulator().schedule_at(Time::from_sec(1.3), [&host] { host.migrate_to(3); });
  balancer::LoadBalancer balancer{world, failure_handler_config()};
  balancer.start();
  world.run();

  EXPECT_TRUE(host.finished());
  EXPECT_EQ(host.current_node(), 3u);  // never falsely re-homed
  EXPECT_EQ(host.recoveries(), 0u);
  EXPECT_EQ(world.recovery_stats().rehomes, 0u);
  EXPECT_EQ(auditor.violations(), 0u);
}

// With throw_on_violation off the auditor records instead of aborting, so a
// whole campaign's violations can be collected in one pass.
TEST(InvariantAuditor, RecordingModeCollectsInsteadOfThrowing) {
  ClusterSim world{3, driver::Scheme::Ampom};
  AuditorConfig config;
  config.throw_on_violation = false;
  InvariantAuditor auditor{world, config};
  world.set_reliable(true);
  world.mutate_skip_abort_rollback();

  driver::FaultPlan plan;
  plan.crashes.push_back({/*node=*/2, /*at=*/Time::from_sec(1.2), /*restore_at=*/{}});
  world.set_fault_plan(plan);
  ProcessHost& host = world.spawn(crash_job(0));
  world.simulator().schedule_at(Time::from_sec(1.5), [&host] { host.migrate_to(2); });
  balancer::LoadBalancer balancer{world, failure_handler_config()};
  balancer.start();
  try {
    world.run();
  } catch (const std::exception&) {
    // The mutation's corruption is real: once the auditor declines to abort,
    // downstream structures (ledger, paging stacks) may still throw their
    // own errors. The auditor's record survives either way.
  }
  EXPECT_GE(auditor.violations(), 1u);
  EXPECT_NE(auditor.trail().find("VIOLATION"), std::string::npos);
}

// A re-migration whose flush back to home races the migrant's own faults:
// requests that reach the deputy mid-flush are queued (the page's HPT entry
// says Incoming while the migrant already marked it InFlight) and served
// when the flush lands. That is the protocol working, not a lost page, so
// the auditor must accept it on every epoch sweep.
TEST(InvariantAuditor, RequestQueuedMidFlushIsNotAViolation) {
  ClusterSim world{3, driver::Scheme::Ampom};
  AuditorConfig config;
  config.epoch = Time::from_ms(1);  // sweep often enough to see the race
  config.throw_on_violation = false;
  config.trail_limit = 1u << 20;  // keep every report
  InvariantAuditor auditor{world, config};

  balancer::JobSpec job;
  job.home = 0;
  job.label = "stream";
  job.start = Time::from_ms(10);
  job.make_workload = [] { return workload::make_hpcc_kernel(workload::HpccKernel::Stream, 33); };
  ProcessHost& host = world.spawn(job);
  world.simulator().schedule_at(Time::from_ms(300), [&host] { host.migrate_to(1); });
  world.simulator().schedule_at(Time::from_ms(800), [&host] { host.migrate_to(2); });

  // Probe, once per millisecond after the second hop, until it has seen a
  // request the deputy queued for a page the migrant is waiting on.
  std::uint64_t queued_seen = 0;
  std::function<void()> probe = [&] {
    if (host.current_node() == 2 && !host.migrating()) {
      const mem::AddressSpace& aspace = host.process().aspace();
      for (mem::PageId page = 0; page < aspace.page_count(); ++page) {
        if (aspace.state(page) == mem::PageState::InFlight &&
            host.deputy().hpt().loc(page) == mem::PageTable::Loc::Incoming &&
            host.deputy().request_waits_on_flush(page)) {
          ++queued_seen;
        }
      }
    }
    if (queued_seen == 0) {
      world.simulator().schedule_after(Time::from_ms(1), probe);
    }
  };
  world.simulator().schedule_at(Time::from_ms(800), probe);
  world.run();

  EXPECT_TRUE(host.finished());
  EXPECT_EQ(host.current_node(), 2u);
  EXPECT_GT(host.deputy().stats().requests_stalled_on_flush, 0u);
  EXPECT_GT(queued_seen, 0u);
  EXPECT_GT(auditor.epochs_run(), 1000u);
  // No queued request is reported. What may remain is a request the
  // migrant sent that has not reached the deputy yet, which the deputy
  // cannot see.
  std::istringstream trail{auditor.trail()};
  for (std::string line; std::getline(trail, line);) {
    if (line.find("VIOLATION") != std::string::npos) {
      EXPECT_NE(line.find("in flight with no request queued at the deputy"), std::string::npos)
          << line;
    }
  }
}

}  // namespace
}  // namespace ampom::verify
