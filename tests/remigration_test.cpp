// Tests of the second-hop (re-migration) support: the paper's §1 scenario
// of correcting a suboptimal placement decision.

#include <gtest/gtest.h>

#include <fstream>
#include <memory>

#include "balancer/cluster_sim.hpp"
#include "driver/builder.hpp"
#include "driver/runner.hpp"
#include "workload/hpcc.hpp"
#include "workload/synthetic.hpp"

namespace ampom::driver {
namespace {

using sim::Time;

Scenario two_hop(Scheme scheme, std::uint64_t memory_mib = 16,
                 Time second_after = Time::from_sec(2.0)) {
  Scenario s;
  s.scheme = scheme;
  s.memory_mib = memory_mib;
  s.workload_label = "STREAM";
  s.make_workload = [memory_mib] {
    return workload::make_hpcc_kernel(workload::HpccKernel::Stream, memory_mib);
  };
  s.remigrate_after = second_after;
  return s;
}

TEST(Remigration, RejectsBackgroundTrafficCombination) {
  Scenario s = two_hop(Scheme::Ampom);
  s.background_traffic = 0.3;
  EXPECT_THROW(run_experiment(s), std::invalid_argument);
}

TEST(Remigration, AmpomTwoHopFinishes) {
  const RunMetrics m = run_experiment(two_hop(Scheme::Ampom));
  EXPECT_TRUE(m.ledger_ok);
  EXPECT_GT(m.freeze_time, Time::zero());
  EXPECT_GT(m.freeze_time_2, Time::zero());
  // Both freezes are lightweight.
  EXPECT_LT(m.freeze_time_2, Time::from_sec(1.0));
  EXPECT_GT(m.refs_consumed, 0u);
}

TEST(Remigration, FlushReturnsPagesToHome) {
  const RunMetrics m = run_experiment(two_hop(Scheme::Ampom));
  // Pages fetched to B before the second hop went back to the home node.
  EXPECT_GT(m.flush_pages, 0u);
}

TEST(Remigration, StalledRequestsAreServedAfterFlush) {
  // Re-migrate quickly so the process at C races the flush from B.
  const RunMetrics m = run_experiment(two_hop(Scheme::Ampom, 33, Time::from_ms(500)));
  EXPECT_GT(m.requests_stalled_on_flush, 0u);
  EXPECT_TRUE(m.ledger_ok);
  EXPECT_GT(m.refs_consumed, 0u);  // the run still completed
}

TEST(Remigration, OpenMosixTwoHopPaysTwoFullFreezes) {
  const RunMetrics m = run_experiment(two_hop(Scheme::OpenMosix, 65, Time::from_ms(500)));
  EXPECT_GT(m.freeze_time, Time::from_sec(1.0));
  EXPECT_GT(m.freeze_time_2, Time::from_sec(1.0));
  EXPECT_EQ(m.flush_pages, 0u);  // everything travels with the process
}

TEST(Remigration, NoPrefetchTwoHopFinishes) {
  const RunMetrics m = run_experiment(two_hop(Scheme::NoPrefetch));
  EXPECT_GT(m.freeze_time_2, Time::zero());
  EXPECT_LT(m.freeze_time_2, Time::from_ms(500));
  EXPECT_GT(m.refs_consumed, 0u);
}

TEST(Remigration, SecondHopSkippedIfProcessFinishes) {
  // Re-migration scheduled long after the workload ends: single-hop run.
  const RunMetrics m = run_experiment(two_hop(Scheme::Ampom, 8, Time::from_sec(3600)));
  EXPECT_EQ(m.freeze_time_2, Time::zero());
  EXPECT_GT(m.refs_consumed, 0u);
}

TEST(Remigration, TwoHopCostMuchLowerUnderAmpom) {
  const RunMetrics am = run_experiment(two_hop(Scheme::Ampom, 65, Time::from_ms(500)));
  const RunMetrics om = run_experiment(two_hop(Scheme::OpenMosix, 65, Time::from_ms(500)));
  const double am_frozen = (am.freeze_time + am.freeze_time_2).sec();
  const double om_frozen = (om.freeze_time + om.freeze_time_2).sec();
  EXPECT_LT(am_frozen, om_frozen / 5);
}

// ---------------------------------------------------------------------------
// CPMD warm-up charges across re-migration (cache model, DESIGN.md §17)
// ---------------------------------------------------------------------------

balancer::JobSpec cpmd_job(net::NodeId home, std::uint64_t touches) {
  balancer::JobSpec job;
  job.home = home;
  job.label = "cpmd";
  job.make_workload = [touches] {
    return std::make_unique<workload::HotColdStream>(8 * sim::kMiB, /*hot_pages=*/256,
                                                     touches, /*cold_fraction=*/0.05,
                                                     Time::from_us(100));
  };
  return job;
}

Scenario cache_world(const std::string& calibration = {}) {
  ScenarioBuilder builder;
  builder.scheme(Scheme::Ampom).topology(1, 4).cache_model();
  if (!calibration.empty()) {
    builder.cpmd_calibration(calibration);
  }
  return builder.build();
}

// A calibration whose warm-up dwarfs every timing jitter in the run: 5 s at
// any WSS (the single point clamps flat in both directions).
std::string slow_calibration_path() {
  const std::string path = testing::TempDir() + "cpmd_slow_calibration.txt";
  std::ofstream out{path};
  out << "# constant 5 s warm-up at every WSS\n1 5000000\n";
  return path;
}

TEST(RemigrationCpmd, FirstHopChargesTheCalibratedWarmup) {
  balancer::ClusterSim world{cache_world()};
  balancer::ProcessHost& host = world.spawn(cpmd_job(0, 20000));
  world.simulator().schedule_at(Time::from_ms(500), [&host] { host.migrate_to(1); });
  world.run();
  EXPECT_TRUE(host.finished());
  EXPECT_EQ(host.migrations(), 1u);
  // The only process in the world displaces nobody: the charge is exactly
  // the calibration curve at its working-set size, and it is fully paid by
  // the end of the run.
  const sim::Time expected = migration::CpmdTable::builtin().warmup_delay(host.wss_bytes());
  EXPECT_GT(expected, Time::zero());
  EXPECT_EQ(host.stats().warmup_charges, 1u);
  EXPECT_EQ(host.stats().warmup_charged, expected);
  EXPECT_EQ(host.stats().warmup_paid, expected);
}

TEST(RemigrationCpmd, RemigrationBeforePayoffCarriesTheBalanceNotAFreshCharge) {
  // The double-charge bug this pins: a process re-migrated before its first
  // warm-up was fully paid used to be billed the full CPMD again on the
  // second hop. The outstanding balance must carry instead — one charge,
  // paid once.
  balancer::ClusterSim world{cache_world(slow_calibration_path())};
  balancer::ProcessHost& host = world.spawn(cpmd_job(0, 20000));
  world.simulator().schedule_at(Time::from_ms(500), [&host] { host.migrate_to(1); });
  // 1.5 s into a 5 s warm-up, hop again: the balance is far from paid.
  world.simulator().schedule_at(Time::from_sec(2.0), [&host] { host.migrate_to(2); });
  world.run();
  EXPECT_TRUE(host.finished());
  EXPECT_EQ(host.migrations(), 2u);
  EXPECT_EQ(host.stats().warmup_charges, 1u);
  EXPECT_EQ(host.stats().warmup_charged, Time::from_sec(5.0));
  EXPECT_EQ(host.stats().warmup_paid, host.stats().warmup_charged);
}

TEST(RemigrationCpmd, RemigrationAfterPayoffPaysASecondFullCharge) {
  // Once the first warm-up is fully paid the caches are warm; hopping again
  // legitimately costs a second full charge.
  balancer::ClusterSim world{cache_world(slow_calibration_path())};
  balancer::ProcessHost& host = world.spawn(cpmd_job(0, 60000));
  world.simulator().schedule_at(Time::from_ms(500), [&host] { host.migrate_to(1); });
  // The 5 s balance is paid off by ~5.6 s; hop well after that.
  world.simulator().schedule_at(Time::from_sec(8.0), [&host] { host.migrate_to(2); });
  world.run();
  EXPECT_TRUE(host.finished());
  EXPECT_EQ(host.migrations(), 2u);
  EXPECT_EQ(host.stats().warmup_charges, 2u);
  EXPECT_EQ(host.stats().warmup_charged, Time::from_sec(10.0));
  EXPECT_EQ(host.stats().warmup_paid, host.stats().warmup_charged);
}

TEST(RemigrationCpmd, CacheModelOffChargesNothing) {
  balancer::ClusterSim world{ScenarioBuilder{}.scheme(Scheme::Ampom).topology(1, 4).build()};
  balancer::ProcessHost& host = world.spawn(cpmd_job(0, 20000));
  world.simulator().schedule_at(Time::from_ms(500), [&host] { host.migrate_to(1); });
  world.run();
  EXPECT_TRUE(host.finished());
  EXPECT_EQ(host.stats().warmup_charges, 0u);
  EXPECT_EQ(host.stats().warmup_charged, Time::zero());
  EXPECT_EQ(host.stats().warmup_paid, Time::zero());
}

}  // namespace
}  // namespace ampom::driver
