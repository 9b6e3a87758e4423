// Integration tests: whole experiments through driver::run_experiment,
// checking the cross-scheme relationships the paper's evaluation rests on.

#include <gtest/gtest.h>

#include "driver/runner.hpp"
#include "workload/hpcc.hpp"
#include "workload/synthetic.hpp"

namespace ampom::driver {
namespace {

using sim::Time;

Scenario base_scenario(Scheme scheme, std::uint64_t memory_mib = 16) {
  Scenario s;
  s.scheme = scheme;
  s.memory_mib = memory_mib;
  s.workload_label = "STREAM";
  s.make_workload = [memory_mib] {
    return workload::make_hpcc_kernel(workload::HpccKernel::Stream, memory_mib);
  };
  return s;
}

RunMetrics run(Scheme scheme, std::uint64_t memory_mib = 16) {
  return run_experiment(base_scenario(scheme, memory_mib));
}

// The paper point perfbench's self-test also pins: a drift here moves every
// paper figure.
TEST(Integration, PaperPointDgemm575AmpomIsPinned) {
  Scenario s = base_scenario(Scheme::Ampom, 575);
  s.make_workload = [] { return workload::make_hpcc_kernel(workload::HpccKernel::Dgemm, 575); };
  const RunMetrics m = run_experiment(s);
  EXPECT_EQ(m.freeze_time.str(), "681.791ms");
  EXPECT_EQ(m.total_time.str(), "148.541s");
}

TEST(Integration, MissingWorkloadFactoryRejected) {
  Scenario s;
  EXPECT_THROW(run_experiment(s), std::invalid_argument);
}

TEST(Integration, AllSchemesFinishAndConserve) {
  for (const Scheme scheme : {Scheme::OpenMosix, Scheme::NoPrefetch, Scheme::Ampom}) {
    const RunMetrics m = run(scheme);
    EXPECT_TRUE(m.ledger_ok) << scheme_name(scheme);
    EXPECT_GT(m.refs_consumed, 0u) << scheme_name(scheme);
    EXPECT_GT(m.total_time, Time::zero()) << scheme_name(scheme);
  }
}

TEST(Integration, SchemesConsumeIdenticalReferenceStreams) {
  const RunMetrics a = run(Scheme::OpenMosix);
  const RunMetrics b = run(Scheme::NoPrefetch);
  const RunMetrics c = run(Scheme::Ampom);
  EXPECT_EQ(a.refs_consumed, b.refs_consumed);
  EXPECT_EQ(a.refs_consumed, c.refs_consumed);
  EXPECT_EQ(a.page_count, c.page_count);
}

TEST(Integration, FreezeTimeOrderingMatchesFig5) {
  const RunMetrics om = run(Scheme::OpenMosix);
  const RunMetrics np = run(Scheme::NoPrefetch);
  const RunMetrics am = run(Scheme::Ampom);
  // openMosix >> AMPoM > NoPrefetch.
  EXPECT_GT(om.freeze_time, am.freeze_time * 5);
  EXPECT_GT(am.freeze_time, np.freeze_time);
}

TEST(Integration, OpenMosixNeverFaultsRemotely) {
  const RunMetrics m = run(Scheme::OpenMosix);
  EXPECT_EQ(m.remote_fault_requests, 0u);
  EXPECT_EQ(m.hard_faults, 0u);
  EXPECT_EQ(m.pages_arrived, 0u);
  EXPECT_EQ(m.pages_migrated, m.page_count);
}

TEST(Integration, NoPrefetchFaultsOncePerTouchedRemotePage) {
  const RunMetrics m = run(Scheme::NoPrefetch);
  EXPECT_EQ(m.remote_fault_requests, m.hard_faults);
  EXPECT_EQ(m.pages_arrived, m.hard_faults);
  EXPECT_EQ(m.soft_faults, 0u);
  EXPECT_EQ(m.prefetch_pages_issued, 0u);
  // Touched pages = migrated 3 + faulted; untouched pages stay home.
  EXPECT_LE(m.pages_arrived + m.pages_migrated, m.page_count);
}

TEST(Integration, AmpomPreventsMostFaultRequests) {
  const RunMetrics np = run(Scheme::NoPrefetch);
  const RunMetrics am = run(Scheme::Ampom);
  EXPECT_LT(am.remote_fault_requests, np.remote_fault_requests / 20);
  EXPECT_GT(am.prevented_fault_fraction(), 0.9);
  // Same pages cross the wire either way (STREAM touches everything).
  EXPECT_NEAR(static_cast<double>(am.pages_arrived),
              static_cast<double>(np.pages_arrived),
              static_cast<double>(np.pages_arrived) * 0.02);
}

TEST(Integration, RuntimeOrderingMatchesFig6) {
  const RunMetrics om = run(Scheme::OpenMosix);
  const RunMetrics np = run(Scheme::NoPrefetch);
  const RunMetrics am = run(Scheme::Ampom);
  EXPECT_GT(np.total_time, om.total_time);            // NoPrefetch lags
  EXPECT_LT(am.total_time, np.total_time);            // AMPoM beats NoPrefetch
  const double ratio = am.total_time / om.total_time;
  EXPECT_GT(ratio, 0.85);                             // ...and tracks openMosix
  EXPECT_LT(ratio, 1.10);
}

TEST(Integration, DeterministicAcrossRuns) {
  const RunMetrics a = run(Scheme::Ampom);
  const RunMetrics b = run(Scheme::Ampom);
  EXPECT_EQ(a.total_time, b.total_time);
  EXPECT_EQ(a.freeze_time, b.freeze_time);
  EXPECT_EQ(a.remote_fault_requests, b.remote_fault_requests);
  EXPECT_EQ(a.prefetch_pages_issued, b.prefetch_pages_issued);
}

TEST(Integration, BroadbandShapingSlowsEverything) {
  Scenario fast = base_scenario(Scheme::Ampom);
  Scenario slow = base_scenario(Scheme::Ampom);
  slow.shaped_link = broadband_link();
  const RunMetrics f = run_experiment(fast);
  const RunMetrics s = run_experiment(slow);
  EXPECT_GT(s.total_time, f.total_time * 2);
  EXPECT_GT(s.freeze_time, f.freeze_time);  // MPT crosses the slow link too
}

TEST(Integration, BackgroundLoadSlowsTheMigrant) {
  Scenario idle = base_scenario(Scheme::OpenMosix);
  Scenario busy = base_scenario(Scheme::OpenMosix);
  busy.dest_background_load = 0.5;
  const RunMetrics i = run_experiment(idle);
  const RunMetrics b = run_experiment(busy);
  // Post-migration compute runs at half speed.
  EXPECT_GT(b.total_time, i.total_time);
  EXPECT_GT(b.cpu_time, i.cpu_time.scaled(1.5));
}

TEST(Integration, SmallWorkingSetTransfersLessUnderAmpom) {
  Scenario s = base_scenario(Scheme::Ampom, 64);
  s.workload_label = "DGEMM-ws";
  s.make_workload = [] { return workload::make_small_ws_dgemm(64, 16); };
  const RunMetrics am = run_experiment(s);
  s.scheme = Scheme::OpenMosix;
  const RunMetrics om = run_experiment(s);
  // §5.6: AMPoM moves only the working set; openMosix moves everything.
  EXPECT_EQ(om.pages_migrated, om.page_count);
  EXPECT_LT(am.pages_arrived + am.pages_migrated, om.pages_migrated / 2);
  EXPECT_LT(am.total_time, om.total_time);
}

TEST(Integration, RamLimitCausesEvictionsAndStillFinishes) {
  Scenario s = base_scenario(Scheme::Ampom);
  s.ram_limit_pages = 1024;  // far below the 16 MiB working set
  const RunMetrics m = run_experiment(s);
  EXPECT_GT(m.refs_consumed, 0u);
  EXPECT_TRUE(m.ledger_ok);
}

TEST(Integration, InteractiveWorkloadWithHomeDependency) {
  Scenario s = base_scenario(Scheme::Ampom, 8);
  s.workload_label = "interactive";
  s.make_workload = [] {
    return std::make_unique<workload::InteractiveStream>(8 * sim::kMiB, 50, 40, 2,
                                                         Time::from_us(20));
  };
  const RunMetrics with_home = run_experiment(s);
  s.home_dependency = false;
  const RunMetrics zap_style = run_experiment(s);
  // §7: removing the home dependency speeds up syscall-heavy migrants.
  EXPECT_LT(zap_style.total_time, with_home.total_time);
}

TEST(Integration, AmpomAnalysisOverheadWithinFig11Envelope) {
  const RunMetrics m = run(Scheme::Ampom, 33);
  EXPECT_GT(m.ampom_analysis_time, Time::zero());
  EXPECT_LT(m.analysis_overhead_fraction(), 0.006);  // < 0.6 % of runtime
}

TEST(Integration, ExecTimeExcludesFreeze) {
  const RunMetrics m = run(Scheme::OpenMosix);
  EXPECT_EQ(m.exec_time + m.freeze_time, m.total_time);
}

TEST(Integration, BackgroundTrafficInflatesZoneEstimates) {
  Scenario quiet = base_scenario(Scheme::Ampom);
  Scenario noisy = base_scenario(Scheme::Ampom);
  noisy.background_traffic = 0.5;
  const RunMetrics q = run_experiment(quiet);
  const RunMetrics n = run_experiment(noisy);
  // §3.5: a busier network means a longer pipeline to hide, so AMPoM
  // prefetches at least as aggressively.
  EXPECT_GE(n.prefetched_per_fault(), q.prefetched_per_fault() * 0.9);
  EXPECT_TRUE(n.ledger_ok);
}

}  // namespace
}  // namespace ampom::driver
