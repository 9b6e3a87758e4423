// Property-based tests: parameterized sweeps over schemes, kernels, sizes
// and randomized inputs, asserting the invariants that must hold for every
// configuration (conservation, determinism, score bounds, zone sanity).

#include <gtest/gtest.h>

#include <tuple>
#include <unordered_set>

#include "core/dependent_zone.hpp"
#include "core/locality.hpp"
#include "driver/runner.hpp"
#include "simcore/rng.hpp"
#include "workload/hpcc.hpp"

namespace ampom {
namespace {

using driver::RunMetrics;
using driver::Scenario;
using driver::Scheme;
using sim::Time;

// ---------------------------------------------------------------------------
// Scheme x kernel sweep: every combination must finish, conserve pages and
// keep the metric algebra consistent.
// ---------------------------------------------------------------------------

using SchemeKernel = std::tuple<Scheme, workload::HpccKernel>;

class SchemeKernelProperty : public ::testing::TestWithParam<SchemeKernel> {};

RunMetrics run_small(Scheme scheme, workload::HpccKernel kernel, std::uint64_t seed = 1) {
  Scenario s;
  s.scheme = scheme;
  s.memory_mib = 12;
  s.workload_label = workload::hpcc_kernel_name(kernel);
  s.seed = seed;
  s.make_workload = [kernel, seed] { return workload::make_hpcc_kernel(kernel, 12, seed); };
  return run_experiment(s);
}

TEST_P(SchemeKernelProperty, FinishesWithLedgerIntact) {
  const auto [scheme, kernel] = GetParam();
  const RunMetrics m = run_small(scheme, kernel);
  EXPECT_TRUE(m.ledger_ok);
  EXPECT_GT(m.refs_consumed, 0u);
}

TEST_P(SchemeKernelProperty, EveryRequestedPageArrives) {
  const auto [scheme, kernel] = GetParam();
  const RunMetrics m = run_small(scheme, kernel);
  // Pages over the paging channel plus pages moved in the freeze never
  // exceed the address space, and nothing is lost in flight.
  EXPECT_LE(m.pages_arrived + m.pages_migrated, m.page_count);
  if (scheme == Scheme::OpenMosix) {
    EXPECT_EQ(m.pages_arrived, 0u);
  }
}

TEST_P(SchemeKernelProperty, TimingAlgebraHolds) {
  const auto [scheme, kernel] = GetParam();
  const RunMetrics m = run_small(scheme, kernel);
  EXPECT_EQ(m.exec_time + m.freeze_time, m.total_time);
  EXPECT_LE(m.cpu_time, m.total_time);
  EXPECT_LE(m.freeze_time, m.total_time);
  EXPECT_GE(m.stall_time, Time::zero());
}

TEST_P(SchemeKernelProperty, DeterministicAcrossIdenticalRuns) {
  const auto [scheme, kernel] = GetParam();
  const RunMetrics a = run_small(scheme, kernel);
  const RunMetrics b = run_small(scheme, kernel);
  EXPECT_EQ(a.total_time, b.total_time);
  EXPECT_EQ(a.remote_fault_requests, b.remote_fault_requests);
  EXPECT_EQ(a.refs_consumed, b.refs_consumed);
}

INSTANTIATE_TEST_SUITE_P(
    AllCombos, SchemeKernelProperty,
    ::testing::Combine(::testing::Values(Scheme::OpenMosix, Scheme::NoPrefetch, Scheme::Ampom),
                       ::testing::Values(workload::HpccKernel::Dgemm,
                                         workload::HpccKernel::Stream,
                                         workload::HpccKernel::RandomAccess,
                                         workload::HpccKernel::Fft)),
    [](const ::testing::TestParamInfo<SchemeKernel>& param_info) {
      return std::string(driver::scheme_name(std::get<0>(param_info.param))) + "_" +
             workload::hpcc_kernel_name(std::get<1>(param_info.param));
    });

// ---------------------------------------------------------------------------
// Freeze-time scaling: AMPoM's freeze grows linearly with the page count;
// NoPrefetch's stays flat; openMosix's grows with the dirty set (Fig. 5).
// ---------------------------------------------------------------------------

class FreezeScalingProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FreezeScalingProperty, OrderingHoldsAtEverySize) {
  const std::uint64_t mib = GetParam();
  Scenario s;
  s.memory_mib = mib;
  s.workload_label = "STREAM";
  s.make_workload = [mib] { return workload::make_hpcc_kernel(workload::HpccKernel::Stream, mib); };
  s.scheme = Scheme::OpenMosix;
  const auto om = run_experiment(s);
  s.scheme = Scheme::NoPrefetch;
  const auto np = run_experiment(s);
  s.scheme = Scheme::Ampom;
  const auto am = run_experiment(s);
  EXPECT_GT(om.freeze_time, am.freeze_time);
  EXPECT_GT(am.freeze_time, np.freeze_time);
  // openMosix's freeze is roughly wire-rate linear in the address space.
  const double per_page_us = om.freeze_time.us() / static_cast<double>(om.page_count);
  EXPECT_GT(per_page_us, 250.0);
  EXPECT_LT(per_page_us, 500.0);
}

INSTANTIATE_TEST_SUITE_P(Sizes, FreezeScalingProperty, ::testing::Values(8u, 16u, 32u, 48u));

// ---------------------------------------------------------------------------
// Locality score: bounded and monotone under randomized windows.
// ---------------------------------------------------------------------------

class LocalityScoreProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(LocalityScoreProperty, ScoreStaysInUnitInterval) {
  sim::Rng rng{GetParam()};
  core::LookbackWindow w{20};
  core::LocalityAnalyzer analyzer{4};
  std::int64_t t = 0;
  for (int i = 0; i < 500; ++i) {
    w.record(rng.uniform(64), Time::from_us(++t), rng.uniform_real());
    const double s = analyzer.score(w);
    ASSERT_GE(s, 0.0);
    ASSERT_LE(s, 1.0);
  }
}

TEST_P(LocalityScoreProperty, OutstandingStreamPivotsFollowWindowPages) {
  sim::Rng rng{GetParam() ^ 0xABCD};
  core::LookbackWindow w{20};
  core::LocalityAnalyzer analyzer{4};
  std::int64_t t = 0;
  for (int i = 0; i < 300; ++i) {
    w.record(rng.uniform(32), Time::from_us(++t), 1.0);
    for (const auto& stream : analyzer.outstanding_streams(w)) {
      ASSERT_GE(stream.d, 1u);
      ASSERT_LE(stream.d, 4u);
      // The pivot is the successor of some page in the window.
      bool found = false;
      for (std::size_t j = 0; j < w.size(); ++j) {
        found |= w.page(j) + 1 == stream.pivot;
      }
      ASSERT_TRUE(found);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LocalityScoreProperty,
                         ::testing::Values(1u, 7u, 42u, 1234u, 99999u));

// ---------------------------------------------------------------------------
// Zone selection: no duplicates, within bounds, exact quota when room.
// ---------------------------------------------------------------------------

class ZoneSelectionProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ZoneSelectionProperty, SelectionIsSaneForRandomWindows) {
  sim::Rng rng{GetParam()};
  core::LocalityAnalyzer analyzer{4};
  for (int round = 0; round < 200; ++round) {
    core::LookbackWindow w{20};
    std::int64_t t = 0;
    const std::uint64_t universe = 200 + rng.uniform(2000);
    for (int i = 0; i < 20; ++i) {
      w.record(rng.uniform(universe / 2), Time::from_us(++t), 1.0);
    }
    const auto streams = analyzer.outstanding_streams(w);
    const std::uint64_t n = rng.uniform(64);
    std::vector<mem::PageId> zone;
    core::select_zone(w, streams, n, universe, zone);
    ASSERT_LE(zone.size(), n);
    std::unordered_set<mem::PageId> unique(zone.begin(), zone.end());
    ASSERT_EQ(unique.size(), zone.size());  // no duplicates
    for (const mem::PageId p : zone) {
      ASSERT_LT(p, universe);  // within the address space
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ZoneSelectionProperty, ::testing::Values(3u, 17u, 2025u));

// ---------------------------------------------------------------------------
// Eq. 3 monotonicity over randomized inputs.
// ---------------------------------------------------------------------------

class ZoneSizeProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ZoneSizeProperty, MonotoneInScoreAndRate) {
  sim::Rng rng{GetParam()};
  core::AmpomConfig cfg;
  cfg.min_zone = 0;
  cfg.zone_cap = 1u << 20;  // effectively uncapped for this test
  for (int i = 0; i < 300; ++i) {
    core::ZoneInputs in;
    in.locality_score = rng.uniform_real();
    in.paging_rate_hz = rng.uniform_real(10.0, 50000.0);
    in.cpu_mean = rng.uniform_real(0.05, 1.0);
    in.cpu_next = rng.uniform_real(0.05, 1.0);
    in.rtt_one_way = Time::from_us(static_cast<std::int64_t>(rng.uniform(3000)) + 10);
    in.page_transfer = Time::from_us(static_cast<std::int64_t>(rng.uniform(3000)) + 10);

    const auto base = core::zone_size(in, cfg);
    core::ZoneInputs more = in;
    more.locality_score = std::min(1.0, in.locality_score + 0.3);
    ASSERT_GE(core::zone_size(more, cfg), base);
    more = in;
    more.paging_rate_hz *= 2.0;
    ASSERT_GE(core::zone_size(more, cfg), base);
    more = in;
    more.page_transfer = in.page_transfer * 3;
    ASSERT_GE(core::zone_size(more, cfg), base);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ZoneSizeProperty, ::testing::Values(11u, 222u, 3333u));

// ---------------------------------------------------------------------------
// Seed variation: RandomAccess runs differ across seeds but every invariant
// still holds.
// ---------------------------------------------------------------------------

class SeedProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SeedProperty, RandomAccessInvariantsAcrossSeeds) {
  const RunMetrics m =
      run_small(Scheme::Ampom, workload::HpccKernel::RandomAccess, GetParam());
  EXPECT_TRUE(m.ledger_ok);
  EXPECT_LE(m.pages_arrived + m.pages_migrated, m.page_count);
  EXPECT_GT(m.prevented_fault_fraction(), 0.3);  // the read-ahead floor works
  EXPECT_LE(m.prevented_fault_fraction(), 1.0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SeedProperty, ::testing::Values(1u, 2u, 3u, 5u, 8u));

}  // namespace
}  // namespace ampom
