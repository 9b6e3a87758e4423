// Microbenchmarks of the AMPoM analysis path — the code that runs inside
// the page-fault handler, whose cost Fig. 11 bounds below 0.6 % of runtime.
// These measure the real host cost of each analysis step; the simulator
// charges the calibrated equivalents from AmpomConfig.

#include <benchmark/benchmark.h>

#include <vector>

#include "core/dependent_zone.hpp"
#include "core/locality.hpp"
#include "core/lookback_window.hpp"
#include "simcore/rng.hpp"
#include "workload/hpcc.hpp"

namespace {

using namespace ampom;

core::LookbackWindow sequential_window(std::size_t l) {
  core::LookbackWindow w{l};
  std::int64_t t = 0;
  for (std::size_t i = 0; i < l; ++i) {
    w.record(1000 + i, sim::Time::from_us(++t), 0.8);
  }
  return w;
}

core::LookbackWindow random_window(std::size_t l, std::uint64_t seed) {
  core::LookbackWindow w{l};
  sim::Rng rng{seed};
  std::int64_t t = 0;
  for (std::size_t i = 0; i < l; ++i) {
    w.record(rng.uniform(1u << 20), sim::Time::from_us(++t), 0.8);
  }
  return w;
}

void BM_WindowRecord(benchmark::State& state) {
  core::LookbackWindow w{static_cast<std::size_t>(state.range(0))};
  std::int64_t t = 0;
  mem::PageId page = 0;
  for (auto _ : state) {
    w.record(page += 2, sim::Time::from_us(++t), 0.5);
    benchmark::DoNotOptimize(w.size());
  }
}
BENCHMARK(BM_WindowRecord)->Arg(20)->Arg(64);

void BM_LocalityScoreSequential(benchmark::State& state) {
  const auto w = sequential_window(static_cast<std::size_t>(state.range(0)));
  core::LocalityAnalyzer analyzer{4};
  for (auto _ : state) {
    benchmark::DoNotOptimize(analyzer.score(w));
  }
}
BENCHMARK(BM_LocalityScoreSequential)->Arg(20)->Arg(64);

void BM_LocalityScoreRandom(benchmark::State& state) {
  const auto w = random_window(static_cast<std::size_t>(state.range(0)), 42);
  core::LocalityAnalyzer analyzer{4};
  for (auto _ : state) {
    benchmark::DoNotOptimize(analyzer.score(w));
  }
}
BENCHMARK(BM_LocalityScoreRandom)->Arg(20)->Arg(64);

void BM_OutstandingStreams(benchmark::State& state) {
  const auto w = sequential_window(20);
  core::LocalityAnalyzer analyzer{static_cast<std::size_t>(state.range(0))};
  for (auto _ : state) {
    benchmark::DoNotOptimize(analyzer.outstanding_streams(w));
  }
}
BENCHMARK(BM_OutstandingStreams)->Arg(2)->Arg(4)->Arg(8);

void BM_ZoneSize(benchmark::State& state) {
  core::AmpomConfig cfg;
  core::ZoneInputs in;
  in.locality_score = 0.7;
  in.paging_rate_hz = 2800.0;
  in.cpu_mean = 0.3;
  in.cpu_next = 1.0;
  in.rtt_one_way = sim::Time::from_us(100);
  in.page_transfer = sim::Time::from_us(360);
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::zone_size(in, cfg));
  }
}
BENCHMARK(BM_ZoneSize);

void BM_SelectZone(benchmark::State& state) {
  const auto w = sequential_window(20);
  core::LocalityAnalyzer analyzer{4};
  const auto streams = analyzer.outstanding_streams(w);
  const auto n = static_cast<std::uint64_t>(state.range(0));
  std::vector<mem::PageId> zone;
  for (auto _ : state) {
    core::select_zone(w, streams, n, 1u << 20, zone);
    benchmark::DoNotOptimize(zone.data());
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_SelectZone)->Arg(8)->Arg(64)->Arg(256);

// m streams whose pivots sit 8 pages apart, so each stream's N/m quota runs
// into the pages its predecessors chose and must extend past them (§3.4's
// saved quota). N = 256, the default zone cap.
void BM_SelectZoneMultiStream(benchmark::State& state) {
  const auto w = sequential_window(20);
  const auto m = static_cast<std::size_t>(state.range(0));
  std::vector<core::StrideStream> streams;
  for (std::size_t i = 0; i < m; ++i) {
    streams.push_back(core::StrideStream{1, 19, 4000 + 8 * i});
  }
  std::vector<mem::PageId> zone;
  for (auto _ : state) {
    core::select_zone(w, streams, 256, 1u << 20, zone);
    benchmark::DoNotOptimize(zone.data());
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_SelectZoneMultiStream)->Arg(1)->Arg(4)->Arg(16);

// Snapshots of the lookback window while it records the demand-fault
// stream (first touch of each page) of a 64 MiB HPCC kernel.
std::vector<core::LookbackWindow> hpcc_fault_windows(workload::HpccKernel kernel,
                                                     std::size_t snapshots) {
  const auto stream = workload::make_hpcc_kernel(kernel, 64);
  core::LookbackWindow w{core::AmpomConfig{}.lookback_length};
  std::vector<bool> touched(mem::pages_for_bytes(stream->memory_bytes()), false);
  std::vector<core::LookbackWindow> out;
  sim::Time now = sim::Time::zero();
  while (out.size() < snapshots) {
    const auto ref = stream->next();
    if (!ref) {
      break;
    }
    now += ref->cpu;
    if (ref->kind != proc::Ref::Kind::Memory || touched.at(ref->page)) {
      continue;
    }
    touched.at(ref->page) = true;
    w.record(ref->page, now, 1.0);
    if (w.full()) {
      out.push_back(w);
    }
  }
  return out;
}

// The per-fault analysis as AmpomPolicy::on_fault runs it (analyze_window, Eq. 3,
// select_zone), cycling over windows recorded from an HPCC fault stream.
void BM_FaultAnalysis(benchmark::State& state) {
  const auto kernel = static_cast<workload::HpccKernel>(state.range(0));
  const auto windows = hpcc_fault_windows(kernel, 1024);
  if (windows.empty()) {
    state.SkipWithError("kernel produced no full window");
    return;
  }
  state.SetLabel(workload::hpcc_kernel_name(kernel));
  const core::AmpomConfig cfg;
  const core::LocalityAnalyzer analyzer{cfg.dmax};
  std::vector<core::StrideStream> streams;
  std::vector<mem::PageId> zone;
  std::size_t i = 0;
  for (auto _ : state) {
    const core::LookbackWindow& w = windows[i];
    i = i + 1 == windows.size() ? 0 : i + 1;
    core::ZoneInputs in;
    in.locality_score = analyzer.analyze_window(w, streams);
    in.paging_rate_hz = w.paging_rate_hz();
    in.cpu_mean = w.mean_cpu();
    in.cpu_next = 1.0;
    in.rtt_one_way = sim::Time::from_us(100);
    in.page_transfer = sim::Time::from_us(360);
    const auto n = core::zone_size(in, cfg);
    core::select_zone(w, streams, n, 1u << 20, zone);
    benchmark::DoNotOptimize(zone.data());
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_FaultAnalysis)
    ->Arg(static_cast<int>(workload::HpccKernel::Dgemm))
    ->Arg(static_cast<int>(workload::HpccKernel::Stream))
    ->Arg(static_cast<int>(workload::HpccKernel::RandomAccess))
    ->Arg(static_cast<int>(workload::HpccKernel::Fft));

// The full per-fault analysis pipeline, as the policy runs it.
void BM_FullAnalysis(benchmark::State& state) {
  core::AmpomConfig cfg;
  core::LocalityAnalyzer analyzer{cfg.dmax};
  core::LookbackWindow w{cfg.lookback_length};
  std::vector<core::StrideStream> streams;
  std::vector<mem::PageId> zone;
  std::int64_t t = 0;
  mem::PageId page = 5000;
  for (auto _ : state) {
    w.record(++page, sim::Time::from_us(t += 300), 0.4);
    core::ZoneInputs in;
    in.locality_score = analyzer.analyze_window(w, streams);
    in.paging_rate_hz = w.paging_rate_hz();
    in.cpu_mean = w.mean_cpu();
    in.cpu_next = 1.0;
    in.rtt_one_way = sim::Time::from_us(100);
    in.page_transfer = sim::Time::from_us(360);
    const auto n = core::zone_size(in, cfg);
    core::select_zone(w, streams, n, 1u << 20, zone);
    benchmark::DoNotOptimize(zone.data());
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_FullAnalysis);

}  // namespace

BENCHMARK_MAIN();
