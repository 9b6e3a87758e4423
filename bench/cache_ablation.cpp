// Cache ablation: the world in bench/cache_ablation.hpp under the load,
// eq3 and cache placement policies, across a sweep of migrant WSS.
//
// tools/perf_gate gates migrations and warm-up charges of the --json output
// against the committed BENCH_cache.json; the strict cache < load/eq3
// warm-up ordering is tests/cache_ablation_test. Grids:
//
//   --quick    1 MiB and 4 MiB migrant WSS   (CI smoke)
//   (default)  quick + 16 MiB
//   --full     default + 64 MiB

#include <iostream>
#include <thread>
#include <vector>

#include "bench/cache_ablation.hpp"

int main(int argc, char** argv) {
  using namespace ampom;
  const bench::GridOptions opts = bench::parse_grid_options(argc, argv);
  std::vector<bench::CacheCase> results;
  for (const std::uint64_t wss_kib : bench::cache_ablation_grid(opts)) {
    const bench::CacheCase r = bench::run_cache_case(wss_kib);
    std::cout << "wss" << r.wss_kib << "k:";
    for (const bench::PolicyRun& run : r.policies) {
      std::cout << "  " << run.policy << " charged " << run.warmup_charged_ms << " ms ("
                << run.migrations << " moves)";
    }
    std::cout << "\n";
    results.push_back(r);
  }
  return bench::cache_metrics(results, std::thread::hardware_concurrency())
      .write(opts.json_path);
}
