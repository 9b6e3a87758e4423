// Parallel sweep: what does the partitioned engine buy on one big run?
//
// Each case is a scale_sweep cluster world (zoned gossip fan-out 3, job
// burst on the even nodes, zone-sharded balancer) executed once per worker
// count over the same partitioned schedule — workers(1) and workers(N) are
// bit-identical by construction, so the sweep both *checks* that (events
// and makespan must agree across worker counts, enforced here and again by
// tools/perf_gate) and *measures* the wall-clock speedup curve:
//
//   events / sim_sec      deterministic; identical for every worker count
//   wall_sec per workers  host wall time of the same run on 1/2/4 threads
//   host_cpus             recorded so the gate only enforces the speedup
//                         floor where the hardware can deliver one (a
//                         1-CPU CI container cannot)
//
// tools/perf_gate gates the --json output against the committed
// BENCH_parallel.json (rules in bench/perf_metrics.hpp). Grids:
//
//   --quick    256 nodes (16x16), workers 1/2/4          (CI smoke)
//   (default)  quick + 2000 nodes (20x100)               (the 2k claim)
//   --full     default + 10000 nodes (100x100)

#include <chrono>
#include <cstdint>
#include <iostream>
#include <memory>
#include <thread>
#include <vector>

#include "balancer/cluster_sim.hpp"
#include "balancer/load_balancer.hpp"
#include "bench/perf_metrics.hpp"
#include "driver/builder.hpp"
#include "workload/synthetic.hpp"

namespace {

using namespace ampom;

constexpr std::uint32_t kFanOut = 3;
constexpr std::size_t kWorkerCounts[] = {1, 2, 4};

struct CaseSpec {
  std::uint32_t zones;
  std::uint32_t nodes_per_zone;
  std::uint32_t procs_per_node;
};

balancer::JobSpec scale_job(net::NodeId home, std::uint64_t index) {
  balancer::JobSpec job;
  job.home = home;
  job.label = "scale";
  job.start = sim::Time::from_ms(25 * (index % 8));
  job.make_workload = [index] {
    return std::make_unique<workload::HotColdStream>(
        2 * sim::kMiB, /*hot_pages=*/64, /*touches=*/4000 + 500 * (index % 5),
        /*cold_fraction=*/0.05, sim::Time::from_us(100));
  };
  return job;
}

bench::WorkerRun run_once(const CaseSpec& spec, std::size_t workers, std::uint64_t& procs_out) {
  const driver::Scenario scenario = driver::ScenarioBuilder{}
                                        .scheme(driver::Scheme::Ampom)
                                        .topology(spec.zones, spec.nodes_per_zone)
                                        .gossip(kFanOut)
                                        .workers(workers)
                                        .build();
  const auto wall_begin = std::chrono::steady_clock::now();  // ampom-lint: nondet-ok(wall throughput is a reported quantity, never fed back into the run)
  balancer::ClusterSim world{scenario};

  std::uint64_t spawned = 0;
  const std::uint32_t nodes = spec.zones * spec.nodes_per_zone;
  for (net::NodeId node = 0; node < nodes; node += 2) {
    for (std::uint32_t j = 0; j < 2 * spec.procs_per_node; ++j) {
      world.spawn(scale_job(node, spawned++));
    }
  }

  balancer::LoadBalancer::Config cfg;
  cfg.assumed_freeze_seconds = 0.2;
  balancer::LoadBalancer balancer{world, cfg};
  balancer.start();
  world.run();
  const auto wall_end = std::chrono::steady_clock::now();  // ampom-lint: nondet-ok(wall throughput is a reported quantity, never fed back into the run)

  procs_out = spawned;
  bench::WorkerRun result;
  result.workers = workers;
  result.events = world.simulator().events_processed();
  result.sim_sec = world.makespan().sec();
  result.wall_sec = std::chrono::duration<double>(wall_end - wall_begin).count();
  result.events_per_sec =
      result.wall_sec > 0.0 ? static_cast<double>(result.events) / result.wall_sec : 0.0;
  return result;
}

bench::ParallelCase run_case(const CaseSpec& spec) {
  bench::ParallelCase result;
  result.nodes = spec.zones * spec.nodes_per_zone;
  result.zones = spec.zones;
  for (const std::size_t workers : kWorkerCounts) {
    std::uint64_t procs = 0;
    const bench::WorkerRun run = run_once(spec, workers, procs);
    result.procs = procs;
    // Bit-identity is the contract the whole engine hangs off — check it
    // right here so a broken build cannot produce a plausible-looking curve.
    if (!result.runs.empty() && (run.events != result.runs.front().events ||
                                 run.sim_sec != result.runs.front().sim_sec)) {
      std::cerr << "FATAL: workers=" << workers << " diverged from workers="
                << result.runs.front().workers << " on n" << result.nodes
                << " (events " << run.events << " vs " << result.runs.front().events
                << ", sim_sec " << run.sim_sec << " vs " << result.runs.front().sim_sec
                << ")\n";
      std::exit(1);
    }
    result.runs.push_back(run);
  }
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  const bench::GridOptions opts = bench::parse_grid_options(argc, argv);
  std::vector<CaseSpec> grid = {{16, 16, 10}};
  if (!opts.quick) {
    grid.push_back({20, 100, 10});
  }
  if (opts.full) {
    grid.push_back({100, 100, 10});
  }

  std::vector<bench::ParallelCase> results;
  for (const CaseSpec& spec : grid) {
    const bench::ParallelCase r = run_case(spec);
    std::cout << "n" << r.nodes << ": " << r.procs << " procs, " << r.runs.front().events
              << " events, sim " << r.runs.front().sim_sec << " s\n";
    for (const bench::WorkerRun& run : r.runs) {
      const double speedup = run.wall_sec > 0.0 ? r.runs.front().wall_sec / run.wall_sec : 0.0;
      std::cout << "  workers=" << run.workers << ": wall " << run.wall_sec << " s ("
                << run.events_per_sec / 1e6 << " Mev/s, " << speedup << "x vs workers=1)\n";
    }
    results.push_back(r);
  }
  return bench::parallel_metrics(results, std::thread::hardware_concurrency())
      .write(opts.json_path);
}
