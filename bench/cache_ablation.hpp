#pragma once
// The cache-ablation world: what does cache-aware placement buy over
// load-only and Eq.-3 scoring when destinations tie on load but not on LLC
// pressure? bench/cache_ablation records it; tests/cache_ablation_test
// checks its policy ordering at every point of the default grid.
//
// Each case builds a 3-node world with the memory hierarchy on and a
// deliberate pressure asymmetry: node 1 hosts a big-WSS resident (~3/4 of
// the LLC), node 2 a small one, so the two destinations tie on load while
// their warm-up costs differ sharply. A 3-job burst on node 0 then forces
// exactly one balancing move (imbalance 2 before, 1 after, threshold 1.5):
//   load   — classic least-loaded pick; the tie breaks to node 1, the
//            pressured cache, and the migrant pays the inflated warm-up;
//   eq3    — the paper's Eq.-3 transfer-cost score; RTTs are symmetric
//            here, so it ties and picks node 1 exactly like load;
//   cache  — the CPMD-aware score sees the pressure and sends the migrant
//            to node 2, so total warm-up charged is strictly lower.
// The sweep varies the migrant's WSS, scaling the absolute CPMD cost the
// policy avoids (migration/cpmd.hpp's calibration curve).

#include <cstdint>
#include <memory>
#include <vector>

#include "balancer/cluster_sim.hpp"
#include "balancer/load_balancer.hpp"
#include "bench/common.hpp"
#include "bench/perf_metrics.hpp"
#include "driver/builder.hpp"
#include "workload/synthetic.hpp"

namespace ampom::bench {

inline balancer::JobSpec cache_ablation_job(const char* label, net::NodeId home,
                                            std::uint64_t memory_bytes, std::uint64_t touches,
                                            sim::Time start) {
  balancer::JobSpec spec;
  spec.home = home;
  spec.label = label;
  spec.start = start;
  // Hot set: 32 pages keeps even the smallest (1 MiB) sweep point valid —
  // the hot+cold split must fit inside the image's heap pages (a 1 MiB
  // image keeps only ~48 of its 256 pages after code/data/stack).
  spec.make_workload = [memory_bytes, touches] {
    return std::make_unique<workload::HotColdStream>(memory_bytes, /*hot_pages=*/32,
                                                     touches, /*cold_fraction=*/0.05,
                                                     sim::Time::from_us(100));
  };
  return spec;
}

inline PolicyRun run_cache_policy(std::uint64_t wss_kib, driver::Placement placement) {
  balancer::ClusterSim world{
      driver::ScenarioBuilder{}.scheme(driver::Scheme::Ampom).topology(1, 3).cache_model().build()};

  // The contention: a big resident fills most of node 1's LLC, a small one
  // barely touches node 2's. Both run long enough to outlive the burst, so
  // the two destinations stay tied at load 1 when the balancer scans.
  world.spawn(cache_ablation_job("big-resident", 1, 24 * sim::kMiB, /*touches=*/120000,
                                 sim::Time::zero()));
  world.spawn(cache_ablation_job("small-resident", 2, 2 * sim::kMiB, /*touches=*/120000,
                                 sim::Time::zero()));

  // The burst: three identical migrants on node 0 (loads 3/1/1, imbalance 2
  // > 1.5); after one move the imbalance is 1 and the balancer goes quiet.
  for (int i = 0; i < 3; ++i) {
    world.spawn(cache_ablation_job("migrant", 0, wss_kib * sim::kKiB, /*touches=*/30000,
                                   sim::Time::from_ms(25 * i)));
  }

  balancer::LoadBalancer::Config balancer_config;
  balancer_config.assumed_freeze_seconds = 0.2;
  balancer_config.placement = placement;
  balancer::LoadBalancer balancer{world, balancer_config};
  balancer.start();
  world.run();

  PolicyRun result;
  result.policy = driver::placement_name(placement);
  result.makespan_sec = world.makespan().sec();
  for (const auto& host : world.hosts()) {
    result.migrations += host->migrations();
    result.warmup_charged_ms += host->stats().warmup_charged.ms();
    result.warmup_paid_ms += host->stats().warmup_paid.ms();
  }
  return result;
}

// One WSS point under every placement policy, in load / eq3 / cache order.
inline CacheCase run_cache_case(std::uint64_t wss_kib) {
  CacheCase result;
  result.wss_kib = wss_kib;
  result.nodes = 3;
  result.procs = 5;
  for (const driver::Placement placement :
       {driver::Placement::kLoad, driver::Placement::kEq3, driver::Placement::kCacheAware}) {
    result.policies.push_back(run_cache_policy(wss_kib, placement));
  }
  return result;
}

// Migrant WSS points in KiB: --quick 1 and 4 MiB, default adds 16 MiB,
// --full adds 64 MiB.
inline std::vector<std::uint64_t> cache_ablation_grid(const GridOptions& opts) {
  std::vector<std::uint64_t> grid = {1024, 4096};
  if (!opts.quick) {
    grid.push_back(16384);
  }
  if (opts.full) {
    grid.push_back(65536);
  }
  return grid;
}

}  // namespace ampom::bench
