#pragma once
// A simple openMosix-style load balancer: periodically compare node loads
// (read through the cluster::ClusterView interface) and migrate one process
// from the most- to the least-loaded node when the imbalance exceeds a
// threshold. Greedy rather than openMosix's probabilistic exchange, but the
// same information flow: decisions use the load vector the daemons gossip.
//
// Zoned worlds shard the balancer: each zone runs the greedy pass over its
// own ClusterView slice (so per-tick cost is O(zone size) per zone, and
// zones balance concurrently), and a thin global tier compares zone-level
// load aggregates, migrating across zones only when the busiest zone's
// intra-zone pass saturated — it could not move anything internally.
// Single-zone worlds take the exact pre-zoning code path.
//
// Every tick consults the cluster's failure-detection consensus: nodes not
// kAlive are excluded as migration sources/destinations, and a migrant
// stranded on a kDead node is reclaimed to its home node. Without the
// reliable protocols every node reads kAlive.
//
// The knob that matters is `assumed_freeze_seconds`: a migration is only
// worth its freeze time. With openMosix's multi-second freezes the balancer
// must be conservative; with AMPoM's sub-second freezes it can chase much
// smaller imbalances — the paper's §7 claim, measurable in
// bench/balancer_study.

#include <cstdint>

#include "balancer/cluster_sim.hpp"
#include "cluster/cluster_view.hpp"

namespace ampom::balancer {

class LoadBalancer {
 public:
  // Expected remaining seconds of imbalance a migration must outweigh.
  static constexpr double kHorizonSeconds = 10.0;

  struct Config {
    sim::Time period{sim::Time::from_ms(750)};
    double imbalance_threshold{1.5};  // min load difference to act
    // Estimated freeze cost (seconds) a migration must amortize; policies
    // set this from their mechanism (openMosix: seconds; AMPoM: ~0.2).
    double assumed_freeze_seconds{0.0};
    // Destination-scoring policy (driver/scenario.hpp). kLoad keeps the
    // classic least-loaded pick bit-identical; kEq3 folds the paper's Eq.-3
    // transfer cost into the score; kCacheAware additionally charges the
    // predicted CPMD warm-up and NUMA contention read from the world's
    // memory-hierarchy model (zero when the model is off).
    driver::Placement placement{driver::Placement::kLoad};
  };

  LoadBalancer(ClusterSim& world, Config config);

  void start();
  void stop() { running_ = false; }

  [[nodiscard]] std::uint64_t decisions() const { return decisions_; }
  [[nodiscard]] std::uint64_t ticks() const { return ticks_; }
  // Stranded migrants reclaimed to their home node after their host died.
  [[nodiscard]] std::uint64_t rehomes() const { return rehomes_; }
  // Zoned worlds: decisions split into within-zone and cross-zone moves.
  [[nodiscard]] std::uint64_t intra_zone_moves() const { return intra_moves_; }
  [[nodiscard]] std::uint64_t cross_zone_moves() const { return cross_moves_; }

 private:
  // One node's standing in a zone scan: the extremes and whether any alive
  // node was seen at all.
  struct ZoneScan {
    net::NodeId busiest{0};
    net::NodeId idlest{0};
    double max_load{0.0};
    double min_load{0.0};   // load of the chosen destination (== true min for kLoad)
    double best_score{0.0};  // placement score of the chosen destination
    bool found{false};
  };

  // The balancing pass runs in the barrier context (scheduled with
  // schedule_after, never pinned to a partition): it reads every node's
  // load and moves processes across partitions.
  // ampom: global-only
  void tick();
  // ampom: global-only
  void single_zone_tick();
  // ampom: global-only
  void zoned_tick();
  // ampom: global-only
  void reclaim_stranded();
  [[nodiscard]] ZoneScan scan_zone(std::uint32_t zone) const;
  [[nodiscard]] bool worth_moving(double max_load, double min_load) const;
  // Placement score of migrating `src`'s candidate (working set `wss`) onto
  // `dst` carrying `load`; lower is better. kLoad returns the load itself.
  [[nodiscard]] double dest_score(net::NodeId src, net::NodeId dst, double load,
                                  sim::Bytes wss) const;
  // Working set of the host move_one would pick on `from` (0 if none).
  [[nodiscard]] sim::Bytes candidate_wss(net::NodeId from) const;
  // Migrate the lowest-pid host on `from` that migrate_to accepts to `to`;
  // true if one was found and the move was issued.
  bool move_one(net::NodeId from, net::NodeId to);

  ClusterSim& world_;
  const cluster::ClusterView& view_;
  Config config_;
  bool running_{false};
  std::uint64_t decisions_{0};
  std::uint64_t ticks_{0};
  std::uint64_t rehomes_{0};
  std::uint64_t intra_moves_{0};
  std::uint64_t cross_moves_{0};
};

}  // namespace ampom::balancer
