#include "balancer/load_balancer.hpp"

#include <limits>
#include <stdexcept>
#include <vector>

namespace ampom::balancer {

LoadBalancer::LoadBalancer(ClusterSim& world, Config config)
    : world_{world}, view_{world.view()}, config_{config} {
  if (config.imbalance_threshold <= 0.0) {
    throw std::invalid_argument("LoadBalancer: imbalance threshold must be positive");
  }
}

void LoadBalancer::start() {
  if (running_) {
    return;
  }
  running_ = true;
  // start() is driver setup: it runs before the event loop, so the tick
  // chain it arms lives in the barrier context. The analyzer reaches this
  // line only through the name-collision fan-out of ProcessHost::start.
  // ampom-lint: partition-ok(start() runs at setup in the barrier context; never called from a partition callback)
  world_.simulator().schedule_after(config_.period, [this] { tick(); });
}

void LoadBalancer::reclaim_stranded() {
  // A migrant whose host the cluster agrees is dead cannot make progress —
  // its executor is frozen and its pages unreachable. Re-home it: the
  // deputy reconstructs ownership from the HPT/ledger and the process
  // resumes at its home node.
  for (const auto& host : world_.hosts()) {
    if (!host->started() || host->finished() || host->migrating() ||
        host->current_node() == host->home_node()) {
      continue;
    }
    const cluster::PeerHealth health = view_.health(host->current_node());
    // A frozen, non-migrating migrant on a node the cluster sees as healthy
    // is stranded by a crash/reboot faster than the dead threshold: the node
    // heartbeats again but the process image died with the crash, so the
    // kDead rule alone would leave it frozen forever. The deputy's view (a
    // frozen migrant nobody is thawing) is enough to re-home it.
    const bool lost_to_reboot = health == cluster::PeerHealth::kAlive &&
                                host->process().state() == proc::ProcState::Frozen;
    if (health == cluster::PeerHealth::kDead || lost_to_reboot) {
      host->recover_to_home();
      ++rehomes_;
    }
  }
}

// The paper's Eq.-3 flat transfer cost amortizes roughly three protocol
// rounds of the measured one-way latency per migration.
constexpr double kEq3TransferRounds = 3.0;

sim::Bytes LoadBalancer::candidate_wss(net::NodeId from) const {
  for (ProcessHost* host : world_.hosts_on(from)) {
    if (host->migratable()) {
      return host->wss_bytes();
    }
  }
  return 0;
}

double LoadBalancer::dest_score(net::NodeId src, net::NodeId dst, double load,
                                sim::Bytes wss) const {
  switch (config_.placement) {
    case driver::Placement::kLoad:
      return load;
    case driver::Placement::kEq3: {
      // Eq. 3: the move pays a flat transfer cost (freeze + a few latency
      // rounds) amortized over the balancing horizon, in load units.
      const double transfer_seconds = config_.assumed_freeze_seconds +
                                      view_.rtt_one_way(src, dst).sec() * kEq3TransferRounds;
      return load + transfer_seconds / kHorizonSeconds;
    }
    case driver::Placement::kCacheAware:
      // Eq.-3 shape with a measured cost: the CPMD warm-up the migrant
      // would pay on this destination's LLC (calibration curve scaled by
      // resident pressure), plus the contention of the NUMA domain it
      // would land in. Both read 0 while the cache model is off.
      return load + world_.predicted_warmup(wss, dst).sec() / kHorizonSeconds +
             world_.numa_contention(dst);
  }
  return load;
}

LoadBalancer::ZoneScan LoadBalancer::scan_zone(std::uint32_t zone) const {
  // Nodes the cluster does not consider healthy are skipped entirely —
  // never a migration destination, and not a source either (their
  // processes go through reclaim_stranded instead). So is a Checkpoint
  // world's file server, which no move may start or end on: picking it
  // would stall the tick on a move migrate_to refuses.
  ZoneScan scan;
  scan.min_load = std::numeric_limits<double>::max();
  scan.best_score = std::numeric_limits<double>::max();
  // Pass 1: the busiest alive node (the migration source).
  for (net::NodeId id = view_.zone_begin(zone); id < view_.zone_end(zone); ++id) {
    if (view_.health(id) != cluster::PeerHealth::kAlive || world_.is_file_server(id)) {
      continue;
    }
    scan.found = true;
    const double load = view_.load(id);
    if (load > scan.max_load) {
      scan.max_load = load;
      scan.busiest = id;
    }
  }
  if (!scan.found) {
    return scan;
  }
  // Pass 2: the destination, by placement score. For kLoad the score IS the
  // load, so the pick — including the first-strictly-lower tie-break — is
  // exactly the classic single-pass idlest and kLoad runs stay bit-identical
  // to the pre-scoring balancer.
  const sim::Bytes wss = config_.placement == driver::Placement::kCacheAware
                             ? candidate_wss(scan.busiest)
                             : 0;
  scan.idlest = scan.busiest;
  for (net::NodeId id = view_.zone_begin(zone); id < view_.zone_end(zone); ++id) {
    if (view_.health(id) != cluster::PeerHealth::kAlive || world_.is_file_server(id)) {
      continue;
    }
    if (config_.placement != driver::Placement::kLoad && id == scan.busiest) {
      continue;  // self is never a useful destination; avoids a self-RTT read
    }
    const double load = view_.load(id);
    const double score = dest_score(scan.busiest, id, load, wss);
    if (score < scan.best_score) {
      scan.best_score = score;
      scan.min_load = load;
      scan.idlest = id;
    }
  }
  return scan;
}

bool LoadBalancer::worth_moving(double max_load, double min_load) const {
  const double imbalance = max_load - min_load;
  if (imbalance < config_.imbalance_threshold) {
    return false;
  }
  // Worth it? Moving one process gains roughly its share improvement over
  // the horizon; it costs one freeze.
  const double gain =
      kHorizonSeconds * (1.0 / (min_load + 1.0) - 1.0 / max_load);
  return gain > config_.assumed_freeze_seconds;
}

bool LoadBalancer::move_one(net::NodeId from, net::NodeId to) {
  for (ProcessHost* host : world_.hosts_on(from)) {
    // migrate_to refuses moves the engines cannot make (a live return home,
    // a Checkpoint world's file server as either end); those hosts are
    // skipped instead of burning the tick's one move on a no-op.
    if (host->migrate_to(to)) {
      ++decisions_;
      return true;
    }
  }
  return false;
}

void LoadBalancer::tick() {
  if (!running_) {
    return;
  }
  ++ticks_;
  if (view_.zone_count() == 1) {
    single_zone_tick();
  } else {
    zoned_tick();
  }
  world_.simulator().schedule_after(config_.period, [this] { tick(); });
}

void LoadBalancer::single_zone_tick() {
  reclaim_stranded();

  // Damping: while a migration is in flight the load vector is stale (the
  // migrant still counts at its source); deciding now causes ping-pong
  // churn — expensive exactly when freezes are expensive.
  if (world_.migrations_in_flight() > 0) {
    return;
  }

  const ZoneScan scan = scan_zone(0);
  if (!scan.found || scan.busiest == scan.idlest) {
    return;
  }
  if (worth_moving(scan.max_load, scan.min_load) && move_one(scan.busiest, scan.idlest)) {
    ++intra_moves_;
  }
}

void LoadBalancer::zoned_tick() {
  // Reclaim is zone-agnostic (a stranded migrant is stranded wherever it
  // is), so it runs before any damping decision, like the single-zone path.
  reclaim_stranded();

  const std::uint32_t zones = view_.zone_count();
  std::vector<ZoneScan> scans(zones);
  std::vector<bool> eligible(zones, false);  // undamped; vector is reused below
  std::vector<bool> moved(zones, false);
  for (std::uint32_t zone = 0; zone < zones; ++zone) {
    // Per-zone damping: a zone with an in-flight migration has a stale
    // load vector; other zones keep balancing concurrently.
    if (world_.migrations_in_flight(zone) > 0) {
      continue;
    }
    eligible[zone] = true;
    scans[zone] = scan_zone(zone);
    const ZoneScan& scan = scans[zone];
    if (!scan.found || scan.busiest == scan.idlest) {
      continue;
    }
    if (worth_moving(scan.max_load, scan.min_load) && move_one(scan.busiest, scan.idlest)) {
      ++intra_moves_;
      moved[zone] = true;
    }
  }

  // Global tier: one cross-zone move per tick, and only from a zone whose
  // intra-zone pass saturated (made no move — it is either internally
  // balanced or has nothing migratable, yet may still tower over another
  // zone). Compares the source zone's busiest node against the overall
  // idlest node in any other undamped zone.
  std::uint32_t src_zone = 0;
  std::uint32_t dst_zone = 0;
  bool have_src = false;
  bool have_dst = false;
  for (std::uint32_t zone = 0; zone < zones; ++zone) {
    if (!eligible[zone] || !scans[zone].found) {
      continue;
    }
    if (!moved[zone] && (!have_src || scans[zone].max_load > scans[src_zone].max_load)) {
      src_zone = zone;
      have_src = true;
    }
    // Destination zones compete on the placement score of their chosen
    // node (scored against their own zone's busiest — a proxy for the
    // cross-zone source, exact for kLoad where the score is the load).
    if (!have_dst || scans[zone].best_score < scans[dst_zone].best_score) {
      dst_zone = zone;
      have_dst = true;
    }
  }
  if (!have_src || !have_dst || src_zone == dst_zone) {
    return;
  }
  if (worth_moving(scans[src_zone].max_load, scans[dst_zone].min_load) &&
      move_one(scans[src_zone].busiest, scans[dst_zone].idlest)) {
    ++cross_moves_;
  }
}

}  // namespace ampom::balancer
