#pragma once
// Chaos campaigns: correlated fault schedules on top of the per-message
// FaultInjector.
//
// PR 1's injector models *independent* faults — each message rolls its own
// drop/duplicate/delay dice. What actually kills clusters (and what the
// openMosix farm reports describe) is correlated failure: a rack loses
// power, a switch partitions the fabric, crashes cascade as load shifts, a
// flaky transceiver flaps. A ChaosPlan declares those campaigns; the
// orchestrator expands them — deterministically, from the plan's own seed —
// into the primitive crash/outage schedule ClusterSim::set_fault_plan
// already knows how to apply. The expansion draws nothing from the run's
// message RNG, so adding a campaign never perturbs which messages the
// probabilistic faults hit.

#include <cstdint>
#include <string>
#include <vector>

#include "cluster/cluster_view.hpp"
#include "net/message.hpp"
#include "simcore/time.hpp"

namespace ampom::cluster {

// A rack/zone power event: every listed node crashes at `at` and (optionally)
// restarts together at `restore_at` (zero = stays down). Either an explicit
// node list, or (zone >= 0) a topology zone index resolved at expansion time
// against the world's zone layout.
struct ZoneOutage {
  std::vector<net::NodeId> nodes;
  sim::Time at{};
  sim::Time restore_at{};
  std::int32_t zone{-1};  // >= 0: crash topology zone `zone`; nodes ignored
};

// A network partition: nodes in `group_a` cannot reach the rest of the
// cluster in [at, heal_at). Both sides keep running — the split-brain shape.
struct Partition {
  std::vector<net::NodeId> group_a;
  sim::Time at{};
  sim::Time heal_at{};
};

// A cascading crash wave: `crashes` distinct victims picked from the plan's
// seeded RNG, one every `spacing` starting at `start`, each down for
// `downtime` (zero = stays down). spare_node0 keeps node 0 (where homes and
// deputies usually live) out of the victim pool.
struct CrashWave {
  std::uint32_t crashes{1};
  sim::Time start{};
  sim::Time spacing{};
  sim::Time downtime{};
  bool spare_node0{true};
};

// A flapping link: a<->b cycles down/up with period `period` and down
// fraction `duty`, from `start` until `stop`.
struct LinkFlap {
  net::NodeId a{0};
  net::NodeId b{0};
  sim::Time start{};
  sim::Time stop{};
  sim::Time period{};
  double duty{0.5};
};

struct ChaosPlan {
  std::uint64_t seed{1};  // victim selection only; never the message RNG
  std::vector<ZoneOutage> zone_outages;
  std::vector<Partition> partitions;
  std::vector<CrashWave> crash_waves;
  std::vector<LinkFlap> link_flaps;

  [[nodiscard]] bool active() const {
    return !zone_outages.empty() || !partitions.empty() || !crash_waves.empty() ||
           !link_flaps.empty();
  }
  [[nodiscard]] std::size_t campaign_count() const {
    return zone_outages.size() + partitions.size() + crash_waves.size() + link_flaps.size();
  }
};

// The primitive schedule a plan expands to. `heal_marks` are the instants a
// campaign's fault pressure ends (partition heals, zone restores, flap
// stops) — recovery tracking measures view convergence from them.
struct ExpandedChaos {
  struct Crash {
    net::NodeId node{0};
    sim::Time at{};
    sim::Time restore_at{};  // zero = stays down
  };
  struct Outage {
    net::NodeId a{0};
    net::NodeId b{0};
    sim::Time down_at{};
    sim::Time up_at{};
  };
  std::vector<Crash> crashes;
  std::vector<Outage> outages;
  std::vector<sim::Time> heal_marks;
  // Latest instant the fault state still changes; after it the cluster is
  // quiescent and the heartbeat views must converge.
  sim::Time last_fault_at{};

  [[nodiscard]] std::size_t fault_count() const { return crashes.size() + outages.size(); }
};

// Structural validation independent of cluster size. Empty string = sound;
// otherwise the first problem, phrased in terms of the offending campaign.
[[nodiscard]] std::string validate_chaos(const ChaosPlan& plan);

// Deterministic expansion: campaigns are expanded in declaration order
// (zone outages, partitions, crash waves, link flaps) with one Rng seeded
// from plan.seed, so the same (plan, topology) always yields the same
// schedule. Zone-indexed outages resolve against `topology`. Throws
// std::invalid_argument on validate_chaos failures, node ids outside
// [0, node_count), or zone indices outside [0, zones).
[[nodiscard]] ExpandedChaos expand_chaos(const ChaosPlan& plan, const Topology& topology);
// Single-zone convenience: expand against Topology::flat(node_count).
[[nodiscard]] ExpandedChaos expand_chaos(const ChaosPlan& plan, std::size_t node_count);

}  // namespace ampom::cluster
