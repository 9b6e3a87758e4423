#pragma once
// One experiment: a workload, a migration scheme, and the environment.

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "cluster/chaos.hpp"
#include "cluster/infod.hpp"
#include "core/ampom_policy.hpp"
#include "core/config.hpp"
#include "driver/profile.hpp"
#include "mem/hierarchy.hpp"
#include "net/fault_injector.hpp"
#include "proc/reference_stream.hpp"
#include "trace/trace.hpp"

namespace ampom::driver {

// A scripted fault schedule for one run: probabilistic per-link faults plus
// declarative outage/crash windows. ClusterSim constructs a FaultInjector
// from it only when the plan is active, so the default plan leaves every
// run byte-identical to the fault-free fabric.
struct FaultPlan {
  std::uint64_t seed{1};
  net::LinkFaults default_faults{};

  struct LinkOverride {
    net::NodeId a{0};
    net::NodeId b{0};
    net::LinkFaults faults{};
  };
  std::vector<LinkOverride> link_overrides;

  struct LinkOutage {
    net::NodeId a{0};
    net::NodeId b{0};
    sim::Time down_at{};
    sim::Time up_at{};
  };
  std::vector<LinkOutage> outages;

  struct NodeCrash {
    net::NodeId node{0};
    sim::Time at{};
    sim::Time restore_at{};  // zero = stays down
  };
  std::vector<NodeCrash> crashes;

  // Correlated campaigns (zone outages, partitions, crash waves, link
  // flaps); expanded deterministically into the primitives above by
  // ClusterSim once it knows the node count. See cluster/chaos.hpp.
  cluster::ChaosPlan chaos{};

  [[nodiscard]] bool active() const {
    if (chaos.active()) {
      return true;
    }
    const auto nonzero = [](const net::LinkFaults& f) {
      return f.drop_probability > 0.0 || f.duplicate_probability > 0.0 ||
             f.max_extra_delay > sim::Time::zero();
    };
    if (nonzero(default_faults) || !outages.empty() || !crashes.empty()) {
      return true;
    }
    for (const auto& o : link_overrides) {
      if (nonzero(o.faults)) {
        return true;
      }
    }
    return false;
  }

  // Installs the probabilistic faults and outage windows. Crashes are NOT
  // scheduled here — ClusterSim owns them, because crashing a node also
  // means interrupting the executors and paging clients living on it.
  void apply_faults(net::FaultInjector& injector) const {
    injector.set_default_faults(default_faults);
    for (const auto& o : link_overrides) {
      injector.set_link_faults(o.a, o.b, o.faults);
    }
    for (const auto& o : outages) {
      injector.schedule_link_outage(o.a, o.b, o.down_at, o.up_at);
    }
  }
};

// Balancer destination-scoring policy (ROADMAP item 1). kLoad is the
// classic greedy least-loaded pick; kEq3 adds the paper's Eq.-3 flat
// transfer-cost term (measured one-way latency amortized over the
// balancing horizon); kCacheAware additionally discounts destinations by
// the predicted CPMD warm-up cost and NUMA-domain contention read from the
// memory-hierarchy model (requires hierarchy.enabled).
enum class Placement : std::uint8_t { kLoad, kEq3, kCacheAware };

[[nodiscard]] constexpr const char* placement_name(Placement p) {
  switch (p) {
    case Placement::kLoad:
      return "load";
    case Placement::kEq3:
      return "eq3";
    case Placement::kCacheAware:
      return "cache";
  }
  return "?";
}

enum class Scheme : std::uint8_t {
  OpenMosix,   // full dirty-page copy during the freeze
  NoPrefetch,  // three pages + demand paging (the FFA variant)
  Ampom,       // three pages + MPT + adaptive prefetching
  PreCopy,     // V-System iterative pre-copy (related work §6)
  Checkpoint,  // checkpoint/restart through a file server (§1's alternative)
};

[[nodiscard]] constexpr const char* scheme_name(Scheme s) {
  switch (s) {
    case Scheme::OpenMosix:
      return "openMosix";
    case Scheme::NoPrefetch:
      return "NoPrefetch";
    case Scheme::Ampom:
      return "AMPoM";
    case Scheme::PreCopy:
      return "PreCopy";
    case Scheme::Checkpoint:
      return "Checkpoint";
  }
  return "?";
}

struct Scenario {
  Scheme scheme{Scheme::Ampom};
  // Factory, so a scenario can be re-run (e.g. across schemes).
  std::function<std::unique_ptr<proc::ReferenceStream>()> make_workload;
  std::string workload_label{"workload"};
  std::uint64_t memory_mib{0};  // for reporting only

  ClusterProfile profile{gideon300_profile()};
  core::AmpomConfig ampom{};

  // World shape: zone layout and the InfoDaemon dissemination mode. An
  // unset topology selects the paper's testbed: two nodes, or three when
  // the third has a role (re-migration target, background-traffic source,
  // checkpoint file server).
  cluster::Topology topology{};
  cluster::GossipConfig gossip{};

  // Memory-hierarchy model (cluster worlds). The default keeps it off,
  // bit-identical to runs predating the cost model. The balancer's
  // placement policy is LoadBalancer::Config::placement.
  mem::HierarchyConfig hierarchy{};
  std::string cpmd_calibration{};  // calibration file path; empty = built-in

  // Environment knobs. The destination is node 1, and the third node
  // (node 2) sources the background traffic.
  std::optional<net::LinkParams> shaped_link;  // home/dest link, e.g. broadband_link() (Fig. 9)
  double dest_background_load{0.0};    // CPU contention at the destination
  double background_traffic{0.0};      // competing flow into the dest (0..1)
  std::uint64_t ram_limit_pages{0};    // per-process RAM cap (0 = unlimited)
  bool home_dependency{true};          // redirect syscalls to the home node

  // Second hop (paper §1's "suboptimal decision" case): re-migrate the
  // process from the first destination to a third node this long after the
  // first migration completes. Zero = single migration. Unsupported
  // together with background_traffic (the third node generates it). The
  // start and the first hop are fixed (driver/runner.hpp).
  sim::Time remigrate_after{sim::Time::zero()};
  std::uint64_t seed{1};

  // Fault injection + protocol reliability (both default off, leaving the
  // run identical to the fault-free, fire-and-forget original). `reliable`
  // switches every layer at once: paging retransmission, ack'd migration
  // chunks and heartbeat failure detection, each with fixed timings (see
  // PagingClient, migration/engine.hpp and cluster/infod.hpp).
  FaultPlan faults{};
  bool reliable{false};

  // Intra-run simulator threads: how many OS threads run the zone
  // partitions of a multi-zone world (at most one per zone). 0 and 1 both
  // mean one thread; a flat or one-zone world has no zone partitions and
  // always runs on one. The value never changes a result.
  std::size_t workers{0};

  // Observability: per-fault trace of the AMPoM analysis (Ampom scheme only).
  core::AmpomPolicy::TraceHook ampom_trace;
  // Structured event tracing (off by default: bit-identical run, see
  // trace/trace.hpp). The Runner owns the recorder; RunMetrics carries the
  // per-category summary and Runner::write_trace_json the full timeline.
  trace::TraceConfig trace{};

  // Called once after the cluster is wired, before the simulation runs —
  // for scheduling mid-run events (e.g. reshaping the network, injecting
  // load). The fabric reference stays valid for the whole run.
  std::function<void(sim::Simulator&, net::Fabric&)> on_setup;
};

}  // namespace ampom::driver
