#include "driver/builder.hpp"

#include <stdexcept>

namespace ampom::driver {

std::string ScenarioBuilder::validate() const {
  const Scenario& s = scenario_;
  const bool cluster_mode = s.topology.set();
  if (!s.make_workload && !cluster_mode) {
    return "ScenarioBuilder: no workload set — call workload() or hpcc_workload()";
  }
  if (cluster_mode && (s.topology.zones < 1 || s.topology.nodes_per_zone < 1)) {
    return "ScenarioBuilder: topology() needs zones >= 1 and nodes_per_zone >= 1";
  }
  if (s.gossip.enabled) {
    if (s.gossip.fan_out < 1) {
      return "ScenarioBuilder: gossip() needs fan_out >= 1 — a zero fan-out daemon would "
             "never disseminate load and every peer would look dead";
    }
    if (!cluster_mode) {
      return "ScenarioBuilder: gossip() requires topology() — gossip is a cluster-world "
             "dissemination mode";
    }
    if (s.topology.node_count() < 2) {
      return "ScenarioBuilder: gossip() on a single-node cluster is meaningless — there is "
             "no peer to gossip with; grow the topology or drop gossip()";
    }
  }
  for (const auto& outage : s.faults.chaos.zone_outages) {
    if (outage.zone >= 0 &&
        (!cluster_mode || static_cast<std::uint32_t>(outage.zone) >= s.topology.zones)) {
      return "ScenarioBuilder: zone_outage(zone) names a topology zone the scenario does "
             "not have";
    }
  }
  if (s.faults.active() && !s.reliable) {
    return "ScenarioBuilder: fault plan is active but reliability is off — lost messages "
           "would never be retransmitted and the run would hang; set reliable() or clear "
           "the fault plan";
  }
  const bool remigrates = s.remigrate_after > sim::Time::zero();
  if (remigrates && s.background_traffic > 0.0) {
    return "ScenarioBuilder: remigrate_after and background_traffic are mutually exclusive "
           "(the third node plays both roles)";
  }
  if (remigrates && s.scheme == Scheme::Checkpoint) {
    return "ScenarioBuilder: checkpoint placement uses the third node as its file server; "
           "re-migration is not supported with it";
  }
  if (s.background_traffic < 0.0 || s.background_traffic > 1.0) {
    return "ScenarioBuilder: background_traffic must be a fraction in [0, 1]";
  }
  if (s.dest_background_load < 0.0 || s.dest_background_load >= 1.0) {
    return "ScenarioBuilder: dest_background_load must be a fraction in [0, 1)";
  }
  if (s.workers >= 1) {
    if (!cluster_mode) {
      return "ScenarioBuilder: workers() requires topology() — intra-run parallelism "
             "partitions the cluster world by zone; single-process experiments are serial";
    }
    if (s.topology.zones < 2) {
      return "ScenarioBuilder: workers() needs a topology with at least two zones — the "
             "zone is the partition, and one partition has nothing to run in parallel";
    }
  }
  if (s.hierarchy.enabled) {
    if (!cluster_mode) {
      return "ScenarioBuilder: cache_model() requires topology() — the memory hierarchy "
             "is per-node state of a cluster world";
    }
    if (s.hierarchy.numa_domains < 1) {
      return "ScenarioBuilder: cache_model() needs numa_domains >= 1";
    }
    if (s.hierarchy.llc_bytes == 0) {
      return "ScenarioBuilder: cache_model() needs a positive LLC capacity";
    }
  }
  if (!s.cpmd_calibration.empty() && !s.hierarchy.enabled) {
    return "ScenarioBuilder: cpmd_calibration() is only read when cache_model() is "
           "enabled — enable it or drop the calibration path";
  }
  if (s.trace.enabled && s.trace.max_events == 0) {
    return "ScenarioBuilder: tracing is enabled with max_events == 0 — every event would "
           "be dropped; raise the cap or disable tracing";
  }
  if (s.faults.chaos.active()) {
    std::string chaos_problem = cluster::validate_chaos(s.faults.chaos);
    if (!chaos_problem.empty()) {
      return "ScenarioBuilder: " + chaos_problem;
    }
  }
  return {};
}

Scenario ScenarioBuilder::build() const {
  std::string problem = validate();
  if (!problem.empty()) {
    throw std::invalid_argument(problem);
  }
  return scenario_;
}

}  // namespace ampom::driver
