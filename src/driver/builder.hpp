#pragma once
// ScenarioBuilder: a fluent, validating front door for Scenario.
//
// Scenario stays a plain aggregate — every existing brace-initialized call
// site keeps working — but hand-assembling one silently accepts
// combinations ClusterSim then rejects deep inside a run (or
// worse, runs into a hung simulation: a fault plan with the reliability
// protocols off loses messages nobody retransmits). The builder centralizes
// those rules at build() time with errors that name the offending knobs.
//
//   auto s = ScenarioBuilder{}
//                .scheme(Scheme::Ampom)
//                .hpcc_workload(workload::HpccKernel::Stream, 129)
//                .reliable()
//                .tracing()
//                .build();  // throws std::invalid_argument on bad combos

#include <cstdint>
#include <string>

#include "driver/scenario.hpp"
#include "workload/hpcc.hpp"

namespace ampom::driver {

class ScenarioBuilder {
 public:
  ScenarioBuilder& scheme(Scheme value) {
    scenario_.scheme = value;
    return *this;
  }

  // Arbitrary workload: label + factory (+ nominal size, reporting only).
  ScenarioBuilder& workload(std::string label,
                            std::function<std::unique_ptr<proc::ReferenceStream>()> factory,
                            std::uint64_t memory_mib = 0) {
    scenario_.workload_label = std::move(label);
    scenario_.make_workload = std::move(factory);
    scenario_.memory_mib = memory_mib;
    return *this;
  }

  // The paper's HPCC kernels (Table 1): label, factory and size in one call.
  ScenarioBuilder& hpcc_workload(workload::HpccKernel kernel, std::uint64_t memory_mib) {
    scenario_.workload_label = workload::hpcc_kernel_name(kernel);
    scenario_.make_workload = [kernel, memory_mib] {
      return workload::make_hpcc_kernel(kernel, memory_mib);
    };
    scenario_.memory_mib = memory_mib;
    return *this;
  }

  ScenarioBuilder& profile(ClusterProfile value) {
    scenario_.profile = value;
    return *this;
  }

  // --- cluster-world shape (ClusterSim scenarios) ---------------------------
  // Zone layout: `zones` contiguous blocks of `nodes_per_zone` node ids.
  // Setting a topology marks the scenario as a cluster world, where a
  // workload factory is optional (jobs are spawned per ProcessHost).
  ScenarioBuilder& topology(std::uint32_t zones, std::uint32_t nodes_per_zone) {
    scenario_.topology = cluster::Topology{zones, nodes_per_zone};
    return *this;
  }

  // Epidemic load dissemination: each InfoDaemon tick gossips with
  // `fan_out` deterministic pseudo-random zone peers instead of pinging
  // all of them. A nonzero `period` overrides the profile's infod period.
  ScenarioBuilder& gossip(std::uint32_t fan_out, sim::Time period = {}) {
    scenario_.gossip.enabled = true;
    scenario_.gossip.fan_out = fan_out;
    scenario_.gossip.period = period;
    return *this;
  }

  ScenarioBuilder& ampom_config(core::AmpomConfig value) {
    scenario_.ampom = value;
    return *this;
  }

  // --- memory hierarchy ------------------------------------------------------
  // Attach the per-node memory-hierarchy model (mem/hierarchy.hpp); enables
  // cache-pressure tracking and CPMD warm-up charges on every migration.
  // The overload with a config tweaks LLC capacity / NUMA domain count.
  ScenarioBuilder& cache_model() {
    scenario_.hierarchy.enabled = true;
    return *this;
  }
  ScenarioBuilder& cache_model(mem::HierarchyConfig value) {
    scenario_.hierarchy = value;
    scenario_.hierarchy.enabled = true;
    return *this;
  }

  // CPMD calibration file (data/cpmd_calibration.txt format); empty keeps
  // the built-in curve. Only read when the cache model is enabled.
  ScenarioBuilder& cpmd_calibration(std::string path) {
    scenario_.cpmd_calibration = std::move(path);
    return *this;
  }

  // Shapes the home/destination link (e.g. broadband_link() for Fig. 9).
  ScenarioBuilder& shaped_link(net::LinkParams value) {
    scenario_.shaped_link = value;
    return *this;
  }

  ScenarioBuilder& dest_background_load(double fraction) {
    scenario_.dest_background_load = fraction;
    return *this;
  }

  ScenarioBuilder& background_traffic(double fraction) {
    scenario_.background_traffic = fraction;
    return *this;
  }

  ScenarioBuilder& ram_limit_pages(std::uint64_t pages) {
    scenario_.ram_limit_pages = pages;
    return *this;
  }

  ScenarioBuilder& home_dependency(bool enabled) {
    scenario_.home_dependency = enabled;
    return *this;
  }

  ScenarioBuilder& remigrate_after(sim::Time value) {
    scenario_.remigrate_after = value;
    return *this;
  }

  ScenarioBuilder& seed(std::uint64_t value) {
    scenario_.seed = value;
    return *this;
  }

  ScenarioBuilder& faults(FaultPlan plan) {
    scenario_.faults = std::move(plan);
    return *this;
  }

  // --- chaos campaigns (appended to the fault plan's ChaosPlan) -------------
  // Correlated fault shapes on top of the per-message faults; expanded
  // deterministically by ClusterSim (see cluster/chaos.hpp). Like the rest
  // of the fault plan, campaigns require reliability to be enabled.
  ScenarioBuilder& chaos_seed(std::uint64_t value) {
    scenario_.faults.chaos.seed = value;
    return *this;
  }

  // Every node in `nodes` crashes at `at`; restore_at zero = stays down.
  ScenarioBuilder& zone_outage(std::vector<net::NodeId> nodes, sim::Time at,
                               sim::Time restore_at = {}) {
    scenario_.faults.chaos.zone_outages.push_back({std::move(nodes), at, restore_at});
    return *this;
  }

  // Topology-indexed form: crash every node of zone `zone` (resolved at
  // expansion time against the scenario's topology).
  ScenarioBuilder& zone_outage(std::uint32_t zone, sim::Time at, sim::Time restore_at = {}) {
    scenario_.faults.chaos.zone_outages.push_back(
        {{}, at, restore_at, static_cast<std::int32_t>(zone)});
    return *this;
  }

  // group_a cannot reach the rest of the cluster in [at, heal_at).
  ScenarioBuilder& partition(std::vector<net::NodeId> group_a, sim::Time at,
                             sim::Time heal_at) {
    scenario_.faults.chaos.partitions.push_back({std::move(group_a), at, heal_at});
    return *this;
  }

  // `crashes` seeded victims, one every `spacing` from `start`, each down
  // for `downtime` (zero = stays down); node 0 is spared by default.
  ScenarioBuilder& crash_wave(std::uint32_t crashes, sim::Time start, sim::Time spacing,
                              sim::Time downtime = {}, bool spare_node0 = true) {
    scenario_.faults.chaos.crash_waves.push_back(
        {crashes, start, spacing, downtime, spare_node0});
    return *this;
  }

  // Link a<->b cycles down/up with `period` and down fraction `duty` over
  // [start, stop).
  ScenarioBuilder& flapping_link(net::NodeId a, net::NodeId b, sim::Time start,
                                 sim::Time stop, sim::Time period, double duty = 0.5) {
    scenario_.faults.chaos.link_flaps.push_back({a, b, start, stop, period, duty});
    return *this;
  }

  // The reliable protocol variants of every layer at once (paging
  // retransmission, ack'd migration, heartbeat failure detection).
  ScenarioBuilder& reliable(bool enabled = true) {
    scenario_.reliable = enabled;
    return *this;
  }

  // Intra-run parallelism: run the zone partitions of a multi-zone world on
  // `value` threads (at most one per zone; 0 and 1 mean one). Worlds with
  // fewer than two zones have no zone partitions and ignore it. The result
  // is bit-identical for every value.
  ScenarioBuilder& workers(std::size_t value) {
    scenario_.workers = value;
    return *this;
  }

  // Full trace configuration, or just the switch: tracing() turns the
  // default config on.
  ScenarioBuilder& trace(trace::TraceConfig value) {
    scenario_.trace = value;
    return *this;
  }
  ScenarioBuilder& tracing(bool enabled = true) {
    scenario_.trace.enabled = enabled;
    return *this;
  }

  ScenarioBuilder& ampom_trace(core::AmpomPolicy::TraceHook hook) {
    scenario_.ampom_trace = std::move(hook);
    return *this;
  }

  ScenarioBuilder& on_setup(std::function<void(sim::Simulator&, net::Fabric&)> hook) {
    scenario_.on_setup = std::move(hook);
    return *this;
  }

  // Empty string = consistent; otherwise the first problem found, phrased
  // in terms of the knobs that conflict. build() throws exactly this text.
  [[nodiscard]] std::string validate() const;

  // Validates and returns the finished scenario (leaves the builder
  // reusable). Throws std::invalid_argument with validate()'s message.
  [[nodiscard]] Scenario build() const;

 private:
  Scenario scenario_;
};

}  // namespace ampom::driver
