#pragma once
// The benchmark's three workloads, each driven only through the public entry
// points (driver::ScenarioBuilder, driver::Runner, balancer::ClusterSim,
// balancer::LoadBalancer). See README.md for why each was chosen.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

// End-to-end simulated outputs of one pass. Under a fixed seed every pass
// of a workload must produce exactly these values (checked).
struct SimOutputs {
  double makespan_s{0.0};
  double job_time_s{0.0};
  std::vector<double> freeze_ms;  // one entry per committed migration
  double stall_s{0.0};
  std::uint64_t fault_requests{0};
  std::uint64_t pages_arrived{0};
  std::uint64_t jobs{0};
  std::uint64_t jobs_ok{0};  // finished with every per-job check passed
  std::uint64_t refs{0};     // application references simulated

  [[nodiscard]] bool operator==(const SimOutputs&) const = default;
};

// Host time of one simulated world: construction and job spawn up to the
// first simulated event, then the run until the last job finished. A serial
// cluster world is timed in slices of simulated time; every other run is
// one slice.
struct WorldTime {
  std::string name;
  double setup_s{0.0};
  double run_s{0.0};
  std::vector<double> slices_s;  // sums to run_s
};

using Layers = std::map<std::string, double>;

struct Pass {
  std::vector<WorldTime> worlds;
  SimOutputs sim;
  Layers layers;                      // per-layer metrics this pass measured
  std::vector<std::string> failures;  // failed correctness checks
  std::vector<std::string> report;    // human-readable detail lines
};

struct PassOptions {
  // Traced pass: trace recorder on, every ReferenceStream wrapped in a
  // timing decorator, AMPoM analyses counted through the ampom_trace hook,
  // the invariant auditor attached (non-throwing) to cluster worlds.
  bool traced{false};
  // Read the paper harness's event count through a Simulator probe (the
  // three-node harness owns its simulator; cluster worlds need no probe).
  bool count_events{false};
  // Stop each world at the end of its setup, before the first simulated
  // event: extra setup_s samples for the price of a few milliseconds.
  bool setup_only{false};
};

[[nodiscard]] const std::vector<std::string>& workload_names();

// One pass over every world of `workload`. Throws std::invalid_argument for
// an unknown name.
[[nodiscard]] Pass run_workload(const std::string& workload, std::uint64_t seed,
                                const PassOptions& options);

// Host run time of a cluster workload's world under NoPrefetch instead of
// AMPoM (layer metric core.ampom_extra_host_s).
[[nodiscard]] double run_noprefetch_twin_s(const std::string& workload, std::uint64_t seed);

// The cluster_gossip_10k world run on the partitioned engine with `workers`
// threads (layer metrics simcore.partitioned_*). Cluster-world metrics only.
[[nodiscard]] Pass run_gossip_10k_partitioned(std::uint64_t seed, std::uint32_t workers);

// The cluster_gossip_10k world with no jobs, advanced to `horizon_s`
// simulated seconds: the cost of gossip alone (cluster.gossip_only_run_s).
[[nodiscard]] double run_gossip_10k_idle(std::uint64_t seed, double horizon_s);

// A small zoned world (2 zones x 4 nodes, 8 HotCold jobs) for the self-test
// of workers 1 == 2 and traced == untraced; `workers` 0 = default engine.
[[nodiscard]] Pass run_small_zoned(std::uint64_t seed, std::uint32_t workers, bool traced);

// paper_hpcc's AMPoM DGEMM world alone (575 MiB at seed 1; the self-test
// compares it with tools/ampom_sim): returns {freeze ms, total s}.
struct PaperPoint {
  double freeze_ms{0.0};
  double total_s{0.0};
};
[[nodiscard]] PaperPoint run_paper_dgemm_ampom(std::uint64_t seed);

}  // namespace perfbench
