#pragma once
// What each gated bench hands to tools/perf_gate: its results and the rule
// every metric carries. perf_gate knows only the rule kinds (see
// MetricsDoc), so the properties a bench promises live here, as metrics
// with a `better` direction and, for the invariants, a constant limit:
//
//   micro_simcore   indexed allocs_per_op <= 0 (the SBO contract); the
//                   cancel-heavy speedup over the lazy engine >= 1.5
//   scale_sweep     msgs/node/period <= 3 x fan_out; its max/min spread
//                   across the grid <= 1.30 (traffic independent of n)
//   parallel_sweep  every run's events and sim_sec equal w1's (drift <= 0);
//                   the widest run >= 2x faster than w1 on >= 2000 nodes,
//                   limited only when the recording host has the CPUs
//   cache_ablation  none; its policy ordering is a ctest
//
// Wall time is machine-dependent, so it is gated only as a ratio to the
// grid's first (smallest) case, which every grid of the bench contains:
// machine speed cancels and the scaling shape remains.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "bench/common.hpp"

namespace ampom::bench {

using Better = MetricsDoc::Better;

// --- micro_simcore ----------------------------------------------------------

// google-benchmark run name ("BM_CancelHeavy_Indexed") -> its counters.
using BenchmarkCounters = std::map<std::string, std::map<std::string, double>>;

inline constexpr double kMinCancelHeavySpeedup = 1.5;

// The three engine profiles, each run against the indexed engine and the
// lazy-delete reference. A profile or counter missing from `runs` is an
// error, never a pass.
inline std::optional<MetricsDoc> simcore_metrics(const BenchmarkCounters& runs,
                                                 unsigned host_cpus, std::string& error) {
  static constexpr struct {
    const char* profile;
    const char* stem;
    std::optional<double> speedup_floor;
  } kProfiles[] = {{"schedule_heavy", "BM_ScheduleHeavy", std::nullopt},
                   {"cancel_heavy", "BM_CancelHeavy", kMinCancelHeavySpeedup},
                   {"mixed", "BM_Mixed", std::nullopt}};
  static constexpr const char* kCounters[] = {"events_per_sec", "allocs_per_op", "peak_queued"};
  MetricsDoc doc{"micro_simcore", host_cpus};
  for (const auto& p : kProfiles) {
    const std::map<std::string, double>* engines[2] = {nullptr, nullptr};
    for (int e = 0; e < 2; ++e) {
      const std::string name = std::string(p.stem) + (e == 0 ? "_Indexed" : "_Lazy");
      const auto run = runs.find(name);
      if (run == runs.end()) {
        error = "benchmark '" + name + "' not found in this run";
        return std::nullopt;
      }
      for (const char* counter : kCounters) {
        if (run->second.find(counter) == run->second.end()) {
          error = name + ": counter '" + counter + "' missing from the run";
          return std::nullopt;
        }
      }
      engines[e] = &run->second;
    }
    const std::map<std::string, double>& indexed = *engines[0];
    const std::map<std::string, double>& lazy = *engines[1];
    if (lazy.at("events_per_sec") <= 0.0) {
      error = std::string(p.stem) + "_Lazy reports a non-positive events_per_sec";
      return std::nullopt;
    }
    const std::string key = std::string(p.profile) + ".";
    doc.add(key + "indexed.events_per_sec", indexed.at("events_per_sec"), Better::kInfo)
        .add(key + "indexed.allocs_per_op", indexed.at("allocs_per_op"), Better::kLower, 0.0)
        .add(key + "indexed.peak_queued", indexed.at("peak_queued"), Better::kLower)
        .add(key + "lazy.events_per_sec", lazy.at("events_per_sec"), Better::kInfo)
        .add(key + "lazy.allocs_per_op", lazy.at("allocs_per_op"), Better::kInfo)
        .add(key + "lazy.peak_queued", lazy.at("peak_queued"), Better::kInfo)
        .add(key + "speedup_vs_lazy", indexed.at("events_per_sec") / lazy.at("events_per_sec"),
             Better::kHigher, p.speedup_floor);
  }
  return doc;
}

// --- scale_sweep ------------------------------------------------------------

struct ScaleCase {
  std::uint32_t nodes{0};
  std::uint32_t zones{0};
  std::uint32_t fan_out{0};
  std::uint64_t procs{0};
  std::uint64_t events{0};
  double sim_sec{0.0};
  double msgs_per_node_period{0.0};
  double wall_sec{0.0};
  double events_per_sec{0.0};
};

// A daemon sends fan_out pings and answers ~fan_out per period (~2x
// fan_out); an all-pairs regression would sit near 2(n-1).
inline constexpr double kTrafficCeilingPerFanOut = 3.0;
inline constexpr double kMaxTrafficSpread = 1.30;

// `grid.front()` is the smallest case (n64).
inline MetricsDoc scale_metrics(const std::vector<ScaleCase>& grid, unsigned host_cpus) {
  MetricsDoc doc{"scale_sweep", host_cpus};
  double min_traffic = grid.front().msgs_per_node_period;
  double max_traffic = min_traffic;
  for (const ScaleCase& c : grid) {
    const std::string key = "n" + std::to_string(c.nodes) + ".";
    doc.add(key + "nodes", c.nodes, Better::kInfo)
        .add(key + "zones", c.zones, Better::kInfo)
        .add(key + "fan_out", c.fan_out, Better::kInfo)
        .add(key + "procs", static_cast<double>(c.procs), Better::kInfo)
        .add(key + "events", static_cast<double>(c.events), Better::kBoth)
        .add(key + "sim_sec", c.sim_sec, Better::kBoth)
        .add(key + "msgs_per_node_period", c.msgs_per_node_period, Better::kLower,
             kTrafficCeilingPerFanOut * c.fan_out)
        .add(key + "wall_sec", c.wall_sec, Better::kInfo)
        .add(key + "events_per_sec", c.events_per_sec, Better::kInfo)
        .add(key + "wall_ratio", c.wall_sec / grid.front().wall_sec, Better::kLower);
    min_traffic = std::min(min_traffic, c.msgs_per_node_period);
    max_traffic = std::max(max_traffic, c.msgs_per_node_period);
  }
  doc.add("grid.msgs_per_node_period_spread",
          min_traffic > 0.0 ? max_traffic / min_traffic : 1.0, Better::kLower,
          kMaxTrafficSpread);
  return doc;
}

// --- parallel_sweep ---------------------------------------------------------

struct WorkerRun {
  std::size_t workers{0};
  std::uint64_t events{0};
  double sim_sec{0.0};
  double wall_sec{0.0};
  double events_per_sec{0.0};
};

struct ParallelCase {
  std::uint32_t nodes{0};
  std::uint32_t zones{0};
  std::uint64_t procs{0};
  std::vector<WorkerRun> runs;  // runs.front() is the workers=1 reference
};

inline constexpr double kMinParallelSpeedup = 2.0;
inline constexpr std::uint32_t kSpeedupFloorNodes = 2000;

// `grid.front()` is the smallest case (n256).
inline MetricsDoc parallel_metrics(const std::vector<ParallelCase>& grid, unsigned host_cpus) {
  MetricsDoc doc{"parallel_sweep", host_cpus};
  const double anchor_wall = grid.front().runs.front().wall_sec;
  for (const ParallelCase& c : grid) {
    const std::string key = "n" + std::to_string(c.nodes) + ".";
    doc.add(key + "nodes", c.nodes, Better::kInfo)
        .add(key + "zones", c.zones, Better::kInfo)
        .add(key + "procs", static_cast<double>(c.procs), Better::kInfo);
    const WorkerRun& w1 = c.runs.front();
    const WorkerRun* widest = &w1;
    for (const WorkerRun& run : c.runs) {
      const std::string run_key = key + "w" + std::to_string(run.workers) + ".";
      doc.add(run_key + "events", static_cast<double>(run.events), Better::kBoth)
          .add(run_key + "sim_sec", run.sim_sec, Better::kBoth)
          .add(run_key + "wall_sec", run.wall_sec, Better::kInfo)
          .add(run_key + "events_per_sec", run.events_per_sec, Better::kInfo);
      if (&run == &w1) {
        continue;
      }
      // The schedule is a function of the scenario, never of the worker
      // count: any drift from w1 is a determinism bug, not noise.
      doc.add(run_key + "events_drift_vs_w1",
              std::fabs(static_cast<double>(run.events) - static_cast<double>(w1.events)),
              Better::kLower, 0.0)
          .add(run_key + "sim_sec_drift_vs_w1", std::fabs(run.sim_sec - w1.sim_sec),
               Better::kLower, 0.0);
      if (run.workers > widest->workers) {
        widest = &run;
      }
    }
    doc.add(key + "w1.wall_ratio", w1.wall_sec / anchor_wall, Better::kLower);
    // A speedup floor means something only where the hardware can deliver
    // one; a 1-CPU host still gates bit-identity and the w1 trajectory.
    const bool floor_binds = c.nodes >= kSpeedupFloorNodes && widest->workers > 1 &&
                             host_cpus >= widest->workers;
    doc.add(key + "speedup", widest->wall_sec > 0.0 ? w1.wall_sec / widest->wall_sec : 0.0,
            floor_binds ? Better::kHigher : Better::kInfo,
            floor_binds ? std::optional<double>{kMinParallelSpeedup} : std::nullopt);
  }
  return doc;
}

// --- cache_ablation ---------------------------------------------------------

struct PolicyRun {
  std::string policy;
  std::uint64_t migrations{0};
  double warmup_charged_ms{0.0};
  double warmup_paid_ms{0.0};
  double makespan_sec{0.0};
};

struct CacheCase {
  std::uint64_t wss_kib{0};
  std::uint32_t nodes{0};
  std::uint64_t procs{0};
  std::vector<PolicyRun> policies;
};

inline MetricsDoc cache_metrics(const std::vector<CacheCase>& grid, unsigned host_cpus) {
  MetricsDoc doc{"cache_ablation", host_cpus};
  for (const CacheCase& c : grid) {
    const std::string key = "wss" + std::to_string(c.wss_kib) + "k.";
    doc.add(key + "wss_kib", static_cast<double>(c.wss_kib), Better::kInfo)
        .add(key + "nodes", c.nodes, Better::kInfo)
        .add(key + "procs", static_cast<double>(c.procs), Better::kInfo);
    for (const PolicyRun& run : c.policies) {
      const std::string run_key = key + run.policy + ".";
      doc.add(run_key + "migrations", static_cast<double>(run.migrations), Better::kLower)
          .add(run_key + "warmup_charged_ms", run.warmup_charged_ms, Better::kLower)
          .add(run_key + "warmup_paid_ms", run.warmup_paid_ms, Better::kInfo)
          .add(run_key + "makespan_sec", run.makespan_sec, Better::kInfo);
    }
  }
  return doc;
}

}  // namespace ampom::bench
