// perfbench: the repository benchmark (see README.md).
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1 [--commit ID]
//   perfbench --selftest
//
// --trace 0 repeats the workload for S seconds and prints the end-to-end
// metrics; --trace 1 makes untraced and traced passes plus the auxiliary
// 10k-node passes and prints the per-layer metrics. The last line
// of standard output is always the JSON result.

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <iostream>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "instruments.hpp"
#include "worlds.hpp"

namespace perfbench {
namespace {

struct MetricDef {
  const char* name;
  const char* unit;
};

constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},        {"run_s", "s"},          {"refs_per_s", "1/s"},
    {"peak_rss_mib", "MiB"}, {"makespan_s", "s"},     {"job_time_s", "s"},
    {"freeze_ms_p50", "ms"}, {"freeze_ms_tail", "ms"}, {"stall_s", "s"},
    {"fault_requests", "count"}, {"prevented_frac", "frac"}, {"done_frac", "frac"},
};

constexpr MetricDef kPerLayer[] = {
    {"simcore.events", "count"},
    {"simcore.ns_per_event", "ns"},
    {"simcore.events_per_s", "1/s"},
    {"simcore.slot_high_water", "count"},
    {"simcore.partitioned_w1_run_s", "s"},
    {"simcore.partitioned_w2_run_s", "s"},
    {"simcore.partitioned_speedup_w2", "ratio"},
    {"net.messages", "count"},
    {"net.bytes", "B"},
    {"net.page_bytes", "B"},
    {"net.freeze_bytes", "B"},
    {"mem.pages", "count"},
    {"mem.rss_bytes_per_page", "B"},
    {"proc.refs", "count"},
    {"proc.hard_faults", "count"},
    {"proc.soft_faults", "count"},
    {"proc.inflight_waits", "count"},
    {"proc.deputy_pages_served", "count"},
    {"proc.cpu_s", "s"},
    {"proc.handler_s", "s"},
    {"proc.fault_us_p50", "us"},
    {"proc.fault_us_p95", "us"},
    {"proc.spawn_s", "s"},
    {"workload.next_s", "s"},
    {"workload.next_ns", "ns"},
    {"core.analyses", "count"},
    {"core.zone_pages_per_analysis", "count"},
    {"core.prefetch_pages_issued", "count"},
    {"core.analysis_ms", "ms"},
    {"core.ampom_extra_host_s", "s"},
    {"migration.count", "count"},
    {"migration.failed", "count"},
    {"migration.freeze_s_total", "s"},
    {"migration.openmosix_freeze_s", "s"},
    {"migration.flush_pages", "count"},
    {"migration.requests_stalled_on_flush", "count"},
    {"cluster.gossip_msgs_per_node_period", "count"},
    {"cluster.digest_entries", "count"},
    {"cluster.dead_detected", "count"},
    {"cluster.gossip_only_run_s", "s"},
    {"balancer.ticks", "count"},
    {"balancer.decisions", "count"},
    {"balancer.intra_zone_moves", "count"},
    {"balancer.cross_zone_moves", "count"},
    {"balancer.world_build_s", "s"},
    {"driver.build_s", "s"},
    {"driver.run_setup_s", "s"},
    {"trace.events.net", "count"},
    {"trace.events.paging", "count"},
    {"trace.events.prefetch", "count"},
    {"trace.events.migration", "count"},
    {"trace.events.sched", "count"},
    {"trace.events.proc", "count"},
    {"trace.events_dropped", "count"},
    {"trace.overhead_frac", "frac"},
    {"verify.checks", "count"},
    {"verify.violations", "count"},
};

struct Args {
  std::string workload;
  std::uint64_t seed{1};
  double seconds{10.0};
  bool trace{false};
  bool selftest{false};
  std::string commit{"unknown"};
};

[[noreturn]] void usage_error(const std::string& message) {
  std::cerr << "perfbench: " << message << "\n"
            << "usage: perfbench --workload NAME --seed N --seconds S --trace 0|1 "
               "[--commit ID]\n       perfbench --selftest\n";
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args args;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--selftest") {
      args.selftest = true;
      continue;
    }
    if (i + 1 >= argc) {
      usage_error("missing value for " + flag);
    }
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        args.workload = value;
        have_workload = true;
      } else if (flag == "--seed") {
        args.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        args.seconds = std::stod(value);
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") {
          usage_error("--trace takes 0 or 1");
        }
        args.trace = value == "1";
      } else if (flag == "--commit") {
        args.commit = value;
      } else {
        usage_error("unknown option " + flag);
      }
    } catch (const std::logic_error&) {
      usage_error("bad value for " + flag + ": " + value);
    }
  }
  if (!args.selftest && !have_workload) {
    usage_error("--workload is required");
  }
  const auto& names = workload_names();
  if (have_workload && std::find(names.begin(), names.end(), args.workload) == names.end()) {
    usage_error("unknown workload " + args.workload);
  }
  if (!(args.seconds > 0.0)) {
    usage_error("--seconds must be positive");
  }
  return args;
}

// Peak RSS of this program. VmHWM, unlike getrusage's ru_maxrss, starts
// afresh at exec, so the launching interpreter's footprint is not counted.
double peak_rss_mib() {
  std::ifstream status{"/proc/self/status"};
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // reported in kB
    }
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

std::string number(double value) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.12g", value);
  return buf;
}

// The host every result was measured on. An unoptimised build's times say
// nothing about an optimised one, so it is flagged as not comparable.
void print_host(const Args& args) {
#ifdef __OPTIMIZE__
  const bool optimized = true;
#else
  const bool optimized = false;
#endif
  std::cout << "host: cpus=" << std::thread::hardware_concurrency()
            << " compiler=\"" << PERFBENCH_COMPILER << "\" build_type=" << PERFBENCH_BUILD_TYPE
            << " optimized=" << (optimized ? "yes" : "no") << " commit=" << args.commit
            << " comparable=" << (optimized ? "yes" : "NO (unoptimised build)") << "\n";
}

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const std::vector<std::pair<const MetricDef*, double>>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const auto& [def, value] = metrics[i];
    out += i == 0 ? "" : ", ";
    out += "\"" + std::string{def->name} + "\": {\"value\": " + number(value) +
           ", \"unit\": \"" + def->unit + "\"}";
  }
  out += "}}";
  std::cout << out << std::endl;
}

// Highest percentile with at least ten samples beyond it; the maximum when
// there are ten or fewer samples.
struct Tail {
  double value{0.0};
  double percentile{100.0};
};
Tail freeze_tail(std::vector<double> freezes) {
  if (freezes.empty()) {
    return {};
  }
  std::sort(freezes.begin(), freezes.end());
  const std::size_t n = freezes.size();
  if (n <= 10) {
    return {freezes.back(), 100.0};
  }
  const std::size_t index = n - 11;  // ten samples lie above it
  return {freezes[index], 100.0 * static_cast<double>(index + 1) / static_cast<double>(n)};
}

void print_failures(const Pass& pass) {
  for (const std::string& f : pass.failures) {
    std::cout << "CHECK FAILED: " << f << "\n";
  }
}

// Setup-only samples per iteration, on top of each iteration's own setup:
// a world sets up in milliseconds, so one sample per iteration is too few
// for a steady median.
constexpr int kExtraSetupSamples = 4;

int run_timed(const Args& args) {
  std::vector<Pass> passes;
  std::vector<std::vector<double>> setups;  // per world, every sample
  double first_pass_rss_mib = 0.0;
  bool correct = true;
  const Clock::time_point begin = Clock::now();
  // Repeat while another iteration fits in the measuring time, judged by
  // the mean iteration so far; always at least one.
  for (;;) {
    Pass pass = run_workload(args.workload, args.seed, PassOptions{});
    if (passes.empty()) {
      // Later iterations reuse (and fragment) the heap, so only the first
      // one's peak is the workload's own.
      first_pass_rss_mib = peak_rss_mib();
      setups.resize(pass.worlds.size());
    }
    std::cout << "iteration " << passes.size() + 1 << ":";
    for (std::size_t w = 0; w < pass.worlds.size(); ++w) {
      std::cout << " " << pass.worlds[w].name << " setup " << number(pass.worlds[w].setup_s)
                << " s run " << number(pass.worlds[w].run_s) << " s;";
      setups[w].push_back(pass.worlds[w].setup_s);
    }
    std::cout << "\n";
    if (!passes.empty() && !(pass.sim == passes.front().sim)) {
      std::cout << "CHECK FAILED: simulated outputs differ between iterations of one seed\n";
      correct = false;
    }
    passes.push_back(std::move(pass));
    PassOptions setup_only;
    setup_only.setup_only = true;
    for (int i = 0; i < kExtraSetupSamples; ++i) {
      const Pass sample = run_workload(args.workload, args.seed, setup_only);
      for (std::size_t w = 0; w < sample.worlds.size(); ++w) {
        setups[w].push_back(sample.worlds[w].setup_s);
      }
    }
    const double elapsed = seconds_since(begin);
    const double mean_iteration = elapsed / static_cast<double>(passes.size());
    if (elapsed + mean_iteration > args.seconds) {
      break;
    }
  }

  const Pass& first = passes.front();
  for (const std::string& line : first.report) {
    std::cout << line << "\n";
  }
  print_failures(first);
  correct = correct && first.failures.empty() && first.sim.jobs_ok == first.sim.jobs;

  // setup_s: per-world medians over every setup sample. run_s: every
  // iteration repeats the same simulation, so slice k of a world is the same
  // work in each; a busy host only ever adds time to a slice, so each slice
  // counts at its fastest over the iterations. Both are summed over the
  // workload's worlds. The sum of per-slice medians is printed alongside.
  double setup_s = 0.0;
  double run_s = 0.0;
  double run_s_medians = 0.0;
  for (std::size_t w = 0; w < first.worlds.size(); ++w) {
    setup_s += median(setups[w]);
    for (std::size_t k = 0; k < first.worlds[w].slices_s.size(); ++k) {
      std::vector<double> slice;
      for (const Pass& pass : passes) {
        slice.push_back(pass.worlds[w].slices_s.at(k));
      }
      run_s += *std::min_element(slice.begin(), slice.end());
      run_s_medians += median(slice);
    }
  }
  const SimOutputs& sim = first.sim;
  const Tail tail = freeze_tail(sim.freeze_ms);
  std::cout << "workload " << args.workload << " seed " << args.seed << ": "
            << passes.size() << " iterations, " << sim.jobs << " jobs, " << sim.refs
            << " refs per iteration; freeze tail is p" << number(tail.percentile) << " of "
            << sim.freeze_ms.size() << " freezes; run_s " << number(run_s)
            << " s from fastest slices, " << number(run_s_medians) << " s from median slices\n";

  const double values[] = {
      setup_s,
      run_s,
      static_cast<double>(sim.refs) / run_s,
      first_pass_rss_mib,
      sim.makespan_s,
      sim.job_time_s,
      sim.freeze_ms.empty() ? 0.0 : median(sim.freeze_ms),
      tail.value,
      sim.stall_s,
      static_cast<double>(sim.fault_requests),
      sim.pages_arrived == 0 ? 0.0
                             : static_cast<double>(sim.pages_arrived - sim.fault_requests) /
                                   static_cast<double>(sim.pages_arrived),
      static_cast<double>(sim.jobs_ok) / static_cast<double>(sim.jobs),
  };
  std::vector<std::pair<const MetricDef*, double>> metrics;
  for (std::size_t i = 0; i < std::size(kEndToEnd); ++i) {
    metrics.emplace_back(&kEndToEnd[i], values[i]);
  }
  const std::uint64_t attempted = sim.jobs * passes.size();
  std::uint64_t failed = 0;
  for (const Pass& pass : passes) {
    failed += pass.sim.jobs - pass.sim.jobs_ok;
  }
  print_result(correct, attempted, failed, metrics);
  return 0;
}

double total_run_s(const Pass& pass) {
  double total = 0.0;
  for (const WorldTime& w : pass.worlds) {
    total += w.run_s;
  }
  return total;
}

int run_traced(const Args& args) {
  bool correct = true;
  PassOptions reference_options;
  reference_options.count_events = true;
  const Pass reference = run_workload(args.workload, args.seed, reference_options);
  // Nothing but the untraced pass has run yet, so the peak RSS is its own.
  const double reference_rss_bytes = peak_rss_mib() * 1024.0 * 1024.0;
  PassOptions traced_options;
  traced_options.traced = true;
  const Pass traced = run_workload(args.workload, args.seed, traced_options);
  // A second untraced pass after the traced one, so the host's drift during
  // the traced pass shows in the denominator of trace.overhead_frac.
  const Pass reference_after = run_workload(args.workload, args.seed, reference_options);
  for (const std::string& line : traced.report) {
    std::cout << line << "\n";
  }
  print_failures(reference);
  print_failures(traced);
  correct = reference.failures.empty() && traced.failures.empty() &&
            traced.sim.jobs_ok == traced.sim.jobs;
  if (!(reference.sim == traced.sim) || !(reference.sim == reference_after.sim)) {
    std::cout << "CHECK FAILED: traced and untraced simulated outputs differ\n";
    correct = false;
  }

  // Event counts and host-time layers come from the first untraced pass
  // (host run times: the mean of both); the traced pass adds what only
  // instrumentation can see.
  Layers layers = traced.layers;
  for (const auto& [name, value] : reference.layers) {
    layers[name] = value;
  }
  const double reference_run_s = 0.5 * (total_run_s(reference) + total_run_s(reference_after));
  const double events = layers["simcore.events"];
  layers["simcore.ns_per_event"] = events > 0.0 ? reference_run_s / events * 1e9 : 0.0;
  layers["simcore.events_per_s"] = events / reference_run_s;
  layers["mem.rss_bytes_per_page"] = reference_rss_bytes / layers["mem.pages"];
  layers["trace.overhead_frac"] = total_run_s(traced) / reference_run_s - 1.0;
  if (args.workload != "paper_hpcc") {
    layers["core.ampom_extra_host_s"] =
        reference_run_s - run_noprefetch_twin_s(args.workload, args.seed);
  }

  // Auxiliary passes on the 10k-node world: the partitioned engine at one
  // and two worker threads, and gossip alone up to the same horizon.
  const Pass w1 = run_gossip_10k_partitioned(args.seed, 1);
  const Pass w2 = run_gossip_10k_partitioned(args.seed, 2);
  print_failures(w1);
  correct = correct && w1.failures.empty();
  if (!(w1.sim == w2.sim) || w1.layers.at("simcore.events") != w2.layers.at("simcore.events")) {
    std::cout << "CHECK FAILED: workers=1 and workers=2 results differ\n";
    correct = false;
  }
  layers["simcore.partitioned_w1_run_s"] = total_run_s(w1);
  layers["simcore.partitioned_w2_run_s"] = total_run_s(w2);
  layers["simcore.partitioned_speedup_w2"] = total_run_s(w1) / total_run_s(w2);
  layers["cluster.gossip_only_run_s"] = run_gossip_10k_idle(args.seed, w1.sim.makespan_s);

  std::vector<std::pair<const MetricDef*, double>> metrics;
  for (const MetricDef& def : kPerLayer) {
    metrics.emplace_back(&def, layers[def.name]);
    layers.erase(def.name);
  }
  for (const auto& [name, value] : layers) {
    std::cout << "CHECK FAILED: layer metric " << name << " is missing from the metric table\n";
    correct = false;
  }
  print_result(correct, traced.sim.jobs, traced.sim.jobs - traced.sim.jobs_ok, metrics);
  return 0;
}

// Self-tests that the benchmark measures the program: the paper path equals
// tools/ampom_sim's, tracing and the partitioned engine's worker count move
// no simulated quantity.
int run_selftest() {
  bool ok = true;
  const PaperPoint point = run_paper_dgemm_ampom(1);
  std::printf("selftest paper DGEMM 575 MiB AMPoM seed 1: freeze %.3f ms, total %.3f s\n",
              point.freeze_ms, point.total_s);

  const Pass plain = run_small_zoned(7, 0, false);
  const Pass traced = run_small_zoned(7, 0, true);
  const bool same_traced = plain.sim == traced.sim && plain.failures.empty();
  std::printf("selftest traced == untraced on a 2x4 zoned world: %s\n",
              same_traced ? "yes" : "NO");
  ok = ok && same_traced;

  const Pass w1 = run_small_zoned(7, 1, false);
  const Pass w2 = run_small_zoned(7, 2, false);
  const bool same_workers = w1.sim == w2.sim && w1.failures.empty() &&
                            w1.layers.at("simcore.events") == w2.layers.at("simcore.events");
  std::printf("selftest workers 1 == 2 on a 2x4 zoned world: %s\n",
              same_workers ? "yes" : "NO");
  ok = ok && same_workers;

  for (const MetricDef& def : kEndToEnd) {
    std::printf("metric end_to_end %s %s\n", def.name, def.unit);
  }
  for (const MetricDef& def : kPerLayer) {
    std::printf("metric per_layer %s %s\n", def.name, def.unit);
  }
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  const Args args = parse_args(argc, argv);
  try {
    if (args.selftest) {
      return run_selftest();
    }
    print_host(args);
    return args.trace ? run_traced(args) : run_timed(args);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
}
