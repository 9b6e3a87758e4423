// ampom_sim — command-line front end for experiments.
//
//   ampom_sim --kernel=stream --memory-mib=129 --scheme=ampom
//   ampom_sim --kernel=dgemm --memory-mib=575 --working-set-mib=115
//   ampom_sim --kernel=randomaccess --memory-mib=65 --broadband --trace=500
//   ampom_sim --kernel=stream --memory-mib=129 --trace-out=run.json
//   ampom_sim --kernel=stream --memory-mib=33,65,129 --scheme=ampom,openmosix --jobs=4
//
// One (kernel, size, scheme) cell prints the full metric set. Comma lists
// in --memory-mib / --scheme sweep the cross product instead — run on a
// --jobs-wide worker pool and summarized as one table, identical no matter
// how many workers ran it.

#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include "driver/builder.hpp"
#include "driver/runner.hpp"
#include "driver/sweep_executor.hpp"
#include "simcore/fmt.hpp"
#include "stats/table.hpp"
#include "workload/hpcc.hpp"

namespace {

using namespace ampom;

[[noreturn]] void usage(int code) {
  std::cout <<
      R"(usage: ampom_sim [options]
  --kernel=NAME          dgemm | stream | randomaccess | fft   (default stream)
  --memory-mib=N[,N...]  process size(s) in MiB                (default 129)
  --working-set-mib=N    DGEMM small-working-set variant (0 = full)
  --scheme=NAME[,NAME...]openmosix | noprefetch | ampom | precopy | checkpoint
                         (default ampom)
  --seed=N               workload seed                         (default 1)
  --jobs=N               worker threads for sweeps (comma lists); results
                         are bit-identical to --jobs=1          (default 1)
  --workers=N            intra-run simulator threads; the partitioned
                         engine splits a world by zone, and the paper's
                         testbed is one zone, so it runs serially
                         regardless                             (default 0)

  environment:
  --broadband            shape the migrant/home link to 6 Mb/s + 2 ms
  --background-load=F    CPU load at the destination (0..1)
  --background-traffic=F competing traffic into the destination (0..1)
  --ram-limit-pages=N    destination RAM cap with LRU eviction (0 = off)
  --no-home-dependency   execute syscalls locally after migration

  AMPoM knobs:
  --lookback=N --dmax=N --zone-cap=N --min-zone=N --partitions=N --no-batch

  output (single run only):
  --trace=N              print every Nth dependent-zone analysis
  --trace-out=FILE       record a structured event trace and write it as
                         Chrome trace_event JSON (chrome://tracing, Perfetto)
  -h, --help
)";
  std::exit(code);
}

bool parse_u64(const std::string& arg, const char* key, std::uint64_t& out) {
  const std::string prefix = std::string(key) + "=";
  if (arg.rfind(prefix, 0) != 0) {
    return false;
  }
  out = std::stoull(arg.substr(prefix.size()));
  return true;
}

bool parse_double(const std::string& arg, const char* key, double& out) {
  const std::string prefix = std::string(key) + "=";
  if (arg.rfind(prefix, 0) != 0) {
    return false;
  }
  out = std::stod(arg.substr(prefix.size()));
  return true;
}

bool parse_str(const std::string& arg, const char* key, std::string& out) {
  const std::string prefix = std::string(key) + "=";
  if (arg.rfind(prefix, 0) != 0) {
    return false;
  }
  out = arg.substr(prefix.size());
  return true;
}

std::vector<std::string> split_list(const std::string& value) {
  std::vector<std::string> items;
  std::size_t start = 0;
  while (start <= value.size()) {
    const std::size_t comma = value.find(',', start);
    if (comma == std::string::npos) {
      items.push_back(value.substr(start));
      break;
    }
    items.push_back(value.substr(start, comma - start));
    start = comma + 1;
  }
  return items;
}

driver::Scheme parse_scheme(const std::string& name) {
  if (name == "openmosix") {
    return driver::Scheme::OpenMosix;
  }
  if (name == "noprefetch") {
    return driver::Scheme::NoPrefetch;
  }
  if (name == "ampom") {
    return driver::Scheme::Ampom;
  }
  if (name == "precopy") {
    return driver::Scheme::PreCopy;
  }
  if (name == "checkpoint") {
    return driver::Scheme::Checkpoint;
  }
  std::cerr << "unknown scheme: " << name << "\n";
  usage(2);
}

void print_single_run(const driver::RunMetrics& m) {
  std::cout << "workload:               " << m.workload << " (" << m.memory_mib << " MiB, "
            << m.page_count << " pages)\n"
            << "scheme:                 " << m.scheme << "\n"
            << "freeze time:            " << m.freeze_time.str() << "\n"
            << "total time:             " << m.total_time.str() << "\n"
            << "execution time:         " << m.exec_time.str() << "\n"
            << "cpu time:               " << m.cpu_time.str() << "\n"
            << "stall time:             " << m.stall_time.str() << "\n"
            << "handler time:           " << m.handler_time.str() << "\n"
            << "refs consumed:          " << m.refs_consumed << "\n"
            << "hard faults:            " << m.hard_faults << "\n"
            << "soft faults:            " << m.soft_faults << "\n"
            << "in-flight waits:        " << m.inflight_waits << "\n"
            << "fault requests:         " << m.remote_fault_requests << "\n"
            << "prefetch pages issued:  " << m.prefetch_pages_issued << "\n"
            << "pages arrived:          " << m.pages_arrived << "\n"
            << "pages moved in freeze:  " << m.pages_migrated << "\n"
            << "pages resent (precopy): " << m.pages_resent << "\n"
            << "migration span:         " << m.migration_span.str() << "\n"
            << "freeze bytes:           " << m.bytes_freeze << "\n"
            << "paging bytes:           " << m.bytes_paging << "\n"
            << "prevented faults:       "
            << sim::strfmt("%.2f%%", m.prevented_fault_fraction() * 100.0) << "\n"
            << "zone per fault:         " << sim::strfmt("%.1f", m.prefetched_per_fault()) << "\n"
            << "fault latency us (p50/p95/max): "
            << sim::strfmt("%.0f/%.0f/%.0f", m.fault_latency_p50_us, m.fault_latency_p95_us,
                           m.fault_latency_max_us)
            << "\n"
            << "analysis overhead:      "
            << sim::strfmt("%.3f%%", m.analysis_overhead_fraction() * 100.0) << "\n"
            << "syscalls (local/redir): " << m.syscalls_local << "/" << m.syscalls_redirected
            << "\n"
            << "ledger intact:          " << (m.ledger_ok ? "yes" : "NO") << "\n";
}

}  // namespace

int main(int argc, char** argv) {
  std::string kernel_name = "stream";
  std::string scheme_list = "ampom";
  std::string memory_list = "129";
  std::uint64_t working_set_mib = 0;
  std::uint64_t trace_every = 0;
  std::uint64_t seed = 1;
  std::uint64_t ram_limit_pages = 0;
  driver::ExecPolicy exec{};
  double background_load = 0.0;
  double background_traffic = 0.0;
  bool broadband = false;
  bool home_dependency = true;
  core::AmpomConfig ampom{};
  std::string trace_out;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    std::uint64_t u = 0;
    double d = 0.0;
    if (arg == "-h" || arg == "--help") {
      usage(0);
    } else if (parse_str(arg, "--kernel", kernel_name) ||
               parse_str(arg, "--scheme", scheme_list) ||
               parse_str(arg, "--memory-mib", memory_list) ||
               parse_str(arg, "--trace-out", trace_out)) {
    } else if (parse_u64(arg, "--working-set-mib", working_set_mib) ||
               parse_u64(arg, "--seed", seed) ||
               parse_u64(arg, "--ram-limit-pages", ram_limit_pages) ||
               parse_u64(arg, "--trace", trace_every)) {
    } else if (exec.parse_flag(arg)) {
      // --jobs=N / --workers=N handled by the policy
    } else if (parse_u64(arg, "--lookback", u)) {
      ampom.lookback_length = u;
    } else if (parse_u64(arg, "--dmax", u)) {
      ampom.dmax = u;
    } else if (parse_u64(arg, "--zone-cap", u)) {
      ampom.zone_cap = u;
    } else if (parse_u64(arg, "--min-zone", u)) {
      ampom.min_zone = u;
    } else if (parse_u64(arg, "--partitions", u)) {
      ampom.window_partitions = u;
    } else if (parse_double(arg, "--background-load", d)) {
      background_load = d;
    } else if (parse_double(arg, "--background-traffic", d)) {
      background_traffic = d;
    } else if (arg == "--broadband") {
      broadband = true;
    } else if (arg == "--no-batch") {
      ampom.batch_requests = false;
    } else if (arg == "--no-home-dependency") {
      home_dependency = false;
    } else {
      std::cerr << "unknown option: " << arg << "\n";
      usage(2);
    }
  }

  workload::HpccKernel kernel{};
  if (kernel_name == "dgemm") {
    kernel = workload::HpccKernel::Dgemm;
  } else if (kernel_name == "stream") {
    kernel = workload::HpccKernel::Stream;
  } else if (kernel_name == "randomaccess") {
    kernel = workload::HpccKernel::RandomAccess;
  } else if (kernel_name == "fft") {
    kernel = workload::HpccKernel::Fft;
  } else {
    std::cerr << "unknown kernel: " << kernel_name << "\n";
    usage(2);
  }

  std::vector<driver::Scheme> schemes;
  for (const std::string& name : split_list(scheme_list)) {
    schemes.push_back(parse_scheme(name));
  }
  std::vector<std::uint64_t> sizes;
  for (const std::string& value : split_list(memory_list)) {
    sizes.push_back(std::stoull(value));
  }

  if (working_set_mib != 0 && kernel != workload::HpccKernel::Dgemm) {
    std::cerr << "--working-set-mib requires --kernel=dgemm\n";
    return 2;
  }

  // One builder recipe shared by the single-run and sweep paths.
  auto make_builder = [&](std::uint64_t memory_mib, driver::Scheme scheme) {
    driver::ScenarioBuilder builder;
    builder.scheme(scheme);
    if (working_set_mib != 0) {
      builder.workload(workload::hpcc_kernel_name(kernel),
                       [memory_mib, working_set_mib] {
                         return workload::make_small_ws_dgemm(memory_mib, working_set_mib);
                       },
                       memory_mib);
    } else {
      builder.workload(workload::hpcc_kernel_name(kernel),
                       [kernel, memory_mib, seed] {
                         return workload::make_hpcc_kernel(kernel, memory_mib, seed);
                       },
                       memory_mib);
    }
    builder.seed(seed)
        .ampom_config(ampom)
        .dest_background_load(background_load)
        .background_traffic(background_traffic)
        .ram_limit_pages(ram_limit_pages)
        .home_dependency(home_dependency);
    if (broadband) {
      builder.shaped_link(driver::broadband_link());
    }
    return builder;
  };

  const bool sweep = schemes.size() > 1 || sizes.size() > 1;
  if (sweep) {
    if (!trace_out.empty() || trace_every > 0) {
      std::cerr << "--trace/--trace-out apply to a single run, not a sweep\n";
      return 2;
    }
    std::vector<driver::SweepExecutor::ScenarioFactory> cases;
    for (const std::uint64_t mib : sizes) {
      for (const driver::Scheme scheme : schemes) {
        cases.push_back([&make_builder, mib, scheme] { return make_builder(mib, scheme).build(); });
      }
    }
    driver::SweepExecutor pool{{.exec = exec}};
    const auto outcomes = pool.run_all(cases);

    stats::Table table{std::string("Sweep: ") + workload::hpcc_kernel_name(kernel),
                       {"size (MB)", "scheme", "freeze", "total (s)", "fault reqs",
                        "prevented", "zone/fault"}};
    bool failed = false;
    for (const auto& outcome : outcomes) {
      if (!outcome.ok()) {
        failed = true;
        try {
          std::rethrow_exception(outcome.error);
        } catch (const std::exception& e) {
          std::cerr << "case failed: " << e.what() << "\n";
        }
        continue;
      }
      const driver::RunMetrics& m = outcome.metrics;
      table.add_row({stats::Table::integer(m.memory_mib), m.scheme, m.freeze_time.str(),
                     stats::Table::num(m.total_time.sec(), 2),
                     stats::Table::integer(m.remote_fault_requests),
                     stats::Table::percent(m.prevented_fault_fraction()),
                     stats::Table::num(m.prefetched_per_fault(), 1)});
    }
    table.print(std::cout);
    return failed ? 1 : 0;
  }

  driver::ScenarioBuilder builder = make_builder(sizes.front(), schemes.front());
  if (!trace_out.empty()) {
    builder.tracing();
  }
  if (trace_every > 0) {
    std::uint64_t count = 0;
    builder.ampom_trace([trace_every, count](const core::ZoneInputs& in, std::uint64_t n,
                                             std::size_t m) mutable {
      if (++count % trace_every != 0) {
        return;
      }
      std::cout << sim::strfmt(
          "analysis %8llu: S=%.3f r=%.0f/s c=%.2f c'=%.2f t0=%.0fus td=%.0fus N=%llu m=%zu\n",
          static_cast<unsigned long long>(count), in.locality_score, in.paging_rate_hz,
          in.cpu_mean, in.cpu_next, in.rtt_one_way.us(), in.page_transfer.us(),
          static_cast<unsigned long long>(n), m);
    });
  }

  driver::Scenario s;
  try {
    s = builder.build();
  } catch (const std::invalid_argument& e) {
    std::cerr << e.what() << "\n";
    return 2;
  }

  driver::Runner runner;
  const driver::RunMetrics m = runner.run(s);
  print_single_run(m);

  if (!trace_out.empty()) {
    if (!runner.write_trace_json(trace_out)) {
      std::cerr << "failed to write trace to " << trace_out << "\n";
      return 1;
    }
    const trace::TraceRecorder* rec = runner.trace();
    std::cout << "trace:                  " << rec->events().size() << " events -> " << trace_out;
    if (rec->events_dropped() > 0) {
      std::cout << " (" << rec->events_dropped() << " dropped at the cap)";
    }
    std::cout << "\n";
  }
  return 0;
}
