#include "worlds.hpp"

#include <algorithm>
#include <cstdio>
#include <functional>
#include <memory>
#include <optional>
#include <stdexcept>

#include "balancer/cluster_sim.hpp"
#include "balancer/load_balancer.hpp"
#include "driver/builder.hpp"
#include "driver/runner.hpp"
#include "instruments.hpp"
#include "trace/trace.hpp"
#include "verify/invariant_auditor.hpp"
#include "workload/hpcc.hpp"
#include "workload/synthetic.hpp"

namespace perfbench {
namespace {

using namespace ampom;
using Factory = std::function<std::unique_ptr<proc::ReferenceStream>()>;

constexpr std::uint32_t kFanOut = 3;
constexpr double kAssumedFreezeSeconds = 0.2;

// Per-job generator seed derived from the workload seed (splitmix64).
std::uint64_t job_seed(std::uint64_t seed, std::uint64_t index) {
  std::uint64_t z = seed + 0x9E3779B97F4A7C15ULL * (index + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

Factory timed(Factory inner, StreamClock* clock) {
  if (clock == nullptr) {
    return inner;
  }
  return [inner = std::move(inner), clock] {
    return std::make_unique<TimedStream>(inner(), *clock);
  };
}

bool is_send(const char* name) {
  const std::string n = name;
  return n != "deliver" && n != "drop" && n != "duplicate" && n != "crash_drop";
}

// trace.events.<category> and the recorder's drop count. Sends also give
// the fabric totals where the fabric is out of reach (the three-node harness
// owns its own), and otherwise the migration traffic, which no public
// counter of a cluster world reports.
void add_trace_layers(Layers& layers, const trace::TraceRecorder& recorder, bool fabric_hidden) {
  for (const trace::Category cat :
       {trace::Category::kNet, trace::Category::kPaging, trace::Category::kPrefetch,
        trace::Category::kMigration, trace::Category::kSched, trace::Category::kProc}) {
    layers[std::string{"trace.events."} + trace::category_name(cat)] += 0.0;
  }
  for (const trace::Event& e : recorder.events()) {
    layers[std::string{"trace.events."} + trace::category_name(e.cat)] += 1.0;
    if (e.cat != trace::Category::kNet || !is_send(e.name)) {
      continue;
    }
    const std::string payload = e.name;
    const double bytes = static_cast<double>(e.arg0);
    if (fabric_hidden) {
      layers["net.messages"] += 1.0;
      layers["net.bytes"] += bytes;
    } else if (payload == "MigrationChunk" || payload == "MigrationAck" ||
               payload == "FlushPage" || payload == "FlushAck") {
      layers["net.freeze_bytes"] += bytes;
    }
  }
  layers["trace.events_dropped"] += static_cast<double>(recorder.events_dropped());
}

// ---------------------------------------------------------------------------
// paper_hpcc: the paper's three-node harness through driver::Runner.
// ---------------------------------------------------------------------------

struct PaperKernel {
  workload::HpccKernel kernel;
  std::uint64_t mib;  // Table 1's largest size for the kernel
};

// An AMPoM freeze depends only on the image size, so the seed trims each
// image by 0-3 MiB to make the freeze an input-dependent result like the
// rest; seed 1 runs Table 1's sizes exactly.
std::uint64_t paper_mib(const PaperKernel& k, std::uint64_t seed) {
  return k.mib - (seed - 1) % 4;
}
constexpr PaperKernel kPaperKernels[] = {{workload::HpccKernel::Dgemm, 575},
                                         {workload::HpccKernel::Stream, 575},
                                         {workload::HpccKernel::RandomAccess, 513},
                                         {workload::HpccKernel::Fft, 513}};
constexpr driver::Scheme kPaperSchemes[] = {driver::Scheme::OpenMosix,
                                            driver::Scheme::NoPrefetch, driver::Scheme::Ampom};

// Thrown from the on_setup hook to end a setup-only paper run.
struct SetupDone {};

// Simulated length of one timed slice of a paper run.
constexpr double kPaperSliceS = 5.0;

// One paper world: kernel `k` at its seeded size under `scheme`. The stream
// is wrapped in the timing decorator when `clock` is given.
driver::ScenarioBuilder paper_builder(const PaperKernel& k, driver::Scheme scheme,
                                      std::uint64_t seed, StreamClock* clock) {
  const std::uint64_t mib = paper_mib(k, seed);
  const Factory factory = [k, mib, seed] {
    return workload::make_hpcc_kernel(k.kernel, mib, seed);
  };
  driver::ScenarioBuilder builder;
  builder.scheme(scheme)
      .workload(workload::hpcc_kernel_name(k.kernel), timed(factory, clock), mib)
      .seed(seed);
  return builder;
}

Pass run_paper(std::uint64_t seed, const PassOptions& options) {
  Pass pass;
  Layers& layers = pass.layers;
  StreamClock clock;
  clock.clock_read_s = options.traced ? calibrate_clock_read() : 0.0;
  std::uint64_t analyses = 0;
  std::uint64_t zone_pages = 0;
  double ampom_run_s = 0.0;
  double noprefetch_run_s = 0.0;
  std::vector<double> fault_p50;
  std::vector<double> fault_p95;
  double event_high_water = 0.0;
  driver::Runner runner;

  for (const PaperKernel& k : kPaperKernels) {
    driver::RunMetrics by_scheme[3];
    for (std::size_t s = 0; s < 3; ++s) {
      const driver::Scheme scheme = kPaperSchemes[s];
      const Clock::time_point begin = Clock::now();
      Clock::time_point setup_end{};
      std::uint64_t events_seen = 0;
      std::uint64_t probe_fires = 0;
      std::vector<Clock::time_point> marks;  // host time at each probe

      driver::ScenarioBuilder builder =
          paper_builder(k, scheme, seed, options.traced ? &clock : nullptr);
      builder.on_setup([&](sim::Simulator& simulator, net::Fabric&) {
        setup_end = Clock::now();
        if (options.setup_only) {
          throw SetupDone{};
        }
        // The probe cuts the run into timed slices (see run_sliced); it only
        // observes, so the simulation is the same with or without it.
        const sim::Time period =
            options.count_events ? sim::Time::from_ms(10) : sim::Time::from_sec(kPaperSliceS);
        simulator.start_probe(period, [&](sim::Time, std::size_t pending,
                                          std::uint64_t processed) {
          marks.push_back(Clock::now());
          ++probe_fires;
          events_seen = processed;
          event_high_water = std::max(event_high_water, static_cast<double>(pending));
        });
      });
      if (options.traced) {
        builder.tracing().ampom_trace(
            [&](const core::ZoneInputs&, std::uint64_t zone, std::size_t) {
              ++analyses;
              zone_pages += zone;
            });
      }
      const driver::Scenario scenario = builder.build();
      const Clock::time_point built = Clock::now();
      if (options.setup_only) {
        try {
          (void)runner.run(scenario);
        } catch (const SetupDone&) {
        }
        pass.worlds.push_back({scenario.workload_label + "/" + driver::scheme_name(scheme),
                               seconds_between(begin, setup_end), 0.0, {}});
        continue;
      }
      const driver::RunMetrics m = runner.run(scenario);
      const Clock::time_point end = Clock::now();

      const std::string world = std::string{m.workload} + "/" + m.scheme;
      marks.push_back(end);
      std::vector<double> slices;
      Clock::time_point slice_begin = setup_end;
      for (const Clock::time_point mark : marks) {
        slices.push_back(seconds_between(slice_begin, mark));
        slice_begin = mark;
      }
      pass.worlds.push_back(
          {world, seconds_between(begin, setup_end), seconds_between(setup_end, end), slices});
      layers["driver.build_s"] += seconds_between(begin, built);
      layers["driver.run_setup_s"] += seconds_between(built, setup_end);
      if (scheme == driver::Scheme::Ampom) {
        ampom_run_s += pass.worlds.back().run_s;
      } else if (scheme == driver::Scheme::NoPrefetch) {
        noprefetch_run_s += pass.worlds.back().run_s;
      }

      const bool ok = m.ledger_ok && m.migration_completed && m.refs_consumed > 0;
      if (!ok) {
        pass.failures.push_back(world + ": ledger_ok=" + std::to_string(m.ledger_ok) +
                                " migration_completed=" +
                                std::to_string(m.migration_completed));
      }
      ++pass.sim.jobs;
      pass.sim.jobs_ok += ok ? 1 : 0;
      pass.sim.refs += m.refs_consumed;
      if (scheme == driver::Scheme::Ampom) {
        pass.sim.makespan_s += m.total_time.sec();
        pass.sim.freeze_ms.push_back(m.freeze_time.ms());
        pass.sim.stall_s += m.stall_time.sec();
        pass.sim.fault_requests += m.remote_fault_requests;
        pass.sim.pages_arrived += m.pages_arrived;
        fault_p50.push_back(m.fault_latency_p50_us);
        fault_p95.push_back(m.fault_latency_p95_us);
        layers["core.prefetch_pages_issued"] += static_cast<double>(m.prefetch_pages_issued);
        layers["core.analysis_ms"] += m.ampom_analysis_time.ms();
      }
      if (scheme == driver::Scheme::OpenMosix) {
        layers["migration.openmosix_freeze_s"] += m.freeze_time.sec();
      }

      layers["proc.refs"] += static_cast<double>(m.refs_consumed);
      layers["proc.hard_faults"] += static_cast<double>(m.hard_faults);
      layers["proc.soft_faults"] += static_cast<double>(m.soft_faults);
      layers["proc.inflight_waits"] += static_cast<double>(m.inflight_waits);
      layers["proc.deputy_pages_served"] += static_cast<double>(m.pages_arrived);
      layers["proc.cpu_s"] += m.cpu_time.sec();
      layers["proc.handler_s"] += m.handler_time.sec();
      // The largest world, since the harness builds one at a time.
      layers["mem.pages"] = std::max(layers["mem.pages"], static_cast<double>(m.page_count));
      layers["migration.count"] += m.migration_completed ? 1.0 : 0.0;
      layers["migration.failed"] += m.migration_completed ? 0.0 : 1.0;
      layers["migration.freeze_s_total"] += m.freeze_time.sec();
      layers["migration.flush_pages"] += static_cast<double>(m.flush_pages);
      layers["migration.requests_stalled_on_flush"] +=
          static_cast<double>(m.requests_stalled_on_flush);
      layers["net.page_bytes"] += static_cast<double>(m.bytes_paging);
      layers["net.freeze_bytes"] += static_cast<double>(m.bytes_freeze);
      if (options.count_events) {
        layers["simcore.events"] += static_cast<double>(events_seen - probe_fires);
      }
      if (options.traced) {
        add_trace_layers(layers, *runner.trace(), /*fabric_hidden=*/true);
      }
      by_scheme[s] = m;
    }
    if (options.setup_only) {
      continue;
    }

    // The paper's claims, per kernel: AMPoM avoids nearly all of the
    // openMosix freeze, and prefetching prevents fault requests.
    const driver::RunMetrics& om = by_scheme[0];
    const driver::RunMetrics& np = by_scheme[1];
    const driver::RunMetrics& am = by_scheme[2];
    const double avoided = 1.0 - am.freeze_time.sec() / om.freeze_time.sec();
    const std::uint64_t m_mib = am.memory_mib;
    char line[320];
    std::snprintf(line, sizeof line,
                  "paper %-12s %3llu MiB: freeze openMosix %.3f ms, NoPrefetch %.3f ms, AMPoM "
                  "%.3f ms (%.2f%% avoided); fault requests NoPrefetch %llu, AMPoM %llu; AMPoM "
                  "total %.3f s",
                  workload::hpcc_kernel_name(k.kernel), static_cast<unsigned long long>(m_mib),
                  om.freeze_time.ms(), np.freeze_time.ms(), am.freeze_time.ms(), 100.0 * avoided,
                  static_cast<unsigned long long>(np.remote_fault_requests),
                  static_cast<unsigned long long>(am.remote_fault_requests), am.total_time.sec());
    pass.report.emplace_back(line);
    if (!(am.freeze_time.sec() < 0.02 * om.freeze_time.sec())) {
      pass.failures.push_back(std::string{"paper "} + workload::hpcc_kernel_name(k.kernel) +
                              ": AMPoM freeze is not below 2% of the openMosix freeze");
    }
    if (!(am.remote_fault_requests < np.remote_fault_requests)) {
      pass.failures.push_back(std::string{"paper "} + workload::hpcc_kernel_name(k.kernel) +
                              ": AMPoM sent no fewer fault requests than NoPrefetch");
    }
  }

  pass.sim.job_time_s = pass.sim.makespan_s / static_cast<double>(std::size(kPaperKernels));
  layers["proc.fault_us_p50"] = median(fault_p50);
  layers["proc.fault_us_p95"] = median(fault_p95);
  layers["core.ampom_extra_host_s"] = ampom_run_s - noprefetch_run_s;
  if (options.count_events) {
    layers["simcore.slot_high_water"] = event_high_water;
  }
  if (options.traced) {
    layers["core.analyses"] = static_cast<double>(analyses);
    layers["core.zone_pages_per_analysis"] =
        analyses > 0 ? static_cast<double>(zone_pages) / static_cast<double>(analyses) : 0.0;
    layers["workload.next_s"] = clock.total_s();
    layers["workload.next_ns"] = clock.ns_per_call();
  }
  return pass;
}

// ---------------------------------------------------------------------------
// Cluster worlds: ClusterSim + LoadBalancer.
// ---------------------------------------------------------------------------

struct ClusterShape {
  const char* name;
  std::uint32_t zones;
  std::uint32_t nodes_per_zone;
  std::vector<balancer::JobSpec> (*jobs)(std::uint64_t seed);
  // Simulated length of one timed slice of a serial run (see run_sliced).
  double slice_s;
};

// Four HotCold jobs on the first node of every zone: sparse load, so gossip
// and the event heap dominate. Each image is 2 MiB less 0-127 seeded pages,
// so the freezes, which depend only on the image size, vary with the seed.
std::vector<balancer::JobSpec> gossip_10k_jobs(std::uint64_t seed) {
  std::vector<balancer::JobSpec> jobs;
  constexpr std::uint32_t kZones = 100;
  constexpr std::uint32_t kNodesPerZone = 100;
  for (std::uint32_t zone = 0; zone < kZones; ++zone) {
    for (std::uint32_t j = 0; j < 4; ++j) {
      balancer::JobSpec job;
      job.home = zone * kNodesPerZone;
      job.label = "hotcold";
      job.start = sim::Time::from_ms(25 * j);
      const std::uint64_t s = job_seed(seed, jobs.size());
      job.make_workload = [s] {
        return std::make_unique<workload::HotColdStream>(
            2 * sim::kMiB - (s % 128) * 4 * sim::kKiB, /*hot_pages=*/64, /*touches=*/100'000,
            /*cold_fraction=*/0.05, sim::Time::from_us(100), s);
      };
      jobs.push_back(std::move(job));
    }
  }
  return jobs;
}

// Eight 65 MiB HPCC jobs on every even node, kernels cycling and starts
// staggered 0-160 ms plus a seeded 0-10 ms (DGEMM and STREAM streams are
// seed-free, so without it their migrations, and the freeze tail, would not
// depend on the seed): many processes time-share each CPU while the
// balancer moves them.
std::vector<balancer::JobSpec> hpcc_dense_jobs(std::uint64_t seed) {
  constexpr workload::HpccKernel kCycle[] = {
      workload::HpccKernel::Stream, workload::HpccKernel::RandomAccess,
      workload::HpccKernel::Dgemm, workload::HpccKernel::Fft};
  std::vector<balancer::JobSpec> jobs;
  for (net::NodeId node = 0; node < 32; node += 2) {
    for (std::uint32_t j = 0; j < 8; ++j) {
      const std::uint64_t index = jobs.size();
      const workload::HpccKernel kernel = kCycle[index % 4];
      balancer::JobSpec job;
      job.home = node;
      job.label = workload::hpcc_kernel_name(kernel);
      const std::uint64_t s = job_seed(seed, index);
      job.start = sim::Time::from_ms(20 * ((j + node / 2) % 9)) +
                  sim::Time::from_us(static_cast<std::int64_t>(s % 10'000));
      job.make_workload = [kernel, s] { return workload::make_hpcc_kernel(kernel, 65, s); };
      jobs.push_back(std::move(job));
    }
  }
  return jobs;
}

// Two zones of four nodes, four HotCold jobs on each zone's first node.
std::vector<balancer::JobSpec> small_zoned_jobs(std::uint64_t seed) {
  std::vector<balancer::JobSpec> jobs;
  for (net::NodeId home : {0u, 4u}) {
    for (std::uint32_t j = 0; j < 4; ++j) {
      balancer::JobSpec job;
      job.home = home;
      job.label = "hotcold";
      job.start = sim::Time::from_ms(10 * j);
      const std::uint64_t s = job_seed(seed, jobs.size());
      job.make_workload = [s] {
        return std::make_unique<workload::HotColdStream>(
            2 * sim::kMiB, 64, 20'000, 0.05, sim::Time::from_us(100), s);
      };
      jobs.push_back(std::move(job));
    }
  }
  return jobs;
}

constexpr ClusterShape kGossip10k{"cluster_gossip_10k", 100, 100, gossip_10k_jobs, 0.25};
constexpr ClusterShape kHpccDense{"cluster_hpcc_dense", 4, 8, hpcc_dense_jobs, 2.0};
constexpr ClusterShape kSmallZoned{"small_zoned", 2, 4, small_zoned_jobs, 1.0};

// Runs a serial world to the end in slices of `slice_s` simulated seconds and
// returns the host time of each slice. Nothing happens between the slices,
// so the simulation is the one world.run() would make; because it is
// deterministic, slice k is the same work in every iteration of a timed run.
std::vector<double> run_sliced(balancer::ClusterSim& world, double slice_s) {
  std::vector<double> slices;
  for (std::uint64_t k = 1;; ++k) {
    const sim::Time deadline = sim::Time::from_sec(slice_s * static_cast<double>(k));
    const Clock::time_point begin = Clock::now();
    const bool done = world.run_until(deadline);
    slices.push_back(seconds_since(begin));
    if (done) {
      return slices;
    }
    if (world.simulator().now() < deadline) {
      throw std::runtime_error("run_sliced: simulation stopped with unfinished processes");
    }
  }
}

driver::Scenario cluster_scenario(const ClusterShape& shape, std::uint64_t seed,
                                  std::uint32_t workers,
                                  driver::Scheme scheme = driver::Scheme::Ampom) {
  driver::ScenarioBuilder builder;
  builder.scheme(scheme)
      .topology(shape.zones, shape.nodes_per_zone)
      .gossip(kFanOut)
      .seed(seed);
  if (workers > 0) {
    builder.workers(workers);
  }
  return builder.build();
}

Pass run_cluster(const ClusterShape& shape, std::uint64_t seed, std::uint32_t workers,
                 const PassOptions& options, driver::Scheme scheme = driver::Scheme::Ampom) {
  Pass pass;
  Layers& layers = pass.layers;
  StreamClock clock;
  clock.clock_read_s = options.traced ? calibrate_clock_read() : 0.0;

  const Clock::time_point begin = Clock::now();
  const driver::Scenario scenario = cluster_scenario(shape, seed, workers, scheme);
  const Clock::time_point built = Clock::now();
  balancer::ClusterSim world{scenario};
  const Clock::time_point constructed = Clock::now();
  std::vector<balancer::JobSpec> jobs = shape.jobs(seed);
  std::vector<sim::Time> starts;
  for (balancer::JobSpec& job : jobs) {
    starts.push_back(job.start);
    job.make_workload = timed(std::move(job.make_workload), options.traced ? &clock : nullptr);
    world.spawn(std::move(job));
  }
  const Clock::time_point spawned = Clock::now();
  balancer::LoadBalancer::Config config;
  config.assumed_freeze_seconds = kAssumedFreezeSeconds;
  balancer::LoadBalancer balancer{world, config};
  balancer.start();
  const Clock::time_point setup_end = Clock::now();
  if (options.setup_only) {
    pass.worlds.push_back({shape.name, seconds_between(begin, setup_end), 0.0, {}});
    return pass;
  }

  // Instrumentation is attached outside the timed setup span. The freeze log
  // reads per-migration freezes; an observer pins a partitioned world to one
  // thread, so the partitioned passes go without it.
  std::optional<trace::TraceRecorder> recorder;
  std::optional<verify::InvariantAuditor> auditor;
  std::optional<FreezeLog> freeze_log;
  if (options.traced) {
    trace::TraceConfig trace_config;
    trace_config.enabled = true;
    recorder.emplace(trace_config);
    world.set_trace(&*recorder);
    recorder->attach_scheduler_probe(world.simulator());
    verify::AuditorConfig audit;
    audit.throw_on_violation = false;
    auditor.emplace(world, audit);
  }
  if (workers == 0) {
    freeze_log.emplace(auditor ? &*auditor : nullptr);
    world.set_observer(&*freeze_log);
  }

  // The partitioned engine runs whole: a run_until deadline would cut its
  // synchronisation windows short.
  std::vector<double> slices;
  if (workers == 0) {
    slices = run_sliced(world, shape.slice_s);
  } else {
    const Clock::time_point run_begin = Clock::now();
    world.run();
    slices.push_back(seconds_since(run_begin));
  }
  double run_s = 0.0;
  for (const double slice : slices) {
    run_s += slice;
  }

  pass.worlds.push_back({shape.name, seconds_between(begin, setup_end), run_s, slices});
  layers["driver.build_s"] = seconds_between(begin, built);
  layers["balancer.world_build_s"] =
      seconds_between(built, constructed) + seconds_between(spawned, setup_end);
  layers["proc.spawn_s"] = seconds_between(constructed, spawned);

  // --- simulated outputs and per-job checks -----------------------------------
  SimOutputs& out = pass.sim;
  const std::size_t node_count = world.node_count();
  const proc::WireCosts& wire = world.profile().wire;
  std::vector<double> fault_p50;
  std::vector<double> fault_p95;
  double job_time_sum = 0.0;
  const auto& hosts = world.hosts();
  for (std::size_t i = 0; i < hosts.size(); ++i) {
    const balancer::ProcessHost& host = *hosts[i];
    const proc::ExecStats& es = host.stats();
    const bool ok = host.finished() && es.refs_consumed > 0 &&
                    es.refs_consumed == host.process().stream().emitted();
    ++out.jobs;
    out.jobs_ok += ok ? 1 : 0;
    if (!ok) {
      pass.failures.push_back(std::string{shape.name} + ": job " + std::to_string(host.pid()) +
                              " did not finish cleanly");
    }
    out.refs += es.refs_consumed;
    out.stall_s += es.stall_time.sec();
    job_time_sum += (es.finished_at - starts[i]).sec();
    std::uint64_t prefetch_pages = 0;
    for (net::NodeId node = 0; node < node_count; ++node) {
      if (const proc::PagingClientStats* ps = host.paging_stats(node)) {
        out.fault_requests += ps->fault_requests;
        out.pages_arrived += ps->pages_arrived;
        prefetch_pages += ps->prefetch_pages_requested;
        layers["net.page_bytes"] +=
            static_cast<double>(ps->pages_arrived * wire.page_message_bytes() +
                                ps->fault_requests * wire.request_bytes(1));
      }
    }
    layers["core.prefetch_pages_issued"] += static_cast<double>(prefetch_pages);
    layers["proc.refs"] += static_cast<double>(es.refs_consumed);
    layers["proc.hard_faults"] += static_cast<double>(es.hard_faults);
    layers["proc.soft_faults"] += static_cast<double>(es.soft_faults);
    layers["proc.inflight_waits"] += static_cast<double>(es.inflight_waits);
    layers["proc.cpu_s"] += es.cpu_time.sec();
    layers["proc.handler_s"] += es.handler_time.sec();
    if (!es.fault_latency_us.empty()) {
      fault_p50.push_back(es.fault_latency_us.percentile(0.5));
      fault_p95.push_back(es.fault_latency_us.percentile(0.95));
    }
    const proc::DeputyStats& ds = host.deputy().stats();
    layers["proc.deputy_pages_served"] += static_cast<double>(ds.pages_served);
    layers["migration.flush_pages"] += static_cast<double>(ds.flush_pages_received);
    layers["migration.requests_stalled_on_flush"] +=
        static_cast<double>(ds.requests_stalled_on_flush);
    layers["migration.count"] += static_cast<double>(host.migrations());
    layers["migration.failed"] += static_cast<double>(host.failed_migrations());
    layers["migration.freeze_s_total"] += host.freeze_total().sec();
    layers["mem.pages"] += static_cast<double>(host.process().aspace().page_count());
  }
  out.makespan_s = world.makespan().sec();
  out.job_time_s = hosts.empty() ? 0.0 : job_time_sum / static_cast<double>(hosts.size());
  if (freeze_log) {
    out.freeze_ms = freeze_log->freeze_ms();
  }
  layers["proc.fault_us_p50"] = median(fault_p50);
  layers["proc.fault_us_p95"] = median(fault_p95);

  // --- engine, fabric, gossip and balancer counters ----------------------------
  layers["simcore.events"] = static_cast<double>(world.simulator().events_processed());
  layers["simcore.slot_high_water"] = static_cast<double>(world.simulator().slot_high_water());
  double gossip_msgs = 0.0;
  double dead = 0.0;
  for (net::NodeId node = 0; node < node_count; ++node) {
    const net::NicCounters& nic = world.fabric().counters(node);
    layers["net.messages"] += static_cast<double>(nic.tx_messages);
    layers["net.bytes"] += static_cast<double>(nic.tx_bytes);
    const cluster::InfoDaemon& infod = world.infod(node);
    // Pings sent plus acks received ~= the daemon's sends (every received
    // ping is answered by one ack).
    gossip_msgs += static_cast<double>(infod.pings_sent() + infod.acks_received());
    layers["cluster.digest_entries"] += static_cast<double>(infod.digest_entries_sent());
    dead += static_cast<double>(infod.dead_peers());
  }
  const double periods = out.makespan_s / world.infod_period().sec();
  layers["cluster.gossip_msgs_per_node_period"] =
      periods > 0.0 ? gossip_msgs / static_cast<double>(node_count) / periods : 0.0;
  layers["cluster.dead_detected"] = dead;
  if (dead > 0.0) {
    pass.failures.push_back(std::string{shape.name} + ": nodes declared dead without faults");
  }
  layers["balancer.ticks"] = static_cast<double>(balancer.ticks());
  layers["balancer.decisions"] = static_cast<double>(balancer.decisions());
  layers["balancer.intra_zone_moves"] = static_cast<double>(balancer.intra_zone_moves());
  layers["balancer.cross_zone_moves"] = static_cast<double>(balancer.cross_zone_moves());

  if (options.traced) {
    add_trace_layers(layers, *recorder, /*fabric_hidden=*/false);
    layers["workload.next_s"] = clock.total_s();
    layers["workload.next_ns"] = clock.ns_per_call();
    layers["verify.checks"] = static_cast<double>(auditor->checks_run());
    layers["verify.violations"] = static_cast<double>(auditor->violations());
    if (auditor->violations() > 0) {
      pass.report.push_back(std::string{shape.name} + ": auditor reported " +
                            std::to_string(auditor->violations()) +
                            " violations (not fatal); first: " + auditor->first_violation());
    }
  }
  return pass;
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names{"paper_hpcc", kGossip10k.name, kHpccDense.name};
  return names;
}

Pass run_workload(const std::string& workload, std::uint64_t seed, const PassOptions& options) {
  if (workload == "paper_hpcc") {
    return run_paper(seed, options);
  }
  if (workload == kGossip10k.name) {
    return run_cluster(kGossip10k, seed, 0, options);
  }
  if (workload == kHpccDense.name) {
    return run_cluster(kHpccDense, seed, 0, options);
  }
  throw std::invalid_argument("unknown workload: " + workload);
}

double run_noprefetch_twin_s(const std::string& workload, std::uint64_t seed) {
  const ClusterShape& shape = workload == kGossip10k.name ? kGossip10k : kHpccDense;
  const Pass pass = run_cluster(shape, seed, 0, PassOptions{}, driver::Scheme::NoPrefetch);
  return pass.worlds.front().run_s;
}

Pass run_gossip_10k_partitioned(std::uint64_t seed, std::uint32_t workers) {
  return run_cluster(kGossip10k, seed, workers, PassOptions{});
}

double run_gossip_10k_idle(std::uint64_t seed, double horizon_s) {
  const driver::Scenario scenario = cluster_scenario(kGossip10k, seed, 0);
  balancer::ClusterSim world{scenario};
  const Clock::time_point begin = Clock::now();
  world.simulator().run_until(sim::Time::from_sec(horizon_s));
  return seconds_since(begin);
}

Pass run_small_zoned(std::uint64_t seed, std::uint32_t workers, bool traced) {
  PassOptions options;
  options.traced = traced;
  return run_cluster(kSmallZoned, seed, workers, options);
}

PaperPoint run_paper_dgemm_ampom(std::uint64_t seed) {
  const driver::Scenario scenario =
      paper_builder(kPaperKernels[0], driver::Scheme::Ampom, seed, nullptr).build();
  const driver::RunMetrics m = driver::Runner{}.run(scenario);
  return {m.freeze_time.ms(), m.total_time.sec()};
}

}  // namespace perfbench
