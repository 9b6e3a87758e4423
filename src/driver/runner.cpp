#include "driver/runner.hpp"

#include <optional>
#include <stdexcept>

#include "balancer/cluster_sim.hpp"
#include "migration/engine.hpp"
#include "simcore/log.hpp"

namespace ampom::driver {

namespace {
constexpr net::NodeId kHome = 0;
constexpr net::NodeId kDest = 1;
constexpr net::NodeId kThird = 2;  // re-migration target
// The job starts once the InfoDaemons have warmed up, and its first hop
// follows right after the start.
constexpr sim::Time kWarmup = sim::Time::from_sec(1.0);
constexpr sim::Time kMigrateAfter = sim::Time::from_ms(1);
}  // namespace

RunMetrics run_experiment(const Scenario& scenario) { return Runner{}.run(scenario); }

RunMetrics detail::run_scenario(const Scenario& scenario, RunContext& run_ctx) {
  if (!scenario.make_workload) {
    throw std::invalid_argument("run_experiment: scenario has no workload factory");
  }
  const bool remigrates = scenario.remigrate_after > sim::Time::zero();
  if (remigrates && scenario.background_traffic > 0.0) {
    throw std::invalid_argument(
        "run_experiment: remigrate_after and background_traffic are mutually exclusive "
        "(the third node plays both roles)");
  }
  if (remigrates && scenario.scheme == Scheme::Checkpoint) {
    throw std::invalid_argument(
        "run_experiment: checkpoint placement uses the third node as its file server; "
        "re-migration is not supported with it");
  }
  trace::TraceRecorder& recorder = run_ctx.trace();
  sim::Logger& log = run_ctx.log();

  balancer::ClusterSim world{scenario};
  sim::Simulator& sim = world.simulator();
  if (recorder.enabled()) {
    world.set_trace(&recorder);
  }
  // The process, born at the home node with its whole image dirty (the
  // paper migrates right after allocation completes).
  balancer::JobSpec job;
  job.make_workload = scenario.make_workload;
  job.label = scenario.workload_label;
  job.home = kHome;
  job.start = kWarmup;
  balancer::ProcessHost& host = world.spawn(std::move(job));

  if (scenario.on_setup) {
    scenario.on_setup(sim, world.fabric());
  }

  std::optional<migration::MigrationResult> migration_result;
  std::optional<migration::MigrationResult> remigration_result;
  AMPOM_LOG(log, sim::LogLevel::Debug, sim.now(), "driver", "run start: %s %llu MiB, scheme %s",
            scenario.workload_label.c_str(),
            static_cast<unsigned long long>(scenario.memory_mib), scheme_name(scenario.scheme));
  sim.schedule_at(kWarmup + kMigrateAfter, [&] {
    host.migrate_to(kDest, [&](const migration::MigrationResult& r) {
      migration_result = r;
      AMPOM_LOG(log, sim::LogLevel::Info, sim.now(), "migration",
                "hop 1 %s: freeze %s, %llu pages moved", r.completed() ? "completed" : "aborted",
                r.freeze_time().str().c_str(),
                static_cast<unsigned long long>(r.pages_transferred));
      if (remigrates && r.completed()) {
        // A no-op if the process finished first: too late to re-migrate.
        sim.schedule_after(scenario.remigrate_after, [&] {
          host.migrate_to(kThird, [&](const migration::MigrationResult& r2) {
            remigration_result = r2;
            AMPOM_LOG(log, sim::LogLevel::Info, sim.now(), "migration", "hop 2 %s: freeze %s",
                      r2.completed() ? "completed" : "aborted", r2.freeze_time().str().c_str());
          });
        });
      }
    });
  });

  recorder.attach_scheduler_probe(sim);
  if (scenario.faults.active()) {
    // A crash freezes the process where it runs, and only a balancer
    // re-homes it; the daemons keep ticking meanwhile. Run in slices and
    // give up once the process is stranded.
    const sim::Time slice = sim::Time::from_sec(1.0);
    for (sim::Time until = slice; !world.run_until(until); until += slice) {
      if (host.stranded()) {
        throw std::runtime_error(
            "run_experiment: the process is stranded on a crashed node; a scripted run has no "
            "balancer to re-home it");
      }
    }
  } else {
    world.run();
  }

  const proc::ExecStats& es = host.stats();
  AMPOM_LOG(log, sim::LogLevel::Info, es.finished_at, "driver", "run finished: %s/%s, %llu refs",
            scenario.workload_label.c_str(), scheme_name(scenario.scheme),
            static_cast<unsigned long long>(es.refs_consumed));

  // --- assemble metrics -------------------------------------------------------
  RunMetrics m;
  m.workload = scenario.workload_label;
  m.scheme = scheme_name(scenario.scheme);
  m.memory_mib = scenario.memory_mib;
  m.page_count = host.process().aspace().page_count();

  m.total_time = es.finished_at - kWarmup;
  if (migration_result) {
    m.freeze_time = migration_result->freeze_time();
    m.pages_migrated = migration_result->pages_transferred;
    m.pages_resent = migration_result->pages_resent();
    m.migration_span = migration_result->migration_span();
    m.bytes_freeze = migration_result->bytes_transferred;
    m.migration_completed = migration_result->completed();
    m.migration_chunk_retransmits = migration_result->chunk_retransmits;
    m.migration_pages_retransmitted = migration_result->pages_retransmitted;
  }
  if (remigration_result) {
    m.freeze_time_2 = remigration_result->freeze_time();
    m.bytes_freeze += remigration_result->bytes_transferred;
    m.pages_resent += remigration_result->pages_resent();
    m.migration_chunk_retransmits += remigration_result->chunk_retransmits;
    m.migration_pages_retransmitted += remigration_result->pages_retransmitted;
  }
  if (const migration::RemigrationEngine* remigrate = world.remigration_engine()) {
    m.flush_retransmits = remigrate->flush_stats().retransmits;
  }
  const proc::Deputy& deputy = host.deputy();
  m.flush_pages = deputy.stats().flush_pages_received;
  m.requests_stalled_on_flush = deputy.stats().requests_stalled_on_flush;
  m.exec_time = m.total_time - m.freeze_time - m.freeze_time_2;
  m.cpu_time = es.cpu_time;
  m.stall_time = es.stall_time;
  m.handler_time = es.handler_time;
  m.hard_faults = es.hard_faults;
  m.soft_faults = es.soft_faults;
  m.inflight_waits = es.inflight_waits;
  m.first_touches = es.first_touches;
  m.refs_consumed = es.refs_consumed;
  m.syscalls_local = es.syscalls_local;
  m.syscalls_redirected = es.syscalls_redirected;
  if (!es.fault_latency_us.empty()) {
    m.fault_latency_p50_us = es.fault_latency_us.percentile(0.5);
    m.fault_latency_p95_us = es.fault_latency_us.percentile(0.95);
    m.fault_latency_max_us = es.fault_latency_us.max();
  }

  // Paging traffic is the first destination's; the reliability counters
  // cover both hops.
  if (const proc::PagingClientStats* cs = host.paging_stats(kDest)) {
    const proc::WireCosts& wire = scenario.profile.wire;
    m.remote_fault_requests = cs->fault_requests;
    m.prefetch_requests = cs->prefetch_requests;
    m.prefetch_pages_issued = cs->prefetch_pages_requested;
    m.pages_arrived = cs->pages_arrived;
    m.bytes_paging = cs->pages_arrived * wire.page_message_bytes() +
                     cs->fault_requests * wire.request_bytes(1);
  }
  for (const net::NodeId node : {kDest, kThird}) {
    if (const proc::PagingClientStats* cs = host.paging_stats(node)) {
      m.paging_retransmits += cs->retransmits;
      m.paging_timeouts += cs->timeouts;
      m.paging_duplicates_dropped += cs->duplicates_dropped;
    }
  }
  m.deputy_pages_replayed = deputy.stats().pages_replayed;
  if (const net::FaultInjector* injector = world.fault_injector()) {
    m.net_messages_dropped = injector->stats().dropped;
    m.net_messages_duplicated = injector->stats().duplicated;
    m.net_crash_drops = injector->stats().crash_drops;
  }
  m.dead_nodes_detected = world.infod(kHome).dead_peers();

  if (const core::AmpomPolicy* ampom = host.ampom_policy(kDest)) {
    m.ampom_analysis_time = ampom->stats().analysis_time;
    m.last_locality_score = ampom->stats().last_score;
    m.ampom_faults_seen = ampom->stats().faults_seen;
    m.ampom_zone_considered = ampom->stats().zone_pages_considered;
  }

  // With a second hop, pages legitimately move more than once (B -> C, and
  // flushes B -> H); the per-transfer owner checks inside PageLedger still
  // guarded every move.
  m.ledger_ok = remigrates || host.ledger().at_most_one_transfer_each();

  if (recorder.enabled()) {
    m.trace_summary = recorder.summary();
  }
  return m;
}

RunMetrics Runner::run(const Scenario& scenario) {
  RunContext::Options ctx_options;
  if (options_.log_level) {
    ctx_options.log_level = *options_.log_level;
  }
  ctx_options.capture_log = options_.capture_log;
  context_ = std::make_unique<RunContext>(scenario, ctx_options);
  for (const auto& sink : sinks_) {
    context_->add_metric_sink(sink);
  }
  RunMetrics metrics = detail::run_scenario(scenario, *context_);
  context_->notify_sinks(metrics);
  return metrics;
}

bool Runner::write_trace_json(const std::string& path) const {
  return context_ != nullptr && context_->write_trace_json(path);
}

}  // namespace ampom::driver
