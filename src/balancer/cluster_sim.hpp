#pragma once
// Multi-process cluster world — the system-level face of openMosix.
//
// A ClusterSim hosts K nodes, each with an InfoDaemon, and any number of
// migratable processes (ProcessHost bundles a process with its executor,
// deputy and per-node paging stacks). Processes on one node time-share its
// CPU; migrations use the engines of src/migration, choosing first-hop or
// re-migration variants automatically. The LoadBalancer (load_balancer.hpp)
// drives migrations from InfoDaemon load vectors — the §7 "scheduling
// policies that make use of AMPoM" direction. It is also the world of the
// paper's own experiments: driver::Runner spawns one job and scripts its
// hops with ProcessHost::migrate_to.

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "cluster/cluster_view.hpp"
#include "cluster/infod.hpp"
#include "cluster/node.hpp"
#include "core/ampom_policy.hpp"
#include "driver/metrics.hpp"
#include "driver/profile.hpp"
#include "driver/scenario.hpp"
#include "mem/hierarchy.hpp"
#include "mem/ledger.hpp"
#include "mem/page.hpp"
#include "migration/cpmd.hpp"
#include "migration/engine.hpp"
#include "migration/full_copy.hpp"
#include "migration/remigration.hpp"
#include "net/background_traffic.hpp"
#include "net/fault_injector.hpp"
#include "proc/demand_paging.hpp"
#include "proc/deputy.hpp"
#include "proc/executor.hpp"
#include "proc/paging_client.hpp"
#include "stats/summary.hpp"
#include "verify/observer.hpp"

namespace ampom::balancer {

struct JobSpec {
  std::function<std::unique_ptr<proc::ReferenceStream>()> make_workload;
  std::string label{"job"};
  net::NodeId home{0};
  sim::Time start{};  // absolute simulation time
};

class ClusterSim;

// One migratable process and everything it needs on every node it visits.
class ProcessHost {
 public:
  ProcessHost(ClusterSim& world, std::uint64_t pid, JobSpec spec);

  [[nodiscard]] std::uint64_t pid() const { return pid_; }
  [[nodiscard]] const std::string& label() const { return spec_.label; }
  [[nodiscard]] net::NodeId current_node() const { return process_.current_node(); }
  [[nodiscard]] net::NodeId home_node() const { return process_.home_node(); }
  [[nodiscard]] bool finished() const { return executor_.stats().finished; }
  [[nodiscard]] bool started() const { return started_; }
  [[nodiscard]] bool migrating() const { return migrating_; }
  // Eligible for a balancer-initiated move right now.
  [[nodiscard]] bool migratable() const { return started_ && !finished() && !migrating_; }
  // Frozen on a crashed node until recover_to_home runs (a balancer's job).
  [[nodiscard]] bool stranded() const { return stranded_; }

  // Move the process to `dst`; true iff the move was issued. Refused (a
  // no-op returning false) when the process is not migratable, when `dst`
  // is its home node, a crashed node without the reliable protocol, or —
  // in a Checkpoint world — when either end is the file server.
  // `on_done`, if given, receives the hop's result once it commits or
  // aborts. Mutates cross-partition placement and world load accounting.
  // ampom: global-only
  bool migrate_to(net::NodeId dst,
                  std::function<void(const migration::MigrationResult&)> on_done = {});

  // Failure recovery: the node the process runs on died. The deputy reclaims
  // every page the crashed host held (HPT/ledger reconstruction), the frozen
  // process image is re-established from the home node's copy, and the
  // executor resumes at home. A no-op when already home, finished, or
  // mid-migration.
  // ampom: global-only
  void recover_to_home();

  [[nodiscard]] const proc::ExecStats& stats() const { return executor_.stats(); }
  [[nodiscard]] std::uint64_t migrations() const { return migrations_; }
  [[nodiscard]] std::uint64_t failed_migrations() const { return failed_migrations_; }
  [[nodiscard]] std::uint64_t recoveries() const { return recoveries_; }
  [[nodiscard]] sim::Time freeze_total() const { return freeze_total_; }
  [[nodiscard]] sim::Time finished_at() const { return executor_.stats().finished_at; }
  // Working-set-size proxy the cache model charges by: the full address
  // space (every page the process can touch competes for LLC capacity).
  [[nodiscard]] sim::Bytes wss_bytes() const {
    return process_.aspace().page_count() * mem::kPageBytes;
  }
  [[nodiscard]] const mem::PageLedger& ledger() const { return ledger_; }
  [[nodiscard]] const proc::Deputy& deputy() const { return deputy_; }
  [[nodiscard]] const proc::Process& process() const { return process_; }
  [[nodiscard]] const proc::PagingClientStats* paging_stats(net::NodeId node) const;
  // The paging client this process uses when running on `node`, or null if
  // it never activated a stack there. Read-only: auditor introspection.
  [[nodiscard]] const proc::PagingClient* paging_client(net::NodeId node) const;
  // The AMPoM policy this process uses on `node`, or null (other schemes,
  // or never ran there).
  [[nodiscard]] const core::AmpomPolicy* ampom_policy(net::NodeId node) const;

 private:
  friend class ClusterSim;
  void start();  // scheduled by ClusterSim at spec_.start
  // Create (once) and activate the paging stack for `node`.
  void activate_stack(net::NodeId node);
  // The node the process currently runs on crashed: force-freeze the
  // executor and abandon in-flight page requests. Recovery follows later
  // (recover_to_home, normally triggered by the balancer's failure check).
  void on_host_crashed(net::NodeId node);

  struct PagingStack {
    std::unique_ptr<proc::PagingClient> client;
    std::unique_ptr<proc::DemandPagingPolicy> demand;
    std::unique_ptr<core::AmpomPolicy> ampom;
  };

  ClusterSim& world_;
  std::uint64_t pid_;
  JobSpec spec_;
  proc::Process process_;
  proc::Executor executor_;
  mem::PageLedger ledger_;
  proc::Deputy deputy_;
  std::map<net::NodeId, PagingStack> stacks_;
  bool started_{false};
  bool migrating_{false};
  bool stranded_{false};
  std::uint64_t migrations_{0};
  std::uint64_t failed_migrations_{0};  // aborted (e.g. destination died)
  std::uint64_t recoveries_{0};         // recover_to_home invocations
  sim::Time freeze_total_{};
};

class ClusterSim : public cluster::ClusterView {
 public:
  // Builds the world a validated Scenario describes: its topology, or the
  // paper's testbed when it names none (see world_topology in the .cpp),
  // the environment knobs (shaped home-destination link, destination CPU
  // load, background traffic into the destination), the reliable switch
  // and the fault plan. Spawn jobs, then run.
  explicit ClusterSim(const driver::Scenario& scenario);
  // Single-zone, all-pairs-mesh convenience (the pre-gossip shape): a
  // default Scenario with a flat topology of `node_count` nodes.
  ClusterSim(std::size_t node_count, driver::Scheme scheme,
             driver::ClusterProfile profile = driver::gideon300_profile(),
             core::AmpomConfig ampom = {});

  ClusterSim(const ClusterSim&) = delete;
  ClusterSim& operator=(const ClusterSim&) = delete;

  // Register a job; its process starts at spec.start.
  ProcessHost& spawn(JobSpec spec);

  // Run the world until every spawned process finished.
  void run();

  // Run until every process finished or `deadline` passes, whichever comes
  // first; true iff everything finished. InfoDaemon ticks keep the event
  // queue populated forever, so a run that livelocks (e.g. every path to a
  // process's home node permanently dead) never drains — the fuzzer uses
  // this bounded form instead of run() to turn a hang into a reportable
  // failure instead of an infinite loop.
  [[nodiscard]] bool run_until(sim::Time deadline);

  // --- faults & reliability --------------------------------------------------
  // Install a scripted fault schedule. Probabilistic faults and link outages
  // go straight to the injector; node crashes are orchestrated through
  // crash_node so the processes on the dying node are interrupted too.
  // Call before run().
  void set_fault_plan(const driver::FaultPlan& plan);
  // Switch every protocol layer to its reliable variant at once: paging
  // retransmission, ack'd migration and heartbeat failure detection. Call
  // before spawning jobs.
  void set_reliable(bool enabled);
  [[nodiscard]] bool reliable() const { return reliable_; }
  // Verification self-test: reliable migrations commit before the ack and
  // skip the abort rollback (MigrationContext::mutate_skip_abort_rollback).
  // Only the auditor's and the fuzzer's mutation runs call this.
  void mutate_skip_abort_rollback() { mutate_skip_abort_rollback_ = true; }
  [[nodiscard]] net::FaultInjector* fault_injector() { return injector_.get(); }

  // Crash `id` now: the injector suppresses all its traffic, and every
  // process running there is force-frozen with its page requests abandoned
  // (their state died with the node; the balancer re-homes them once the
  // heartbeat silence crosses the dead threshold).
  // ampom: global-only
  void crash_node(net::NodeId id);
  // ampom: global-only
  void restore_node(net::NodeId id);
  [[nodiscard]] bool node_crashed(net::NodeId id) const;

  // Zone-wide health of `id` by majority vote over its zone's other nodes'
  // heartbeat-silence verdicts (single-zone worlds: the whole cluster).
  // Crashed observers answer no poll and are excluded — they hear nobody,
  // would call everyone dead, and with enough of them a healthy node would
  // be condemned by its dead neighbours. Always kAlive while failure
  // detection is disabled.
  [[nodiscard]] cluster::PeerHealth consensus_health(net::NodeId id) const;

  // --- cluster::ClusterView (the read-side API consumers use) ---------------
  [[nodiscard]] const cluster::Topology& topology() const override { return topology_; }
  [[nodiscard]] double load(net::NodeId node) const override {
    return static_cast<double>(active_count_[node]);
  }
  [[nodiscard]] cluster::PeerHealth health(net::NodeId node) const override {
    return consensus_health(node);
  }
  [[nodiscard]] sim::Time rtt_one_way(net::NodeId from, net::NodeId to) const override {
    return infods_[from]->rtt_one_way(to);
  }
  [[nodiscard]] double zone_load(std::uint32_t zone) const override {
    return static_cast<double>(zone_active_[zone]) / topology_.nodes_per_zone;
  }
  // LLC occupancy / capacity on `node`; 0.0 when the cache model is off.
  [[nodiscard]] double cache_pressure(net::NodeId node) const override {
    return hierarchy_ == nullptr ? 0.0 : hierarchy_->cache_pressure(node);
  }
  [[nodiscard]] const cluster::ClusterView& view() const { return *this; }

  [[nodiscard]] sim::Simulator& simulator() { return sim_; }
  [[nodiscard]] net::Fabric& fabric() { return fabric_; }
  [[nodiscard]] cluster::Node& node(net::NodeId id) { return *nodes_.at(id); }
  [[nodiscard]] cluster::InfoDaemon& infod(net::NodeId id) { return *infods_.at(id); }
  [[nodiscard]] std::size_t node_count() const { return nodes_.size(); }
  [[nodiscard]] driver::Scheme scheme() const { return scheme_; }
  [[nodiscard]] const driver::ClusterProfile& profile() const { return profile_; }
  // Effective InfoDaemon tick period (the gossip config may override the
  // profile's) — detector settle times scale from this.
  [[nodiscard]] sim::Time infod_period() const {
    return gossip_.enabled && gossip_.period > sim::Time::zero() ? gossip_.period
                                                                 : profile_.infod_period;
  }
  [[nodiscard]] const cluster::GossipConfig& gossip_config() const { return gossip_; }
  [[nodiscard]] const core::AmpomConfig& ampom_config() const { return ampom_; }

  // --- verification & recovery observability --------------------------------
  // Register (or clear, with nullptr) the verification observer. Not owned;
  // must outlive the run. Null observer = zero overhead, bit-identical runs.
  // In a partitioned world an observer drops the worker count to one thread:
  // observer callbacks fire inside partition windows and may read state
  // across the whole world, which is only race-free single-threaded. The
  // schedule is unchanged, so the run stays bit-identical to any worker
  // count — audited runs are slower, never different. Attach before run().
  void set_observer(verify::WorldObserver* observer) {
    observer_ = observer;
    if (observer != nullptr && sim_.partitioned()) {
      sim_.set_workers(1);
    }
  }
  [[nodiscard]] verify::WorldObserver* observer() { return observer_; }

  // Observability: route fabric events (and migration phase spans) into
  // `recorder` (not owned; nullptr detaches). In a partitioned world the
  // recorder is switched to per-partition shards so worker threads never
  // share a buffer. Attach before run().
  void set_trace(trace::TraceRecorder* recorder);

  // Latest instant at which a *scheduled* fault still changes the world
  // (crash, restore, outage edge, campaign heal), maxed with any
  // crash_node/restore_node call made so far. After it + detector settle
  // time, heartbeat views must converge — the auditor's quiescence gate.
  [[nodiscard]] sim::Time last_fault_at() const { return last_fault_at_; }

  // Recovery latency tracking (off by default; enabling schedules read-only
  // poll events, so only bit-identity-indifferent runs should turn it on).
  // Call BEFORE set_fault_plan so campaign heal marks get convergence
  // watches.
  void enable_recovery_tracking() { recovery_tracking_ = true; }

  struct RecoveryStats {
    stats::Summary detect_ms;  // crash -> surviving-majority dead consensus
    stats::Summary rehome_ms;  // crash -> stranded migrant re-homed
    stats::Summary heal_ms;    // campaign heal mark -> all-alive views
    std::uint64_t crashes{0};
    std::uint64_t rehomes{0};
    std::uint64_t heals{0};
  };
  [[nodiscard]] const RecoveryStats& recovery_stats() const { return recovery_; }
  // Copies counts and p50/p95 percentiles into the RunMetrics recovery block.
  void fill_recovery_metrics(driver::RunMetrics& metrics) const;

  // Unfinished processes currently placed on `node` (the load metric).
  // O(1): maintained incrementally from process start/finish/move events.
  [[nodiscard]] std::uint64_t active_on(net::NodeId node) const {
    return active_count_[node];
  }
  [[nodiscard]] const std::vector<std::unique_ptr<ProcessHost>>& hosts() const { return hosts_; }
  // Active (started, unfinished) hosts currently placed on `node`, sorted
  // by pid — the balancer's per-node candidate list.
  [[nodiscard]] const std::vector<ProcessHost*>& hosts_on(net::NodeId node) const {
    return hosts_on_[node];
  }
  // In-flight balancer migrations (damping signals; O(1) reads).
  [[nodiscard]] std::uint32_t migrations_in_flight() const { return migrating_total_; }
  [[nodiscard]] std::uint32_t migrations_in_flight(std::uint32_t zone) const {
    return migrating_zone_[zone];
  }

  // --- cache/NUMA model (DESIGN.md §17; inert unless hierarchy.enabled) -----
  [[nodiscard]] bool cache_model_enabled() const { return hierarchy_ != nullptr; }
  [[nodiscard]] const mem::MemoryHierarchy* hierarchy() const { return hierarchy_.get(); }
  [[nodiscard]] const migration::CpmdTable& cpmd_table() const { return cpmd_; }
  // Predicted CPMD warm-up a process with working set `wss` would pay after
  // landing on `dst` now: calibration-curve delay scaled by the LLC pressure
  // already resident there. Zero when the model is off — the balancer's
  // cache-aware score degrades to the load score.
  [[nodiscard]] sim::Time predicted_warmup(sim::Bytes wss, net::NodeId dst) const {
    if (hierarchy_ == nullptr) {
      return sim::Time::zero();
    }
    return cpmd_.warmup_delay(wss).scaled(1.0 + hierarchy_->cache_pressure(dst));
  }
  // Occupancy of the emptiest NUMA domain on `node` relative to its share of
  // the LLC; 0.0 when the model is off.
  [[nodiscard]] double numa_contention(net::NodeId node) const {
    return hierarchy_ == nullptr ? 0.0 : hierarchy_->numa_contention(node);
  }

  // Engine selection shared by all hosts.
  [[nodiscard]] migration::MigrationEngine& first_hop_engine() { return *first_hop_; }
  [[nodiscard]] migration::MigrationEngine& second_hop_engine();
  // The shared re-migration engine (NoPrefetch and AMPoM only, else null):
  // its flush counters cover every re-migration of the run.
  [[nodiscard]] const migration::RemigrationEngine* remigration_engine() const {
    return remigrate_.get();
  }

  [[nodiscard]] sim::Time makespan() const;  // latest finish time

 private:
  friend class ProcessHost;
  void note_finished(ProcessHost& host);
  void note_rehomed(ProcessHost& host, net::NodeId lost);
  // Incremental load accounting (keeps active_on / zone_load / hosts_on
  // exact without scanning the host list).
  void note_activated(ProcessHost& host, net::NodeId node);
  void note_deactivated(ProcessHost& host, net::NodeId node);
  void note_moved(ProcessHost& host, net::NodeId from, net::NodeId to);
  void note_migration_started(net::NodeId src, net::NodeId dst);
  void note_migration_ended(net::NodeId src, net::NodeId dst);
  // Charge the CPMD warm-up delay to a process that just committed a
  // migration onto `dst` (no-op when the cache model is off). A process
  // remigrating before its previous warm-up is fully paid carries only the
  // outstanding balance — no fresh full charge (remigration_test pins this).
  void charge_warmup(ProcessHost& host, net::NodeId dst);
  // Recovery-tracking poll loops (read-only; scheduled only when tracking).
  void poll_detection(net::NodeId id, sim::Time crashed_at);
  void poll_heal(sim::Time mark);
  [[nodiscard]] bool survivor_views_converged() const;

  driver::Scheme scheme_;
  driver::ClusterProfile profile_;
  core::AmpomConfig ampom_;
  core::AmpomPolicy::TraceHook ampom_trace_;
  cluster::Topology topology_;
  cluster::GossipConfig gossip_;
  bool reliable_{false};
  bool mutate_skip_abort_rollback_{false};
  // Per-process knobs every ProcessHost applies (see its constructor).
  std::uint64_t ram_limit_pages_;
  bool home_dependency_;
  bool short_bursts_;
  sim::Simulator sim_;
  net::Fabric fabric_;
  std::unique_ptr<net::FaultInjector> injector_;
  std::unique_ptr<net::BackgroundTraffic> background_;
  std::vector<std::unique_ptr<cluster::Node>> nodes_;
  std::vector<std::unique_ptr<cluster::InfoDaemon>> infods_;
  std::vector<std::unique_ptr<ProcessHost>> hosts_;
  // Processes finish inside their partition's window; the counter is the
  // one piece of world accounting shared across partitions mid-window.
  std::atomic<std::size_t> finished_{0};
  verify::WorldObserver* observer_{nullptr};
  trace::TraceRecorder* trace_{nullptr};
  bool run_end_notified_{false};
  sim::Time last_fault_at_{};
  bool recovery_tracking_{false};
  RecoveryStats recovery_;
  // Most recent crash per node (dense; valid=false until the first crash).
  struct CrashStamp {
    sim::Time at{};
    bool valid{false};
  };
  std::vector<CrashStamp> crashed_at_;

  // Dense per-node/per-zone load accounting (see note_* above).
  std::vector<std::uint32_t> active_count_;
  std::vector<std::uint64_t> zone_active_;
  std::vector<std::vector<ProcessHost*>> hosts_on_;
  // Balancer damping signals, written only by the migration commit path in
  // the barrier context and read by the (global) balancer tick. Unlike the
  // per-node load counts above these are NOT partition-sharded: a partition
  // callback touching them would race with other zones' windows.
  // ampom: global-only
  std::vector<std::uint32_t> migrating_zone_;
  // ampom: global-only
  std::uint32_t migrating_total_{0};

  // Cache/NUMA model (null = off). Per-node occupancy lives inside the
  // hierarchy and is only mutated by the same note_activated/
  // note_deactivated events that maintain active_count_, so it shares the
  // partition-sharded discipline of the load counts above (and, like them,
  // carries no global-only marker: each node's slice belongs to its zone).
  std::unique_ptr<mem::MemoryHierarchy> hierarchy_;
  migration::CpmdTable cpmd_;  // immutable after construction

  std::unique_ptr<migration::MigrationEngine> first_hop_;  // scheme-specific
  std::unique_ptr<migration::RemigrationEngine> remigrate_;
  migration::FullCopyEngine full_copy_;  // re-migration for openMosix / Checkpoint
};

}  // namespace ampom::balancer
