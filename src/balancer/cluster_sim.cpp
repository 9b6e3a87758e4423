#include "balancer/cluster_sim.hpp"

#include <algorithm>
#include <stdexcept>

#include "migration/checkpoint.hpp"
#include "migration/lightweight.hpp"
#include "migration/precopy.hpp"
#include "trace/trace.hpp"

namespace ampom::balancer {

// ---------------------------------------------------------------------------
// ProcessHost
// ---------------------------------------------------------------------------

ProcessHost::ProcessHost(ClusterSim& world, std::uint64_t pid, JobSpec spec)
    : world_{world},
      pid_{pid},
      spec_{std::move(spec)},
      process_{pid, spec_.make_workload(), spec_.home},
      executor_{world.simulator(), process_, world.profile().costs},
      ledger_{process_.aspace().page_count(), spec_.home},
      deputy_{world.simulator(), world.fabric(), world.profile().wire, world.profile().costs,
              spec_.home,        pid,            process_.aspace().page_count(), &ledger_} {
  process_.aspace().populate_all_dirty();
  world_.node(spec_.home).set_deputy(pid_, &deputy_);
  deputy_.set_trace(world_.trace_);
  deputy_.set_reliable(world.reliable());
  if (world_.ram_limit_pages_ > 0) {
    executor_.set_ram_limit_pages(world_.ram_limit_pages_);
  }
  // Keep the world's per-node load counts exact: every placement change
  // (migration commit, rehoming) goes through set_current_node.
  process_.set_on_node_changed([this](net::NodeId from, net::NodeId to) {
    if (started_ && !finished()) {
      world_.note_moved(*this, from, to);
    }
  });
  // Time-sharing: the processes on a node split what its background load
  // leaves of the CPU equally.
  executor_.set_cpu_share_source([this] {
    const net::NodeId node = process_.current_node();
    const auto sharers = world_.active_on(node);
    return world_.node(node).cpu_share() /
           static_cast<double>(std::max<std::uint64_t>(1, sharers));
  });
  if (world_.short_bursts_) {
    executor_.set_max_burst(sim::Time::from_ms(5));  // responsive rebalancing
  }
  executor_.set_on_finished([this] { world_.note_finished(*this); });
}

void ProcessHost::start() {
  started_ = true;
  world_.note_activated(*this, process_.current_node());
  executor_.start();
  if (world_.observer_ != nullptr) {
    world_.observer_->on_started(*this);
  }
}

const proc::PagingClientStats* ProcessHost::paging_stats(net::NodeId node) const {
  const auto it = stacks_.find(node);
  if (it == stacks_.end() || it->second.client == nullptr) {
    return nullptr;
  }
  return &it->second.client->stats();
}

const proc::PagingClient* ProcessHost::paging_client(net::NodeId node) const {
  const auto it = stacks_.find(node);
  return it == stacks_.end() ? nullptr : it->second.client.get();
}

const core::AmpomPolicy* ProcessHost::ampom_policy(net::NodeId node) const {
  const auto it = stacks_.find(node);
  return it == stacks_.end() ? nullptr : it->second.ampom.get();
}

void ProcessHost::on_host_crashed(net::NodeId node) {
  stranded_ = true;
  executor_.crash_interrupt();
  const auto it = stacks_.find(node);
  if (it != stacks_.end() && it->second.client != nullptr) {
    it->second.client->cancel_outstanding();
  }
}

void ProcessHost::recover_to_home() {
  if (!started_ || finished() || migrating_ || current_node() == home_node()) {
    return;
  }
  const net::NodeId lost = process_.current_node();
  // Belt and braces: normally on_host_crashed already ran when the node
  // died, but recover_to_home is also callable directly (both are
  // idempotent).
  on_host_crashed(lost);
  deputy_.recover_pages_from(lost);
  process_.aspace().recover_all_local();
  process_.set_current_node(spec_.home);
  executor_.set_policy(nullptr);  // every page is Local at home again
  executor_.set_syscall_transport({});  // system calls run locally at home
  executor_.resume_migrated(world_.profile().costs);
  stranded_ = false;
  ++recoveries_;
  world_.note_rehomed(*this, lost);
}

void ProcessHost::activate_stack(net::NodeId node) {
  auto it = stacks_.find(node);
  if (it == stacks_.end()) {
    PagingStack stack;
    stack.client = std::make_unique<proc::PagingClient>(
        world_.simulator(), world_.fabric(), world_.profile().wire, node, spec_.home, pid_);
    stack.client->set_trace(world_.trace_);
    if (world_.reliable()) {
      stack.client->set_reliable(true);
      cluster::InfoDaemon& daemon = world_.infod(node);
      stack.client->set_rtt_provider(
          [&daemon, home = spec_.home] { return daemon.rtt_one_way(home); });
    }
    switch (world_.scheme()) {
      case driver::Scheme::NoPrefetch:
        stack.demand = std::make_unique<proc::DemandPagingPolicy>(world_.simulator(), executor_,
                                                                  *stack.client);
        break;
      case driver::Scheme::Ampom: {
        cluster::InfoDaemon& daemon = world_.infod(node);
        cluster::Node& host_node = world_.node(node);
        stack.ampom = std::make_unique<core::AmpomPolicy>(
            world_.simulator(), executor_, *stack.client, world_.ampom_config(),
            [&daemon, &host_node, home = spec_.home, wire = world_.profile().wire] {
              core::ResourceEstimates est;
              est.rtt_one_way = daemon.rtt_one_way(home);
              est.page_transfer =
                  daemon.available_bandwidth().transfer_time(wire.page_message_bytes());
              est.expected_cpu_share = host_node.cpu_share();
              return est;
            });
        if (world_.ampom_trace_) {
          stack.ampom->set_trace(world_.ampom_trace_);
        }
        break;
      }
      default:
        break;  // openMosix / PreCopy / Checkpoint: no remote paging
    }
    it = stacks_.emplace(node, std::move(stack)).first;
  }

  PagingStack& stack = it->second;
  if (stack.client == nullptr) {
    return;
  }
  world_.node(node).set_paging_client(pid_, stack.client.get());
  if (stack.demand != nullptr) {
    executor_.set_policy(stack.demand.get());
    stack.client->set_arrival_handler([policy = stack.demand.get()](mem::PageId p, bool urgent) {
      policy->on_arrival(p, urgent);
    });
  } else if (stack.ampom != nullptr) {
    executor_.set_policy(stack.ampom.get());
    stack.client->set_arrival_handler([policy = stack.ampom.get()](mem::PageId p, bool urgent) {
      policy->on_arrival(p, urgent);
    });
  }
  if (world_.home_dependency_) {
    // openMosix home dependency: system calls run at the home node.
    world_.node(node).set_syscall_executor(pid_, &executor_);
    executor_.set_syscall_transport(
        [&fabric = world_.fabric(), wire = world_.profile().wire, node, home = spec_.home,
         pid = pid_](std::uint64_t seq) {
          fabric.send(net::Message{node, home, wire.control_message, net::SyscallRequest{pid, seq}});
        });
  }
}

bool ProcessHost::migrate_to(net::NodeId dst,
                             std::function<void(const migration::MigrationResult&)> on_done) {
  const net::NodeId src = process_.current_node();
  if (!migratable() || dst == src || dst >= world_.node_count()) {
    return false;
  }
  if (dst == process_.home_node()) {
    // The engines model H->B first hops and B->C re-migrations, not live
    // B->H returns (a paging stack at home would page from itself). Going
    // home is the recovery path (recover_to_home), not a balancer move.
    return false;
  }
  const bool reliable = world_.reliable();
  if (world_.node_crashed(dst) && !reliable) {
    // The classic fire-and-forget engines would "complete" into a dead node;
    // without the ack'd protocol to detect that, refuse the move instead.
    return false;
  }
  if (world_.scheme() == driver::Scheme::Checkpoint) {
    // The last node is the file server: the checkpoint engine cannot write
    // an image to (or restore one from) the node that stores it.
    const auto file_server = static_cast<net::NodeId>(world_.node_count() - 1);
    if (src == file_server || dst == file_server) {
      return false;
    }
  }
  migrating_ = true;
  world_.note_migration_started(src, dst);
  const bool first_hop = src == process_.home_node();
  migration::MigrationEngine& engine =
      first_hop ? world_.first_hop_engine() : world_.second_hop_engine();

  migration::MigrationContext ctx{world_.simulator(),
                                  world_.fabric(),
                                  world_.profile().wire,
                                  process_,
                                  executor_,
                                  deputy_,
                                  src,
                                  dst,
                                  world_.profile().costs,
                                  world_.profile().costs,
                                  &ledger_,
                                  [this, dst] { activate_stack(dst); },
                                  /*src_node=*/nullptr,
                                  /*dst_node=*/nullptr,
                                  world_.mutate_skip_abort_rollback_};
  if (reliable) {
    ctx.src_node = &world_.node(src);
    ctx.dst_node = &world_.node(dst);
  }
  ctx.trace = world_.trace_;
  migration::migrate_process(std::move(ctx), engine,
                             [this, src, dst, on_done = std::move(on_done)](
                                 migration::MigrationResult result) {
                               migrating_ = false;
                               world_.note_migration_ended(src, dst);
                               if (result.completed()) {
                                 ++migrations_;
                                 // Cold caches at the destination: charge the CPMD
                                 // warm-up before the first resumed burst runs (a
                                 // no-op while the cache model is off).
                                 world_.charge_warmup(*this, dst);
                                 if (world_.node_crashed(process_.current_node())) {
                                   // The destination died while the final acks were
                                   // in flight: the commit is legitimate (every chunk
                                   // was acknowledged) but the image landed on a dead
                                   // node and nobody there will thaw it. Freeze it
                                   // now; the balancer re-homes it like any other
                                   // stranded migrant.
                                   on_host_crashed(process_.current_node());
                                 }
                               } else {
                                 ++failed_migrations_;
                               }
                               freeze_total_ += result.freeze_time();
                               if (world_.observer_ != nullptr) {
                                 if (result.completed()) {
                                   world_.observer_->on_migration_committed(*this, src, dst);
                                 } else {
                                   world_.observer_->on_migration_aborted(*this, src, dst);
                                 }
                               }
                               if (on_done) {
                                 on_done(result);
                               }
                             });
  return true;
}

// ---------------------------------------------------------------------------
// ClusterSim
// ---------------------------------------------------------------------------

namespace {

// The world a scenario describes. Without a topology it is the paper's
// testbed: home and destination, plus a third node when it has a role —
// re-migration target, background-traffic source or checkpoint file server.
cluster::Topology world_topology(const driver::Scenario& scenario) {
  if (scenario.topology.set()) {
    return scenario.topology;
  }
  const bool third_node = scenario.remigrate_after > sim::Time::zero() ||
                          scenario.background_traffic > 0.0 ||
                          scenario.scheme == driver::Scheme::Checkpoint;
  return cluster::Topology::flat(third_node ? 3 : 2);
}

driver::Scenario flat_scenario(std::size_t node_count, driver::Scheme scheme,
                               const driver::ClusterProfile& profile,
                               const core::AmpomConfig& ampom) {
  driver::Scenario scenario;
  scenario.scheme = scheme;
  scenario.profile = profile;
  scenario.ampom = ampom;
  scenario.topology = cluster::Topology::flat(node_count);
  return scenario;
}

}  // namespace

ClusterSim::ClusterSim(std::size_t node_count, driver::Scheme scheme,
                       driver::ClusterProfile profile, core::AmpomConfig ampom)
    : ClusterSim{flat_scenario(node_count, scheme, profile, ampom)} {}

ClusterSim::ClusterSim(const driver::Scenario& scenario)
    : scheme_{scenario.scheme},
      profile_{scenario.profile},
      ampom_{scenario.ampom},
      ampom_trace_{scenario.ampom_trace},
      topology_{world_topology(scenario)},
      gossip_{scenario.gossip},
      ram_limit_pages_{scenario.ram_limit_pages},
      home_dependency_{scenario.home_dependency},
      // Cluster worlds cap bursts at 5 ms so a balancer's freeze request
      // lands promptly; the paper's testbed keeps the executor's 20 ms.
      short_bursts_{scenario.topology.set()},
      fabric_{sim_, topology_.node_count(), scenario.profile.link} {
  const std::size_t node_count = topology_.node_count();
  if (node_count < 2) {
    throw std::invalid_argument("ClusterSim needs at least two nodes");
  }
  if (scenario.background_traffic > 0.0 && node_count < 3) {
    throw std::invalid_argument("ClusterSim: background traffic needs a third node as its source");
  }
  if (scenario.scheme == driver::Scheme::Checkpoint && node_count < 3) {
    throw std::invalid_argument("ClusterSim: checkpoint needs a third node as its file server");
  }
  if (scenario.shaped_link) {
    fabric_.set_link(0, 1, *scenario.shaped_link);
  }
  // Intra-run parallelism: partition the event queue by zone before anything
  // schedules an event. The zone is the natural partition — gossip, voting
  // and the balancer's local tier all stay zone-internal — and the default
  // link latency is the minimum cross-zone propagation delay, i.e. the
  // conservative lookahead bound. A single-zone world has nothing to run in
  // parallel and silently keeps the serial engine.
  if (scenario.workers >= 1 && topology_.zones >= 2) {
    sim::Simulator::PartitionPlan plan;
    plan.partitions = topology_.zones;
    plan.node_partition.resize(node_count);
    for (std::size_t i = 0; i < node_count; ++i) {
      plan.node_partition[i] = topology_.zone_of(static_cast<net::NodeId>(i)) + 1;
    }
    plan.lookahead = profile_.link.latency;
    sim_.configure_partitions(std::move(plan), static_cast<std::uint32_t>(scenario.workers));
  }
  // Cache/NUMA model (DESIGN.md §17): built before the daemons so their
  // cache-pressure sources can read it. The digest upgrade rides on the
  // existing gossip config — when both are on, every daemon ships the
  // 32-byte cache-format entries.
  if (scenario.hierarchy.enabled) {
    hierarchy_ = std::make_unique<mem::MemoryHierarchy>(scenario.hierarchy, node_count);
    cpmd_ = scenario.cpmd_calibration.empty()
                ? migration::CpmdTable::builtin()
                : migration::CpmdTable::load_file(scenario.cpmd_calibration);
    if (gossip_.enabled) {
      gossip_.cache_digest = true;
    }
  }
  crashed_at_.resize(node_count);
  active_count_.assign(node_count, 0);
  hosts_on_.resize(node_count);
  zone_active_.assign(topology_.zones, 0);
  migrating_zone_.assign(topology_.zones, 0);
  nodes_.reserve(node_count);
  infods_.reserve(node_count);
  for (std::size_t i = 0; i < node_count; ++i) {
    const auto id = static_cast<net::NodeId>(i);
    nodes_.push_back(std::make_unique<cluster::Node>(sim_, fabric_, id, profile_.costs));
    infods_.push_back(
        std::make_unique<cluster::InfoDaemon>(sim_, fabric_, id, profile_.infod_period));
  }
  // The gossip domain is the zone: each daemon's membership is its zone's
  // other nodes, so per-daemon state is O(zone size) and a 10k-node world
  // stays linear in memory instead of quadratic. Single-zone worlds get the
  // classic everyone-knows-everyone mesh.
  for (std::size_t i = 0; i < node_count; ++i) {
    const auto id = static_cast<net::NodeId>(i);
    const std::uint32_t zone = topology_.zone_of(id);
    for (net::NodeId j = topology_.zone_begin(zone); j < topology_.zone_end(zone); ++j) {
      if (j != id) {
        infods_[i]->add_peer(j);
      }
    }
    if (gossip_.enabled) {
      infods_[i]->set_gossip(gossip_);
    }
    infods_[i]->set_local_load_source(
        [this, id] { return static_cast<double>(active_on(id)); });
    if (hierarchy_ != nullptr) {
      infods_[i]->set_local_cache_pressure_source([this, id] { return cache_pressure(id); });
    }
    nodes_[i]->set_infod(infods_[i].get());
    infods_[i]->start();
  }
  nodes_[1]->set_background_load(scenario.dest_background_load);

  switch (scheme_) {
    case driver::Scheme::OpenMosix:
      first_hop_ = std::make_unique<migration::FullCopyEngine>();
      break;
    case driver::Scheme::NoPrefetch:
      first_hop_ = std::make_unique<migration::ThreePageEngine>();
      remigrate_ = std::make_unique<migration::RemigrationEngine>(
          migration::RemigrationEngine::Config{/*ship_mpt=*/false});
      break;
    case driver::Scheme::Ampom:
      first_hop_ = std::make_unique<migration::AmpomEngine>();
      remigrate_ = std::make_unique<migration::RemigrationEngine>(
          migration::RemigrationEngine::Config{/*ship_mpt=*/true});
      break;
    case driver::Scheme::PreCopy:
      first_hop_ = std::make_unique<migration::PreCopyEngine>();
      break;
    case driver::Scheme::Checkpoint:
      // The last node is the file server.
      first_hop_ = std::make_unique<migration::CheckpointRestartEngine>(
          migration::CheckpointRestartEngine::Config{static_cast<net::NodeId>(node_count - 1)});
      break;
  }

  set_reliable(scenario.reliable);
  if (scenario.faults.active()) {
    set_fault_plan(scenario.faults);
  }
  if (scenario.background_traffic > 0.0) {
    // The third node floods the destination's link.
    background_ = std::make_unique<net::BackgroundTraffic>(sim_, fabric_, 2, 1,
                                                           scenario.background_traffic);
    background_->start();
  }
}

void ClusterSim::set_fault_plan(const driver::FaultPlan& plan) {
  if (injector_ == nullptr) {
    injector_ = std::make_unique<net::FaultInjector>(sim_, plan.seed);
    if (sim_.partitioned()) {
      // Partitions decide message fates concurrently: switch the injector to
      // per-message keyed draws (fate = f(seed, src, dst, send index)) and
      // per-partition stat shards so no RNG or counter is shared.
      injector_->enable_keyed_mode(node_count(), sim_.partitions());
    }
    fabric_.set_fault_injector(injector_.get());
  }
  plan.apply_faults(*injector_);
  const auto schedule_crash = [this](net::NodeId node, sim::Time at, sim::Time restore_at) {
    sim_.schedule_at(at, [this, node] { crash_node(node); });
    last_fault_at_ = std::max(last_fault_at_, at);
    if (restore_at > sim::Time::zero()) {
      sim_.schedule_at(restore_at, [this, node] { restore_node(node); });
      last_fault_at_ = std::max(last_fault_at_, restore_at);
    }
  };
  for (const auto& crash : plan.crashes) {
    schedule_crash(crash.node, crash.at, crash.restore_at);
  }
  for (const auto& outage : plan.outages) {
    last_fault_at_ = std::max({last_fault_at_, outage.down_at, outage.up_at});
  }

  if (plan.chaos.active()) {
    // Campaigns expand to the same primitives the plan carries explicitly:
    // outages feed the injector directly, crashes go through crash_node so
    // the processes on dying nodes are interrupted too.
    const cluster::ExpandedChaos expanded = cluster::expand_chaos(plan.chaos, topology_);
    for (const auto& outage : expanded.outages) {
      injector_->schedule_link_outage(outage.a, outage.b, outage.down_at, outage.up_at);
    }
    for (const auto& crash : expanded.crashes) {
      schedule_crash(crash.node, crash.at, crash.restore_at);
    }
    last_fault_at_ = std::max(last_fault_at_, expanded.last_fault_at);
    if (recovery_tracking_) {
      sim::Time last_mark = sim::Time::zero();
      for (const sim::Time mark : expanded.heal_marks) {
        if (mark == last_mark) {
          continue;  // heal_marks is sorted; watch each instant once
        }
        last_mark = mark;
        sim_.schedule_at(mark, [this, mark] { poll_heal(mark); });
      }
    }
  }
}

void ClusterSim::set_reliable(bool enabled) {
  reliable_ = enabled;
  for (auto& infod : infods_) {
    infod->set_failure_detection(enabled);
  }
  // Hosts spawned before this call still get their paging stacks lazily, so
  // only the deputy flag needs back-filling.
  for (auto& host : hosts_) {
    host->deputy_.set_reliable(enabled);
  }
}

void ClusterSim::set_trace(trace::TraceRecorder* recorder) {
  trace_ = recorder;
  fabric_.set_trace(recorder);
  for (auto& host : hosts_) {
    host->deputy_.set_trace(recorder);
    for (auto& [node, stack] : host->stacks_) {
      stack.client->set_trace(recorder);
    }
  }
  if (recorder != nullptr && sim_.partitioned()) {
    // Partitions record concurrently into per-partition shards; the recorder
    // merges them deterministically (by timestamp, then partition) on read.
    recorder->enable_partition_shards(sim_.partitions());
  }
}

void ClusterSim::crash_node(net::NodeId id) {
  if (id >= node_count()) {
    throw std::invalid_argument("ClusterSim::crash_node: node out of range");
  }
  if (injector_ == nullptr) {
    // No fault plan installed: a zero-fault injector is exactly transparent,
    // so composing one in just for the crash flags is safe.
    injector_ = std::make_unique<net::FaultInjector>(sim_, /*seed=*/1);
    if (sim_.partitioned()) {
      injector_->enable_keyed_mode(node_count(), sim_.partitions());
    }
    fabric_.set_fault_injector(injector_.get());
  }
  injector_->crash_node(id);
  for (ProcessHost* host : hosts_on_[id]) {
    if (!host->migrating()) {
      host->on_host_crashed(id);
    }
  }
  last_fault_at_ = std::max(last_fault_at_, sim_.now());
  if (recovery_tracking_) {
    ++recovery_.crashes;
    crashed_at_[id] = CrashStamp{sim_.now(), true};
    if (reliable_) {
      poll_detection(id, sim_.now());
    }
  }
  if (observer_ != nullptr) {
    observer_->on_node_crashed(id);
  }
}

void ClusterSim::restore_node(net::NodeId id) {
  if (injector_ != nullptr) {
    injector_->restore_node(id);
  }
  // The restored node boots fresh: its failure detector must not judge
  // peers by pre-crash timestamps, or two restored nodes can outvote the
  // survivors and condemn a live migrant's host.
  if (id < infods_.size() && infods_[id] != nullptr) {
    infods_[id]->note_rebooted();
  }
  last_fault_at_ = std::max(last_fault_at_, sim_.now());
  if (observer_ != nullptr) {
    observer_->on_node_restored(id);
  }
}

bool ClusterSim::node_crashed(net::NodeId id) const {
  return injector_ != nullptr && injector_->node_crashed(id);
}

cluster::PeerHealth ClusterSim::consensus_health(net::NodeId id) const {
  if (!reliable_ || id >= node_count()) {
    return cluster::PeerHealth::kAlive;
  }
  std::size_t dead = 0;
  std::size_t suspected = 0;
  std::size_t voters = 0;
  // Voters are the target's zone — the nodes whose daemons actually
  // exchange heartbeats with it. Single-zone worlds vote cluster-wide,
  // exactly the pre-zoning behavior.
  const std::uint32_t zone = topology_.zone_of(id);
  for (net::NodeId observer = topology_.zone_begin(zone);
       observer < topology_.zone_end(zone); ++observer) {
    if (observer == id) {
      continue;
    }
    // A crashed peer answers no poll, so its verdict cannot count. Without
    // this, a half-dead cluster condemns its own survivors: crashed
    // observers hear nobody, vote everyone dead, and a majority of them
    // gets a live migrant's host declared kDead — and the migrant
    // "reclaimed" while it is still running there.
    if (node_crashed(observer)) {
      continue;
    }
    ++voters;
    switch (infods_[observer]->peer_health(id)) {
      case cluster::PeerHealth::kDead:
        ++dead;
        break;
      case cluster::PeerHealth::kSuspected:
        ++suspected;
        break;
      case cluster::PeerHealth::kAlive:
        break;
    }
  }
  if (dead * 2 > voters) {
    return cluster::PeerHealth::kDead;
  }
  if ((dead + suspected) * 2 > voters) {
    return cluster::PeerHealth::kSuspected;
  }
  return cluster::PeerHealth::kAlive;
}

migration::MigrationEngine& ClusterSim::second_hop_engine() {
  if (remigrate_ != nullptr) {
    return *remigrate_;
  }
  // Pre-copy re-migrates with its own mechanism. A checkpoint's file server
  // may be the next destination, so it re-migrates by full copy, as
  // openMosix does.
  return scheme_ == driver::Scheme::PreCopy ? *first_hop_ : full_copy_;
}

ProcessHost& ClusterSim::spawn(JobSpec spec) {
  if (spec.home >= node_count()) {
    throw std::invalid_argument("ClusterSim::spawn: home node out of range");
  }
  if (!spec.make_workload) {
    throw std::invalid_argument("ClusterSim::spawn: job has no workload factory");
  }
  const auto pid = static_cast<std::uint64_t>(hosts_.size() + 1);
  hosts_.push_back(std::make_unique<ProcessHost>(*this, pid, std::move(spec)));
  ProcessHost* host = hosts_.back().get();
  // The start event belongs to the home node's partition: from there the
  // executor's burst chain stays partition-local until a migration commits.
  sim_.schedule_on_node(host->spec_.home, host->spec_.start, [host] { host->start(); });
  return *host;
}

void ClusterSim::note_activated(ProcessHost& host, net::NodeId node) {
  ++active_count_[node];
  ++zone_active_[topology_.zone_of(node)];
  auto& list = hosts_on_[node];
  const auto pos = std::lower_bound(list.begin(), list.end(), &host,
                                    [](const ProcessHost* a, const ProcessHost* b) {
                                      return a->pid() < b->pid();
                                    });
  list.insert(pos, &host);
  if (hierarchy_ != nullptr) {
    hierarchy_->place(node, host.pid(), host.wss_bytes());
  }
}

void ClusterSim::note_deactivated(ProcessHost& host, net::NodeId node) {
  --active_count_[node];
  --zone_active_[topology_.zone_of(node)];
  auto& list = hosts_on_[node];
  list.erase(std::find(list.begin(), list.end(), &host));
  if (hierarchy_ != nullptr) {
    hierarchy_->remove(node, host.pid());
  }
}

void ClusterSim::charge_warmup(ProcessHost& host, net::NodeId dst) {
  if (hierarchy_ == nullptr) {
    return;
  }
  const sim::Time carried = host.executor_.warmup_balance();
  sim::Time charged = sim::Time::zero();
  if (carried == sim::Time::zero()) {
    // Displacement cost of landing here: the calibration-curve delay for
    // this working set, inflated by the LLC pressure of the processes
    // already resident (the migrant itself was placed by note_moved just
    // before this runs, so it must not count against itself).
    const sim::Time base = cpmd_.warmup_delay(host.wss_bytes());
    charged = base.scaled(1.0 + hierarchy_->pressure_excluding(dst, host.pid()));
    host.executor_.add_warmup_charge(charged);
  }
  // else: remigrated before the previous warm-up was fully paid — the
  // outstanding balance carries as-is; adding a fresh full charge would
  // bill the same cold cache twice (remigration_test pins this).
  if (trace_ != nullptr) {
    trace_->instant(trace::Category::kSched, "warmup", sim_.now(), dst, host.pid(),
                    static_cast<std::uint64_t>(charged.us()),
                    static_cast<std::uint64_t>(carried.us()));
  }
}

void ClusterSim::note_moved(ProcessHost& host, net::NodeId from, net::NodeId to) {
  note_deactivated(host, from);
  note_activated(host, to);
}

void ClusterSim::note_migration_started(net::NodeId src, net::NodeId dst) {
  ++migrating_total_;
  const std::uint32_t src_zone = topology_.zone_of(src);
  const std::uint32_t dst_zone = topology_.zone_of(dst);
  ++migrating_zone_[src_zone];
  if (dst_zone != src_zone) {
    ++migrating_zone_[dst_zone];
  }
}

void ClusterSim::note_migration_ended(net::NodeId src, net::NodeId dst) {
  --migrating_total_;
  const std::uint32_t src_zone = topology_.zone_of(src);
  const std::uint32_t dst_zone = topology_.zone_of(dst);
  --migrating_zone_[src_zone];
  if (dst_zone != src_zone) {
    --migrating_zone_[dst_zone];
  }
}

void ClusterSim::note_finished(ProcessHost& host) {
  note_deactivated(host, host.current_node());
  // Partitioned runs finish processes concurrently across windows; the
  // atomic increment makes exactly one caller observe the final count.
  const std::size_t done = finished_.fetch_add(1, std::memory_order_acq_rel) + 1;
  if (observer_ != nullptr) {
    observer_->on_finished(host);
  }
  if (done == hosts_.size()) {
    if (observer_ != nullptr && !run_end_notified_) {
      run_end_notified_ = true;
      observer_->on_run_end();
    }
    sim_.halt();
  }
}

void ClusterSim::note_rehomed(ProcessHost& host, net::NodeId lost) {
  if (recovery_tracking_) {
    ++recovery_.rehomes;
    if (crashed_at_[lost].valid) {
      recovery_.rehome_ms.add((sim_.now() - crashed_at_[lost].at).ms());
    }
  }
  if (observer_ != nullptr) {
    observer_->on_rehomed(host);
  }
}

void ClusterSim::poll_detection(net::NodeId id, sim::Time crashed_at) {
  if (!crashed_at_[id].valid || crashed_at_[id].at != crashed_at) {
    return;  // superseded by a restore + re-crash; the newer watch owns it
  }
  if (!node_crashed(id)) {
    return;  // restored before the survivors agreed it was dead
  }
  if (consensus_health(id) == cluster::PeerHealth::kDead) {
    recovery_.detect_ms.add((sim_.now() - crashed_at).ms());
    return;
  }
  sim_.schedule_after(infod_period(),
                      [this, id, crashed_at] { poll_detection(id, crashed_at); });
}

void ClusterSim::poll_heal(sim::Time mark) {
  if (survivor_views_converged()) {
    ++recovery_.heals;
    recovery_.heal_ms.add((sim_.now() - mark).ms());
    return;
  }
  sim_.schedule_after(infod_period(), [this, mark] { poll_heal(mark); });
}

bool ClusterSim::survivor_views_converged() const {
  if (!reliable_) {
    return true;  // no views to converge
  }
  // Views only exist inside a zone (that is the gossip domain), so
  // convergence is judged per zone; single-zone worlds check all pairs.
  for (net::NodeId viewer = 0; viewer < node_count(); ++viewer) {
    if (node_crashed(viewer)) {
      continue;
    }
    const std::uint32_t zone = topology_.zone_of(viewer);
    for (net::NodeId target = topology_.zone_begin(zone);
         target < topology_.zone_end(zone); ++target) {
      if (viewer == target || node_crashed(target)) {
        continue;
      }
      if (infods_[viewer]->peer_health(target) != cluster::PeerHealth::kAlive) {
        return false;
      }
    }
  }
  return true;
}

void ClusterSim::fill_recovery_metrics(driver::RunMetrics& metrics) const {
  metrics.crashes_injected = recovery_.crashes;
  metrics.migrants_rehomed = recovery_.rehomes;
  metrics.heals_observed = recovery_.heals;
  if (!recovery_.detect_ms.empty()) {
    metrics.detect_p50_ms = recovery_.detect_ms.percentile(0.5);
    metrics.detect_p95_ms = recovery_.detect_ms.percentile(0.95);
  }
  if (!recovery_.rehome_ms.empty()) {
    metrics.rehome_p50_ms = recovery_.rehome_ms.percentile(0.5);
    metrics.rehome_p95_ms = recovery_.rehome_ms.percentile(0.95);
  }
  if (!recovery_.heal_ms.empty()) {
    metrics.heal_p50_ms = recovery_.heal_ms.percentile(0.5);
    metrics.heal_p95_ms = recovery_.heal_ms.percentile(0.95);
  }
}

void ClusterSim::run() {
  if (hosts_.empty()) {
    throw std::logic_error("ClusterSim::run: no jobs spawned");
  }
  sim_.run();
  if (finished_ != hosts_.size()) {
    throw std::runtime_error("ClusterSim::run: simulation drained with unfinished processes");
  }
}

bool ClusterSim::run_until(sim::Time deadline) {
  if (hosts_.empty()) {
    throw std::logic_error("ClusterSim::run_until: no jobs spawned");
  }
  sim_.run_until(deadline);
  return finished_ == hosts_.size();
}

sim::Time ClusterSim::makespan() const {
  sim::Time latest{};
  for (const auto& host : hosts_) {
    latest = std::max(latest, host->finished_at());
  }
  return latest;
}

}  // namespace ampom::balancer
