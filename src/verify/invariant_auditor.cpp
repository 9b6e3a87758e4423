#include "verify/invariant_auditor.hpp"

#include <utility>

#include "simcore/fmt.hpp"

namespace ampom::verify {

namespace {

using mem::PageState;
using Loc = mem::PageTable::Loc;

const char* loc_name(Loc loc) {
  switch (loc) {
    case Loc::Absent:
      return "absent";
    case Loc::Here:
      return "here";
    case Loc::Remote:
      return "remote";
    case Loc::Incoming:
      return "incoming";
  }
  return "?";
}

}  // namespace

InvariantAuditor::InvariantAuditor(balancer::ClusterSim& world, AuditorConfig config)
    : world_{world}, config_{config} {
  world_.set_observer(this);
  if (config_.epoch > sim::Time::zero()) {
    world_.simulator().schedule_after(config_.epoch, [this] { epoch_sweep(); });
  }
}

InvariantAuditor::~InvariantAuditor() {
  if (world_.observer() == this) {
    world_.set_observer(nullptr);
  }
}

std::string InvariantAuditor::trail() const {
  std::string out;
  for (const std::string& line : trail_) {
    out += line;
    out += '\n';
  }
  return out;
}

void InvariantAuditor::record(std::string line) {
  trail_.push_back(
      sim::strfmt("[%10.3f ms] %s", world_.simulator().now().ms(), line.c_str()));
  while (trail_.size() > config_.trail_limit) {
    trail_.pop_front();
  }
}

void InvariantAuditor::violation(const std::string& message) {
  ++violations_;
  record("VIOLATION: " + message);
  if (first_violation_.empty()) {
    first_violation_ = message;
  }
  if (config_.throw_on_violation) {
    throw InvariantViolation(message + "\n--- audit trail (oldest first) ---\n" + trail());
  }
}

void InvariantAuditor::epoch_sweep() {
  ++epochs_run_;
  for (const auto& host : world_.hosts()) {
    // A process mid-migration (or not yet started) is legitimately between
    // consistent snapshots: the engines move ownership and table entries in
    // separate events. The trigger hooks audit it the instant it settles.
    if (host->started() && !host->migrating()) {
      audit_pages(*host);
    }
    audit_process(*host, /*at_run_end=*/false);
    audit_sequences(*host);
  }
  audit_convergence();
  world_.simulator().schedule_after(config_.epoch, [this] { epoch_sweep(); });
}

void InvariantAuditor::audit_pages(balancer::ProcessHost& host) {
  ++checks_run_;
  const proc::Process& process = host.process();
  const mem::AddressSpace& aspace = process.aspace();
  const mem::PageTable& hpt = host.deputy().hpt();
  const mem::PageLedger& ledger = host.ledger();
  const net::NodeId home = host.home_node();
  const net::NodeId cur = host.current_node();

  const auto fail = [&](mem::PageId page, const char* why) {
    violation(sim::strfmt(
        "I1 pid %llu page %llu: %s (owner=node %u, aspace=%s, hpt=%s, home=%u, cur=%u)",
        static_cast<unsigned long long>(host.pid()), static_cast<unsigned long long>(page), why,
        ledger.owner(page), mem::page_state_name(aspace.state(page)),
        loc_name(hpt.loc(page)), home, cur));
  };

  for (mem::PageId page = 0; page < aspace.page_count(); ++page) {
    const net::NodeId owner = ledger.owner(page);
    const PageState as = aspace.state(page);
    const Loc loc = hpt.loc(page);

    if (cur == home) {
      // At home every page is whole again: the home node owns it, the image
      // holds it (or never allocated / locally swapped it), and the HPT has
      // nothing outstanding.
      if (owner != home) {
        fail(page, "page of an at-home process owned elsewhere");
      }
      if (as != PageState::Local && as != PageState::Unallocated && as != PageState::Swapped) {
        fail(page, "at-home page in a migration state");
      }
      if (loc != Loc::Here && loc != Loc::Absent) {
        fail(page, "at-home HPT entry still points off-node");
      }
      continue;
    }

    // Migrated: exactly one of four consistent shapes per HPT entry.
    switch (loc) {
      case Loc::Here:
        // Deputy holds it: home owns it, migrant faults on it (or waits).
        if (owner != home) {
          fail(page, "deputy-held page not owned by home");
        }
        if (as != PageState::Remote && as != PageState::InFlight) {
          fail(page, "deputy-held page also materialized at the migrant");
        }
        break;
      case Loc::Remote:
        // Shipped: the migrant owns it and must have (or be receiving) it.
        if (owner != cur) {
          fail(page, "shipped page not owned by the migrant");
        }
        if (as == PageState::Remote || as == PageState::Unallocated) {
          fail(page, "shipped page lost — neither side holds a copy");
        }
        break;
      case Loc::Incoming:
        // Re-migration flush in flight back to home: the migrant must not
        // think it still has it. InFlight (the migrant requested it) is
        // accepted while the deputy holds that request queued for the flush
        // to land; a request still on its way to the deputy is not visible
        // here and is reported.
        if (as == PageState::InFlight) {
          if (!host.deputy().request_waits_on_flush(page)) {
            fail(page, "incoming-flush page in flight with no request queued at the deputy");
          }
        } else if (as != PageState::Remote) {
          fail(page, "incoming-flush page still materialized at the migrant");
        }
        break;
      case Loc::Absent:
        // Created on touch (MPT-only update, §2.2) or never allocated:
        // ownership never left home.
        if (owner != home) {
          fail(page, "HPT-absent page owned off-home");
        }
        if (as != PageState::Local && as != PageState::Unallocated &&
            as != PageState::Swapped) {
          fail(page, "HPT-absent page in a transfer state");
        }
        break;
    }

    // Leak catch: a bystander node may own a page only while a flush to home
    // is in flight (abandoned flushes included).
    if (owner != home && owner != cur && loc != Loc::Incoming) {
      fail(page, "page owned by a node the process neither lives on nor calls home");
    }
  }

  // I3: a settled migrant runs exactly where its deputy serves it.
  if (cur != home && !host.migrating() && host.deputy().migrant_node() != cur) {
    violation(sim::strfmt(
        "I3 pid %llu: deputy serves node %u but the process runs on node %u",
        static_cast<unsigned long long>(host.pid()), host.deputy().migrant_node(), cur));
  }
}

void InvariantAuditor::audit_process(balancer::ProcessHost& host, bool at_run_end) {
  ++checks_run_;
  HostState& st = states_[host.pid()];
  const std::uint64_t refs = host.stats().refs_consumed;
  if (refs < st.prev_refs) {
    violation(sim::strfmt("I2 pid %llu: reference progress went backwards (%llu -> %llu)",
                          static_cast<unsigned long long>(host.pid()),
                          static_cast<unsigned long long>(st.prev_refs),
                          static_cast<unsigned long long>(refs)));
  }
  st.prev_refs = refs;

  if (host.finished()) {
    if (!st.finished_seen) {
      st.finished_seen = true;
      st.refs_at_finish = refs;
    } else if (refs != st.refs_at_finish) {
      violation(sim::strfmt("I2 pid %llu: executed %llu references after finishing",
                            static_cast<unsigned long long>(host.pid()),
                            static_cast<unsigned long long>(refs - st.refs_at_finish)));
    }
  }

  // Zombie catch: a migrant whose host died is Frozen until rehomed (or was
  // already Finished) — it must never keep executing on a dead node.
  if (host.process().migrated() && !host.migrating() &&
      world_.node_crashed(host.current_node())) {
    const proc::ProcState state = host.process().state();
    if (state != proc::ProcState::Frozen && state != proc::ProcState::Finished) {
      violation(sim::strfmt("I2 pid %llu: executing on crashed node %u",
                            static_cast<unsigned long long>(host.pid()),
                            host.current_node()));
    }
  }

  if (at_run_end && host.finished() && refs != host.process().stream().emitted()) {
    violation(sim::strfmt(
        "I2 pid %llu: finished having consumed %llu refs but the stream emitted %llu",
        static_cast<unsigned long long>(host.pid()), static_cast<unsigned long long>(refs),
        static_cast<unsigned long long>(host.process().stream().emitted())));
  }
}

void InvariantAuditor::audit_sequences(balancer::ProcessHost& host) {
  ++checks_run_;
  HostState& st = states_[host.pid()];
  for (net::NodeId node = 0; node < world_.node_count(); ++node) {
    const proc::PagingClient* client = host.paging_client(node);
    if (client == nullptr) {
      continue;
    }
    const std::uint64_t next = client->next_request_id();
    std::uint64_t& last = st.last_request_id[node];
    if (next < last) {
      violation(sim::strfmt(
          "I4 pid %llu node %u: paging request ids went backwards (%llu -> %llu)",
          static_cast<unsigned long long>(host.pid()), node,
          static_cast<unsigned long long>(last), static_cast<unsigned long long>(next)));
    }
    last = next;
  }
}

void InvariantAuditor::audit_convergence() {
  ++checks_run_;
  if (!world_.reliable()) {
    return;
  }
  // Quiescence gate: kDeadPeriods of heartbeat silence build the verdict,
  // plus margin for the heartbeats themselves to flow again after a heal.
  const sim::Time settle = world_.infod_period().scaled(cluster::kDeadPeriods + 4.0);
  if (world_.simulator().now() < world_.last_fault_at() + settle) {
    return;
  }
  // Consensus is a zone-majority vote (the zone is the gossip domain), so
  // the surviving-majority gate and the target sweep are per zone too; a
  // single-zone world degenerates to the original cluster-wide check.
  const cluster::ClusterView& view = world_.view();
  const cluster::Topology& topo = view.topology();
  for (std::uint32_t zone = 0; zone < topo.zones; ++zone) {
    std::size_t crashed = 0;
    for (net::NodeId node = topo.zone_begin(zone); node < topo.zone_end(zone); ++node) {
      if (world_.node_crashed(node)) {
        ++crashed;
      }
    }
    // A crashed observer hears nobody and votes everyone dead; only a
    // strict surviving majority makes the consensus meaningful.
    if (crashed * 2 >= topo.nodes_per_zone) {
      continue;
    }
    for (net::NodeId target = topo.zone_begin(zone); target < topo.zone_end(zone); ++target) {
      const bool dead = world_.node_crashed(target);
      const cluster::PeerHealth health = view.health(target);
      if (dead && health != cluster::PeerHealth::kDead) {
        violation(sim::strfmt(
            "I5 node %u: crashed, faults quiesced, but the survivors have not converged on "
            "dead",
            target));
      }
      if (!dead && health == cluster::PeerHealth::kDead) {
        violation(sim::strfmt("I5 node %u: alive but condemned by the surviving majority",
                              target));
      }
    }
  }
}

void InvariantAuditor::on_started(balancer::ProcessHost& host) {
  record(sim::strfmt("started pid %llu (%s) at node %u",
                     static_cast<unsigned long long>(host.pid()), host.label().c_str(),
                     host.current_node()));
  states_[host.pid()];  // materialize the tracking slot
}

void InvariantAuditor::on_migration_committed(balancer::ProcessHost& host, net::NodeId src,
                                              net::NodeId dst) {
  record(sim::strfmt("migration committed pid %llu: node %u -> node %u",
                     static_cast<unsigned long long>(host.pid()), src, dst));
  audit_pages(host);
  audit_process(host, /*at_run_end=*/false);
  audit_sequences(host);
}

void InvariantAuditor::on_migration_aborted(balancer::ProcessHost& host, net::NodeId src,
                                            net::NodeId dst) {
  record(sim::strfmt("migration aborted pid %llu: node %u -> node %u",
                     static_cast<unsigned long long>(host.pid()), src, dst));
  // The abort contract: the destination gained nothing. (Guard dst != home —
  // a hypothetical homeward hop aborts with home legitimately owning pages.)
  if (dst != host.home_node()) {
    const mem::PageLedger& ledger = host.ledger();
    for (mem::PageId page = 0; page < ledger.page_count(); ++page) {
      if (ledger.owner(page) == dst) {
        violation(sim::strfmt(
            "I1 pid %llu page %llu: aborted migration left the page owned by the lost "
            "destination (node %u)",
            static_cast<unsigned long long>(host.pid()),
            static_cast<unsigned long long>(page), dst));
      }
    }
  }
  audit_pages(host);
  audit_process(host, /*at_run_end=*/false);
}

void InvariantAuditor::on_node_crashed(net::NodeId node) {
  record(sim::strfmt("node %u crashed", node));
}

void InvariantAuditor::on_node_restored(net::NodeId node) {
  record(sim::strfmt("node %u restored", node));
}

void InvariantAuditor::on_rehomed(balancer::ProcessHost& host) {
  record(sim::strfmt("rehomed pid %llu to node %u",
                     static_cast<unsigned long long>(host.pid()), host.current_node()));
  audit_pages(host);
  audit_process(host, /*at_run_end=*/false);
}

void InvariantAuditor::on_finished(balancer::ProcessHost& host) {
  record(sim::strfmt("finished pid %llu at node %u (refs=%llu)",
                     static_cast<unsigned long long>(host.pid()), host.current_node(),
                     static_cast<unsigned long long>(host.stats().refs_consumed)));
  audit_process(host, /*at_run_end=*/false);
}

void InvariantAuditor::on_run_end() {
  record("run end: every process finished");
  for (const auto& host : world_.hosts()) {
    if (!host->migrating()) {
      audit_pages(*host);
    }
    audit_process(*host, /*at_run_end=*/true);
    audit_sequences(*host);
  }
}

}  // namespace ampom::verify
