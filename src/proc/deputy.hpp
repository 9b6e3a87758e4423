#pragma once
// The deputy process (paper §2.2): after migration, the original process
// instance at the home node answers remote paging requests from its HPT and
// executes redirected system calls on behalf of the migrant.

#include <cstdint>
#include <map>
#include <set>
#include <vector>

#include "mem/ledger.hpp"
#include "mem/page_table.hpp"
#include "net/fabric.hpp"
#include "proc/costs.hpp"
#include "simcore/simulator.hpp"
#include "trace/trace.hpp"

namespace ampom::proc {

struct DeputyStats {
  std::uint64_t requests_served{0};
  std::uint64_t pages_served{0};
  std::uint64_t urgent_pages_served{0};
  std::uint64_t syscalls_served{0};
  std::uint64_t flush_pages_received{0};
  std::uint64_t requests_stalled_on_flush{0};
  // Reliability counters (all zero when reliability is off).
  std::uint64_t pages_replayed{0};      // idempotent re-sends of already-shipped pages
  std::uint64_t duplicate_flushes{0};   // flush arrivals for pages already home
  std::uint64_t pages_recovered{0};     // pages reclaimed from a crashed host
};

class Deputy {
 public:
  Deputy(sim::Simulator& simulator, net::Fabric& fabric, WireCosts wire, NodeCosts costs,
         net::NodeId home_node, std::uint64_t pid, std::uint64_t page_count,
         mem::PageLedger* ledger);

  // Called by the migration engine once the migrant is resumed.
  void begin_service(net::NodeId migrant_node) { migrant_node_ = migrant_node; }

  // Where the deputy believes its migrant runs (kInvalidNode before the
  // first begin_service and after recover_pages_from). The auditor checks
  // this against the process's actual node.
  [[nodiscard]] net::NodeId migrant_node() const { return migrant_node_; }

  // Reliability: remember which pages each request id shipped so a
  // retransmitted request replays the PageData (same wire bytes, deputy CPU
  // cost) without re-transferring ledger ownership, and answer flushed
  // pages with a FlushAck. Off by default — the classic deputy treats a
  // duplicate request as a protocol violation and keeps throwing.
  void set_reliable(bool enabled) { reliable_ = enabled; }

  // Failure recovery: the node holding this process's remote pages crashed.
  // Reclaims every page the HPT does not mark Here (the authoritative copies
  // died with the host; the deputy's frozen image stands in for them),
  // updates the ledger, and forgets the migrant. Returns pages reclaimed.
  std::uint64_t recover_pages_from(net::NodeId lost_node);

  // Observability: request service, replays and flush arrivals, correlated
  // by request id / page. Null (the default) is a no-op. Not owned.
  void set_trace(trace::TraceRecorder* recorder) { trace_ = recorder; }

  // The HPT; the migration engine populates it during the freeze.
  [[nodiscard]] mem::PageTable& hpt() { return hpt_; }
  [[nodiscard]] const mem::PageTable& hpt() const { return hpt_; }

  // Node router entry points.
  void on_page_request(const net::PageRequest& request);
  void on_syscall_request(const net::SyscallRequest& request);
  // Re-migration: a page flushed back from the previous host arrives home.
  // Serves any request that was waiting for it.
  void on_flush_page(net::NodeId from, const net::FlushPage& flush);

  [[nodiscard]] const DeputyStats& stats() const { return stats_; }

  // Whether a request for `page` is queued until the page's re-migration
  // flush lands (the migrant has asked for it; the deputy does not hold it
  // yet).
  [[nodiscard]] bool request_waits_on_flush(mem::PageId page) const {
    return waiting_on_flush_.contains(page);
  }

 private:
  sim::Simulator& sim_;
  net::Fabric& fabric_;
  WireCosts wire_;
  NodeCosts costs_;
  net::NodeId home_node_;
  net::NodeId migrant_node_{net::kInvalidNode};
  std::uint64_t pid_;
  mem::PageTable hpt_;
  mem::PageLedger* ledger_;
  sim::Time busy_until_{sim::Time::zero()};
  DeputyStats stats_;
  // Requests for pages still being flushed back (re-migration): page ->
  // pending (request_id, urgent) pairs, served on flush arrival.
  std::map<mem::PageId, std::vector<std::pair<std::uint64_t, bool>>> waiting_on_flush_;
  bool reliable_{false};
  // Reliability: request_id -> pages already shipped for it (replay source).
  std::map<std::uint64_t, std::set<mem::PageId>> served_;
  trace::TraceRecorder* trace_{nullptr};

  void ship_page(mem::PageId page, std::uint64_t request_id, bool urgent);
  void replay_page(mem::PageId page, std::uint64_t request_id, bool urgent);
};

}  // namespace ampom::proc
