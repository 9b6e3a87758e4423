#pragma once
// Migrant-side remote-paging transport: batches page requests to the home
// node's deputy and dispatches PageData arrivals to the fault policy.
//
// With reliability enabled (set_reliable) each request is tracked
// until every page it named has arrived: a per-request timer derived from
// the InfoDaemon's RTT estimate retransmits the still-missing pages with
// exponential backoff, and page arrivals the tracker has already seen
// (retransmit races, network duplication) are suppressed before they reach
// the fault policy. Reliability off (the default) is byte- and event-exact
// with the original fire-and-forget client.

#include <cstdint>
#include <functional>
#include <map>
#include <vector>

#include "mem/page.hpp"
#include "net/fabric.hpp"
#include "proc/costs.hpp"
#include "simcore/simulator.hpp"
#include "trace/trace.hpp"

namespace ampom::proc {

struct PagingClientStats {
  std::uint64_t fault_requests{0};     // requests carrying an urgent page (Fig. 7 metric)
  std::uint64_t prefetch_requests{0};  // requests with no urgent page
  std::uint64_t pages_requested{0};
  std::uint64_t prefetch_pages_requested{0};  // pages beyond the urgent one
  std::uint64_t pages_arrived{0};
  // Reliability counters (all zero when reliability is off).
  std::uint64_t retransmits{0};          // requests re-sent after a timeout
  std::uint64_t timeouts{0};             // timer expiries (each one retransmits)
  std::uint64_t duplicates_dropped{0};   // PageData arrivals already satisfied
  std::uint64_t pages_retransmitted{0};  // pages named across all retransmits
};

class PagingClient {
 public:
  // Reliable-paging timer. It detects *silence*, not slow service: the base
  // timeout is
  //   clamp(kRttMultiplier * rtt_estimate, kMinTimeout, kMaxTimeout)
  //     + missing_pages * kPerPageAllowance
  // (a batch of N replies legitimately takes N serialization slots of the
  // home node's TX port, so big prefetch batches get proportionally more
  // patience). It doubles (kBackoffFactor) per retry of the same request, up
  // to kBackoffCeiling plus the allowance, and is re-armed — with the retry
  // count reset — every time any page of the request arrives, since
  // progress proves the path is alive.
  //
  // After kMaxRetries the retry count stays pinned and the client keeps
  // probing at the ceiling rate: a node that sits out a two-minute
  // partition must neither give up nor, on heal, replay a burst of retries
  // whose spacing grew unboundedly stale. The ceiling also outlasts the 2 s
  // dead-consensus threshold, so rehoming gets its chance. kJitterFraction
  // desynchronizes those probes across clients: each timer is stretched by
  // a deterministic per-(request, retry, node, pid) factor in
  // [1, 1 + kJitterFraction), so every client healing from the same outage
  // does not hammer the home node on the same instant.
  static constexpr double kRttMultiplier = 4.0;
  static constexpr sim::Time kMinTimeout = sim::Time::from_ms(1);
  static constexpr sim::Time kMaxTimeout = sim::Time::from_ms(200);
  static constexpr sim::Time kPerPageAllowance = sim::Time::from_us(500);
  static constexpr double kBackoffFactor = 2.0;
  static constexpr std::uint32_t kMaxRetries = 12;
  static constexpr sim::Time kBackoffCeiling = sim::Time::from_ms(500);
  static constexpr double kJitterFraction = 0.1;

  PagingClient(sim::Simulator& simulator, net::Fabric& fabric, WireCosts wire,
               net::NodeId self_node, net::NodeId home_node, std::uint64_t pid)
      : sim_{simulator},
        fabric_{fabric},
        wire_{wire},
        self_node_{self_node},
        home_node_{home_node},
        pid_{pid} {}

  // Page arrival callback: (page, urgent).
  void set_arrival_handler(std::function<void(mem::PageId, bool)> fn) {
    on_arrival_ = std::move(fn);
  }

  // Track every request and retransmit on silence (the timer above). Off
  // (the default) is the fire-and-forget client.
  void set_reliable(bool enabled) { reliable_ = enabled; }

  // RTT estimate feeding the timeout formula (typically InfoDaemon::rtt_to
  // the home node). Unset or zero falls back to kMinTimeout.
  void set_rtt_provider(std::function<sim::Time()> fn) { rtt_provider_ = std::move(fn); }

  // Observability: fault spans (request -> urgent arrival), prefetch-batch
  // spans (request -> last arrival) and retransmit markers, correlated by
  // request id. Null (the default) leaves the client untouched. Not owned.
  void set_trace(trace::TraceRecorder* recorder) { trace_ = recorder; }

  // Send one batched request. `urgent` must be pages.front() when present.
  void request_pages(const std::vector<mem::PageId>& pages, mem::PageId urgent);

  // Node router entry point.
  void on_page_data(const net::PageData& data);

  // Abandon all in-flight requests (the process is leaving this node or the
  // node crashed); cancels every retransmit timer.
  void cancel_outstanding();

  [[nodiscard]] std::size_t outstanding_requests() const { return outstanding_.size(); }

  // Next id request_pages() will stamp; ids are monotone per client, which
  // the invariant auditor checks across epochs.
  [[nodiscard]] std::uint64_t next_request_id() const { return next_request_id_; }

  [[nodiscard]] const PagingClientStats& stats() const { return stats_; }

 private:
  struct Pending {
    std::vector<mem::PageId> pages;  // still-missing pages, request order
    mem::PageId urgent{mem::kInvalidPage};
    std::uint32_t retries{0};
    sim::Simulator::EventId timer;
  };

  [[nodiscard]] sim::Time base_timeout() const;
  void arm_timer(std::uint64_t request_id, Pending& pending);
  void on_timeout(std::uint64_t request_id);

  sim::Simulator& sim_;
  net::Fabric& fabric_;
  WireCosts wire_;
  net::NodeId self_node_;
  net::NodeId home_node_;
  std::uint64_t pid_;
  std::uint64_t next_request_id_{1};
  std::function<void(mem::PageId, bool)> on_arrival_;
  std::function<sim::Time()> rtt_provider_;
  bool reliable_{false};
  std::map<std::uint64_t, Pending> outstanding_;  // request_id -> tracker
  PagingClientStats stats_;
  trace::TraceRecorder* trace_{nullptr};
  // Tracing only: pages still expected per request, to close batch spans.
  struct TraceOpen {
    std::uint64_t remaining{0};
    bool fault{false};  // request carried an urgent page
  };
  std::map<std::uint64_t, TraceOpen> trace_open_;
};

}  // namespace ampom::proc
