#pragma once
// Switched-Ethernet fabric model.
//
// Every node owns a full-duplex NIC. A message serializes on the sender's TX
// port (back-to-back messages queue), propagates with the link's one-way
// latency, then serializes on the receiver's RX port (two senders targeting
// one node share its RX bandwidth). This is the standard store-and-forward
// model; for a single flow the end-to-end delay is
//   serialization(bytes) + latency
// with no double counting.
//
// Link parameters default cluster-wide (Gideon 300: 100 Mb/s Fast Ethernet)
// and can be overridden per node pair — that is how Scenario::shaped_link
// emulates the paper's §5.5 broadband experiment (6 Mb/s, 2 ms).
//
// Small control messages (pings, acks, syscall messages — anything at or
// below kControlCutoffBytes) interleave with bulk streams at packet
// granularity on a real network; they are modeled as bypassing the FIFO
// ports, waiting at most one full-size frame. Without this, a load-update
// ack queued behind a 50 MB page stream would report a multi-second RTT.
//
// Partitioned simulation: when the owning simulator is partitioned and a
// message crosses partitions, the send splits into two phases. The sender's
// side (TX serialization + propagation) is computed at send time against
// sender-owned state only; the receiver's side (RX port contention) is
// resolved by an arrival event on the *destination's* partition, so no NIC
// field is ever touched from two partitions. The returned prediction then
// assumes an idle RX port — for same-partition and serial sends it remains
// the exact delivery time. The model delta is confined to cross-partition
// RX queueing order (by first-bit arrival instead of by send instant) and
// is identical for every worker count.

#include <cstdint>
#include <functional>
#include <map>
#include <utility>
#include <vector>

#include "net/message.hpp"
#include "simcore/simulator.hpp"
#include "simcore/units.hpp"

namespace ampom::trace {
class TraceRecorder;
}

namespace ampom::net {

class FaultInjector;

struct LinkParams {
  sim::Bandwidth bandwidth{sim::Bandwidth::mbits_per_sec(100)};
  sim::Time latency{sim::Time::from_us(75)};  // one-way propagation + switch
};

// Messages at or below this size skip the FIFO port queues (cut-through).
inline constexpr sim::Bytes kControlCutoffBytes = 512;
// A bypassing message still waits behind the frame on the wire: one
// 1500-byte Ethernet frame's worth of serialization at 100 Mb/s.
inline constexpr sim::Bytes kMaxFrameBytes = 1500;

// ifconfig-style byte counters; the InfoDaemon diffs these to estimate
// available bandwidth exactly as the paper reads RX/TX bytes (§4).
struct NicCounters {
  std::uint64_t tx_bytes{0};
  std::uint64_t rx_bytes{0};
  std::uint64_t tx_messages{0};
  std::uint64_t rx_messages{0};
};

class Fabric {
 public:
  using Handler = std::function<void(const Message&)>;

  Fabric(sim::Simulator& simulator, std::size_t node_count, LinkParams default_link = {});

  [[nodiscard]] std::size_t node_count() const { return nics_.size(); }

  // Install the receive callback for a node (its protocol stack).
  void set_handler(NodeId node, Handler handler);

  // Queue a message. Returns the predicted delivery time. With a fault
  // injector attached the prediction is what the fault-free fabric would
  // have delivered (plus any injected jitter); a dropped message still
  // occupies the ports and counts TX bytes — the loss happens in the
  // network, not at the sender.
  sim::Time send(Message msg);

  // Compose a fault model into every subsequent send. Pass nullptr to
  // detach. The injector must outlive the fabric (or be detached first).
  void set_fault_injector(FaultInjector* injector) { injector_ = injector; }
  [[nodiscard]] FaultInjector* fault_injector() const { return injector_; }

  // Observability: emit send/deliver/drop/duplicate events per message.
  // Null (the default) keeps the send path untouched. Not owned.
  void set_trace(trace::TraceRecorder* recorder) { trace_ = recorder; }

  // Link parameters between a pair (unordered); assigning affects only
  // messages sent afterwards.
  [[nodiscard]] LinkParams link(NodeId a, NodeId b) const;
  void set_link(NodeId a, NodeId b, LinkParams params);
  void set_default_link(LinkParams params) { default_link_ = params; }
  [[nodiscard]] LinkParams default_link() const { return default_link_; }
  void clear_link_overrides() { link_overrides_.clear(); }

  [[nodiscard]] const NicCounters& counters(NodeId node) const;

  // Earliest time the node's TX port is free (exposed for tests).
  [[nodiscard]] sim::Time tx_free_at(NodeId node) const;

 private:
  struct Nic {
    Handler handler;
    NicCounters counters;
    sim::Time tx_free{sim::Time::zero()};
    sim::Time rx_free{sim::Time::zero()};
  };

  [[nodiscard]] static std::pair<NodeId, NodeId> ordered(NodeId a, NodeId b) {
    return a < b ? std::pair{a, b} : std::pair{b, a};
  }

  void deliver_at(sim::Time when, Message msg);
  void receive_at(sim::Time when, Message msg);  // cross-partition RX phase
  // Runs on the destination's partition; touches only receiver-owned state.
  // ampom: partition-local
  void deliver_now(Message& msg);

  sim::Simulator& sim_;
  LinkParams default_link_;
  std::map<std::pair<NodeId, NodeId>, LinkParams> link_overrides_;
  std::vector<Nic> nics_;
  FaultInjector* injector_{nullptr};
  trace::TraceRecorder* trace_{nullptr};
};

}  // namespace ampom::net
