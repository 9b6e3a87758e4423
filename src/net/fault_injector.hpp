#pragma once
// Deterministic fault-injection model composed into Fabric::send.
//
// A FaultInjector decides, per message, whether the fabric delivers it
// (drop probability, link-down windows, crashed endpoints), duplicates it,
// or delays it by extra jitter. A message's fate is keyed: it draws from a
// one-shot sim::Rng seeded by hash(seed, src, dst, per-source send index),
// so it is a pure function of the message's own identity and never of the
// interleaving of other links' sends. A (scenario, seed) pair therefore
// fully determines every fate — chaos runs are reproducible and diffable —
// and the fates are the same for any worker count of a partitioned run.
//
// Fault classes (paper context: the Gideon 300 ran on real Fast Ethernet,
// where packets drop, links flap and nodes die):
//   - per-link message loss:        LinkFaults::drop_probability
//   - per-link duplication:         LinkFaults::duplicate_probability
//   - per-link delay jitter:        LinkFaults::max_extra_delay (uniform)
//   - scheduled link outages:       set_link_down / schedule_link_outage
//   - whole-node crash/restart:     crash_node / restore_node; a crashed
//     node neither sends nor receives, and messages already in flight to
//     it are discarded at delivery time.
//
// With all probabilities zero and no outages/crashes the injector is
// exactly transparent: every message is delivered at the time the plain
// fabric would deliver it (no RNG draws are made on that path). A message
// suppressed by a crash or an outage takes no send index, so it shifts no
// other message's fate. Stats are sharded per executing partition of the
// simulator (aggregated on read), so partitions never share a counter.

#include <cstddef>
#include <cstdint>
#include <map>
#include <utility>
#include <vector>

#include "net/message.hpp"
#include "simcore/rng.hpp"
#include "simcore/simulator.hpp"
#include "simcore/time.hpp"

namespace ampom::net {

struct LinkFaults {
  double drop_probability{0.0};       // P(message silently lost)
  double duplicate_probability{0.0};  // P(message delivered twice)
  sim::Time max_extra_delay{};        // uniform extra delivery jitter in [0, max]
};

struct FaultInjectorStats {
  std::uint64_t messages_seen{0};
  std::uint64_t dropped{0};           // lost to drop_probability
  std::uint64_t duplicated{0};
  std::uint64_t delayed{0};           // got nonzero extra jitter
  std::uint64_t link_down_drops{0};   // lost to a scheduled outage window
  std::uint64_t crash_drops{0};       // endpoint crashed (at send or delivery)
};

class FaultInjector {
 public:
  // `node_count` bounds the node ids this injector sees (the per-source send
  // counters and crash flags are sized once, so partitions never grow them).
  // Partition the simulator before constructing the injector.
  FaultInjector(sim::Simulator& simulator, std::uint64_t seed, std::size_t node_count);

  // --- fault configuration --------------------------------------------------
  void set_default_faults(LinkFaults faults) { default_faults_ = faults; }
  void set_link_faults(NodeId a, NodeId b, LinkFaults faults);
  [[nodiscard]] LinkFaults link_faults(NodeId a, NodeId b) const;

  // --- scheduled outages and crashes ---------------------------------------
  void set_link_down(NodeId a, NodeId b, bool down);
  [[nodiscard]] bool link_down(NodeId a, NodeId b) const;
  // Declarative window: the link drops everything in [down_at, up_at).
  void schedule_link_outage(NodeId a, NodeId b, sim::Time down_at, sim::Time up_at);

  void crash_node(NodeId node);
  void restore_node(NodeId node);
  [[nodiscard]] bool node_crashed(NodeId node) const;

  // --- the per-message decision (called by Fabric::send) --------------------
  struct Decision {
    bool deliver{true};          // false: message never arrives
    bool duplicate{false};       // deliver a second copy
    sim::Time extra_delay{};     // added to the primary delivery time
    sim::Time duplicate_delay{}; // added (beyond extra_delay) for the copy
  };
  [[nodiscard]] Decision decide(const Message& msg);

  // Called by the fabric at delivery time: a message already in flight
  // toward a node that crashed after it was sent is discarded on arrival.
  [[nodiscard]] bool drop_in_flight(const Message& msg);

  // Aggregated across the stat shards (one per executing partition).
  [[nodiscard]] FaultInjectorStats stats() const;

 private:
  [[nodiscard]] static std::pair<NodeId, NodeId> ordered(NodeId a, NodeId b) {
    return a < b ? std::pair{a, b} : std::pair{b, a};
  }

  [[nodiscard]] FaultInjectorStats& shard();

  sim::Simulator& sim_;
  std::uint64_t seed_;
  LinkFaults default_faults_;
  std::map<std::pair<NodeId, NodeId>, LinkFaults> link_overrides_;
  std::map<std::pair<NodeId, NodeId>, bool> link_down_;
  std::vector<bool> crashed_;                    // indexed by NodeId
  std::vector<std::uint64_t> send_seq_;          // per-source send counters
  std::vector<FaultInjectorStats> stat_shards_;  // index = executing partition
};

}  // namespace ampom::net
