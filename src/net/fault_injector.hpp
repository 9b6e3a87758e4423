#pragma once
// Deterministic fault-injection model composed into Fabric::send.
//
// A FaultInjector decides, per message, whether the fabric delivers it
// (drop probability, link-down windows, crashed endpoints), duplicates it,
// or delays it by extra jitter. All randomness comes from one sim::Rng
// seeded by the scenario, so a (scenario, seed) pair fully determines the
// fault trace — chaos runs are reproducible and diffable.
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
// fabric would deliver it (no RNG draws are made on that path, so even the
// stream position is untouched).
//
// Keyed mode (partitioned simulation): the single sequential RNG stream
// assumes a global send order, which a partitioned run does not have. With
// enable_keyed_mode() every decision instead draws from a one-shot RNG
// seeded by hash(seed, src, dst, per-source send counter) — the fault fate
// of a message is a pure function of its own identity, independent of the
// interleaving of other links' sends, so it is identical for any worker
// count. Stats are sharded per executing partition (aggregated on read) and
// the per-message trace string is not recorded in this mode.

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
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
  FaultInjector(sim::Simulator& simulator, std::uint64_t seed);

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

  // Switch to per-message keyed randomness (see the header comment). Must be
  // set before any message is seen; `partitions` is the partition count of
  // the owning simulator (stats sharding), `node_count` bounds the per-source
  // send counters.
  void enable_keyed_mode(std::size_t node_count, std::uint32_t partitions);
  [[nodiscard]] bool keyed_mode() const { return keyed_; }

  // Aggregated across stat shards (one per executing partition in keyed
  // mode; exactly one otherwise).
  [[nodiscard]] FaultInjectorStats stats() const;

  // Deterministic fault trace: one character per message seen, in send
  // order ('.' delivered, 'D' dropped, 'd' duplicated, 'j' jittered,
  // 'L' link-down, 'X' crash-suppressed). Same seed => identical trace.
  // Empty in keyed mode (there is no global send order to index it by).
  [[nodiscard]] const std::string& trace() const { return trace_; }

 private:
  [[nodiscard]] static std::pair<NodeId, NodeId> ordered(NodeId a, NodeId b) {
    return a < b ? std::pair{a, b} : std::pair{b, a};
  }

  [[nodiscard]] FaultInjectorStats& shard();
  [[nodiscard]] Decision decide_with(sim::Rng& rng, const LinkFaults& faults, bool record_trace);

  sim::Simulator& sim_;
  sim::Rng rng_;
  std::uint64_t seed_;
  LinkFaults default_faults_;
  std::map<std::pair<NodeId, NodeId>, LinkFaults> link_overrides_;
  std::map<std::pair<NodeId, NodeId>, bool> link_down_;
  std::vector<bool> crashed_;  // indexed by NodeId, grown on demand
  bool keyed_{false};
  std::vector<std::uint64_t> send_seq_;          // keyed mode: per-source counters
  std::vector<FaultInjectorStats> stat_shards_;  // index = executing partition
  std::string trace_;
};

}  // namespace ampom::net
