#pragma once
// The resource discovery and monitoring daemon — our oM_infoD (paper §2.4,
// §4). It measures, exactly the way the paper describes:
//   t0 — half the time to receive an acknowledgement after a load update
//        is sent to a peer (EWMA over pings);
//   available bandwidth — by diffing the node's RX/TX byte counters
//        (the /sbin/ifconfig method) each sampling period;
//   CPU load — the node's current utilization, exchanged in load updates.
//
// Two dissemination modes share the daemon:
//   all-pairs mesh (default) — every tick pings every peer, the paper's
//        shape; cost O(peers) per node per period.
//   epidemic gossip — every tick pings a bounded fan-out of deterministic
//        pseudo-random peers and piggybacks a digest of recently-changed
//        load entries with per-origin version counters; cost O(fan_out).
//        When fan_out >= peer count the gossip tick degenerates to the
//        exact all-pairs tick, so small clusters stay bit-identical to the
//        mesh (the equivalence the tests pin).

#include <cstdint>
#include <functional>
#include <vector>

#include "cluster/cluster_view.hpp"
#include "net/fabric.hpp"
#include "simcore/simulator.hpp"

namespace ampom::cluster {

// Heartbeat-based failure detection thresholds, as multiples of the gossip
// period: a peer silent for kSuspectPeriods is Suspected (skip it for new
// placements), for kDeadPeriods it is Dead (reclaim its migrants). Health
// is computed lazily from the last-heard timestamp — detection adds no
// events and no wire traffic, so it is free on the happy path. Under
// gossip, "heard" means the peer's version counter advanced (directly or
// through a relayed digest entry), so the same thresholds apply unchanged.
inline constexpr double kSuspectPeriods = 3.0;
inline constexpr double kDeadPeriods = 8.0;

// Gossip digests: an entry whose version last advanced more than
// kDigestAgePeriods ago is stale and no longer relayed (a dead node's entry
// ages out instead of circulating forever); a ping relays at most
// kDigestCap entries (its own excluded). kGossipSeed feeds the per-(node,
// tick) peer selection only — never the message RNG — so enabling gossip
// on one node cannot perturb any other stochastic element of a run.
inline constexpr double kDigestAgePeriods = 8.0;
inline constexpr std::uint32_t kDigestCap = 32;
inline constexpr std::uint64_t kGossipSeed = 0x9E3779B97F4A7C15ULL;

// Epidemic dissemination knobs.
struct GossipConfig {
  bool enabled{false};
  std::uint32_t fan_out{2};
  sim::Time period{};  // zero = keep the daemon's own period
  // Carry per-node cache pressure in digests (32 wire bytes per entry
  // instead of 24). Off by default so existing gossip runs stay
  // bit-identical; the degenerate full-fan-out tick keeps gossiping (instead
  // of falling back to LoadPing) when this is on, since LoadPing cannot
  // carry pressure. Set for a whole world at once (ClusterSim derives it
  // from the memory hierarchy); a daemon without it sends 0.0 pressure.
  bool cache_digest{false};
};

class InfoDaemon {
 public:
  InfoDaemon(sim::Simulator& simulator, net::Fabric& fabric, net::NodeId self,
             sim::Time period = sim::Time::from_ms(250));

  void add_peer(net::NodeId peer);
  // Configure epidemic dissemination; call before start(). A nonzero
  // config period overrides the daemon's tick period.
  void set_gossip(const GossipConfig& config);
  [[nodiscard]] const GossipConfig& gossip() const { return gossip_; }
  void start();
  void stop() { running_ = false; }

  // Local CPU load reported to peers (wired to the node's utilization).
  void set_local_load_source(std::function<double()> fn) { local_load_ = std::move(fn); }
  // Local cache pressure reported in cache-format digests (wired to the
  // memory-hierarchy model). Only consulted when gossip.cache_digest is on.
  void set_local_cache_pressure_source(std::function<double()> fn) {
    local_cache_pressure_ = std::move(fn);
  }

  // --- measurements ---------------------------------------------------------
  // Measured one-way latency to `peer` (RTT/2); a prior until the first ack.
  [[nodiscard]] sim::Time rtt_one_way(net::NodeId peer) const;
  // Available bandwidth on this node's link: nominal minus observed use.
  [[nodiscard]] sim::Bandwidth available_bandwidth() const;
  // Last load learned for a peer (directly or via gossip), NaN-free.
  [[nodiscard]] double known_load(net::NodeId peer) const;
  // Last cache pressure learned for a peer via cache-format gossip; 0.0
  // until heard (including entries migrated from load-format senders).
  [[nodiscard]] double known_cache_pressure(net::NodeId peer) const;
  // Highest version counter seen from a peer (0 = never heard).
  [[nodiscard]] std::uint64_t peer_version(net::NodeId peer) const;

  // --- failure detection ----------------------------------------------------
  void set_failure_detection(bool enabled) { detection_ = enabled; }
  // Health judged from the silence since the peer was last heard (ping,
  // ack, or gossip version advance). Always kAlive while detection is
  // disabled or before start().
  [[nodiscard]] PeerHealth peer_health(net::NodeId peer) const;
  // Fresh-boot semantics after a crash+restore: forget every pre-crash
  // last-heard timestamp and restart the silence clocks from now. Without
  // this a restored node votes with stale clocks and condemns peers that
  // were alive the whole time it was down. Version counters survive — they
  // are monotone per origin, and resetting them would make the rebooted
  // node ignore fresh gossip until the counters caught up.
  void note_rebooted();
  [[nodiscard]] sim::Time last_heard(net::NodeId peer) const;
  [[nodiscard]] std::uint64_t dead_peers() const;

  // Node router entry points.
  void on_ping(net::NodeId src, const net::LoadPing& ping);
  void on_ack(net::NodeId src, const net::LoadAck& ack);
  void on_gossip_ping(net::NodeId src, const net::GossipPing& ping);
  void on_gossip_ack(net::NodeId src, const net::GossipAck& ack);

  [[nodiscard]] std::uint64_t pings_sent() const { return pings_sent_; }
  [[nodiscard]] std::uint64_t acks_received() const { return acks_received_; }
  // Digest entries relayed across all gossip pings (the piggyback volume).
  [[nodiscard]] std::uint64_t digest_entries_sent() const { return digest_entries_sent_; }

 private:
  struct PeerState {
    sim::Time rtt_ewma{sim::Time::from_us(300)};  // prior until measured
    bool measured{false};
    double load{0.0};
    double cache_pressure{0.0};  // cache-format gossip only; 0.0 otherwise
    std::uint64_t version{0};  // highest origin version seen
    sim::Time last_heard{};    // latest contact or gossip version advance
    bool heard{false};
  };

  // One dissemination round; reschedules itself on this node's partition.
  // ampom: partition-entry
  void tick();
  void legacy_tick(double load);
  void gossip_tick(double load);
  void sample_bandwidth();
  void merge_entry(net::NodeId origin, std::uint64_t version, double load,
                   double cache_pressure);
  [[nodiscard]] std::vector<net::GossipEntry> build_digest(double load) const;
  [[nodiscard]] double local_cache_pressure() const {
    return local_cache_pressure_ ? local_cache_pressure_() : 0.0;
  }

  // Dense peer-state arena indexed by (id - base_). Peers are registered at
  // construction time from a contiguous id range (the node's zone), so the
  // arena is exactly zone-sized; the old std::map cost a pointer chase per
  // lookup on the hottest read path in the simulator.
  [[nodiscard]] const PeerState* find_state(net::NodeId peer) const;
  PeerState& ensure_state(net::NodeId peer);

  sim::Simulator& sim_;
  net::Fabric& fabric_;
  net::NodeId self_;
  sim::Time period_;
  std::vector<net::NodeId> peers_;  // insertion order (legacy send order)
  std::function<double()> local_load_;
  std::function<double()> local_cache_pressure_;
  bool running_{false};

  std::vector<PeerState> state_;  // arena over [base_, base_ + state_.size())
  net::NodeId base_{0};

  GossipConfig gossip_;
  std::uint64_t self_version_{0};  // bumped each gossip tick (the heartbeat)
  std::uint64_t tick_index_{0};

  bool detection_{false};
  sim::Time started_at_{};
  bool started_{false};

  std::uint64_t pings_sent_{0};
  std::uint64_t acks_received_{0};
  std::uint64_t digest_entries_sent_{0};
  std::uint64_t seq_{0};

  // Bandwidth estimation (ifconfig counter diffs).
  std::uint64_t last_bytes_{0};
  sim::Time last_sample_{};
  sim::Bandwidth available_{};
  bool bandwidth_sampled_{false};
};

}  // namespace ampom::cluster
