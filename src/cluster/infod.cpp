#include "cluster/infod.hpp"

#include <algorithm>

#include "simcore/rng.hpp"

namespace ampom::cluster {

namespace {

// splitmix64 finalizer: folds (seed, self, tick) into an Rng seed so the
// peer pick for a tick depends only on those three values — never on event
// history — which is what keeps gossip runs bit-identical under any event
// interleaving (and across jobs=1 vs jobs=4 sweeps).
std::uint64_t mix64(std::uint64_t z) {
  z += 0x9E3779B97F4A7C15ULL;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

}  // namespace

InfoDaemon::InfoDaemon(sim::Simulator& simulator, net::Fabric& fabric, net::NodeId self,
                       sim::Time period)
    : sim_{simulator}, fabric_{fabric}, self_{self}, period_{period} {}

void InfoDaemon::add_peer(net::NodeId peer) {
  peers_.push_back(peer);
  ensure_state(peer);
}

void InfoDaemon::set_gossip(const GossipConfig& config) {
  gossip_ = config;
  if (config.period > sim::Time::zero()) {
    period_ = config.period;
  }
}

const InfoDaemon::PeerState* InfoDaemon::find_state(net::NodeId peer) const {
  if (state_.empty() || peer < base_ || peer >= base_ + state_.size()) {
    return nullptr;
  }
  return &state_[peer - base_];
}

InfoDaemon::PeerState& InfoDaemon::ensure_state(net::NodeId peer) {
  if (state_.empty()) {
    base_ = peer;
    state_.resize(1);
  } else if (peer < base_) {
    state_.insert(state_.begin(), base_ - peer, PeerState{});
    base_ = peer;
  } else if (peer >= base_ + state_.size()) {
    state_.resize(peer - base_ + 1);
  }
  return state_[peer - base_];
}

void InfoDaemon::start() {
  if (running_) {
    return;
  }
  running_ = true;
  started_ = true;
  started_at_ = sim_.now();
  const net::NicCounters& c = fabric_.counters(self_);
  last_bytes_ = c.tx_bytes + c.rx_bytes;
  last_sample_ = sim_.now();
  // Pin the tick chain to this node's partition: daemons then tick
  // concurrently in partitioned runs instead of serializing through the
  // scheduling context that called start() (usually the root).
  sim_.schedule_on_node(self_, sim_.now() + period_, [this] { tick(); });
}

void InfoDaemon::tick() {
  if (!running_) {
    return;
  }
  sample_bandwidth();
  const double load = local_load_ ? local_load_() : 0.0;
  ++tick_index_;
  if (gossip_.enabled) {
    // The version counter is this node's heartbeat: it advances once per
    // tick whether the tick degenerates to all-pairs or not.
    ++self_version_;
  }
  // Full fan-out degenerates to the all-pairs LoadPing tick (bit-identical
  // to the mesh) — unless cache digests are on: LoadPing has no pressure
  // field, so the cache format keeps the gossip framing at any fan-out.
  if (!gossip_.enabled || (gossip_.fan_out >= peers_.size() && !gossip_.cache_digest)) {
    legacy_tick(load);
  } else {
    gossip_tick(load);
  }
  sim_.schedule_on_node(self_, sim_.now() + period_, [this] { tick(); });
}

void InfoDaemon::legacy_tick(double load) {
  for (const net::NodeId peer : peers_) {
    net::LoadPing ping;
    ping.seq = ++seq_;
    ping.sent_at = sim_.now();
    ping.cpu_load = load;
    fabric_.send(net::Message{self_, peer, /*wire_bytes=*/64, ping});
    ++pings_sent_;
  }
}

void InfoDaemon::gossip_tick(double load) {
  const std::vector<net::GossipEntry> digest = build_digest(load);
  sim::Rng rng{mix64(mix64(kGossipSeed ^ (static_cast<std::uint64_t>(self_) + 1)) ^
                     tick_index_)};
  // fan_out distinct peers, drawn with rejection (fan_out << peer count on
  // the gossip path, so redraws are rare and the loop is bounded). The
  // cache-digest mode can reach here with fan_out >= peers (no LoadPing
  // fallback), so the draw count is clamped to the peer count.
  const std::size_t fan_out = std::min<std::size_t>(gossip_.fan_out, peers_.size());
  std::vector<std::uint32_t> picked;
  picked.reserve(fan_out);
  while (picked.size() < fan_out) {
    const auto idx = static_cast<std::uint32_t>(rng.uniform(peers_.size()));
    if (std::find(picked.begin(), picked.end(), idx) == picked.end()) {
      picked.push_back(idx);
    }
  }
  const bool cache = gossip_.cache_digest;
  const double pressure = cache ? local_cache_pressure() : 0.0;
  for (const std::uint32_t idx : picked) {
    net::GossipPing ping;
    ping.seq = ++seq_;
    ping.sent_at = sim_.now();
    ping.cpu_load = load;
    ping.sender_version = self_version_;
    ping.digest = digest;
    ping.cache_pressure = pressure;
    // Framing as LoadPing (64 bytes) plus 24 wire bytes per digest entry
    // (node id + version + load, padded); cache digests spend 8 more
    // bytes per entry and 8 on the sender's own pressure.
    const auto wire = cache ? static_cast<sim::Bytes>(72 + 32 * digest.size())
                            : static_cast<sim::Bytes>(64 + 24 * digest.size());
    fabric_.send(net::Message{self_, peers_[idx], wire, ping});
    ++pings_sent_;
    digest_entries_sent_ += digest.size();
  }
}

std::vector<net::GossipEntry> InfoDaemon::build_digest(double /*load*/) const {
  // Relay up to kDigestCap recently-advanced entries. The scan starts at a
  // tick-rotated offset so a full digest under churn does not starve
  // high-id peers; staleness ages entries out (a dead origin's version
  // stops advancing, so its entry drops from circulation after
  // kDigestAgePeriods and the silence-based detector takes over).
  std::vector<net::GossipEntry> digest;
  if (peers_.empty()) {
    return digest;
  }
  const sim::Time age_limit = period_.scaled(kDigestAgePeriods);
  const sim::Time now = sim_.now();
  const std::size_t start = static_cast<std::size_t>(tick_index_) % peers_.size();
  for (std::size_t i = 0; i < peers_.size() && digest.size() < kDigestCap; ++i) {
    const net::NodeId peer = peers_[(start + i) % peers_.size()];
    const PeerState* st = find_state(peer);
    if (st == nullptr || !st->heard || st->version == 0) {
      continue;
    }
    if (now - st->last_heard > age_limit) {
      continue;
    }
    digest.push_back(net::GossipEntry{peer, st->version, st->load, st->cache_pressure});
  }
  return digest;
}

void InfoDaemon::merge_entry(net::NodeId origin, std::uint64_t version, double load,
                             double cache_pressure) {
  if (origin == self_) {
    return;
  }
  PeerState& st = ensure_state(origin);
  if (version > st.version) {
    st.version = version;
    st.load = load;
    st.cache_pressure = cache_pressure;
    st.last_heard = sim_.now();
    st.heard = true;
  }
}

void InfoDaemon::sample_bandwidth() {
  const net::NicCounters& c = fabric_.counters(self_);
  const std::uint64_t bytes = c.tx_bytes + c.rx_bytes;
  const sim::Time now = sim_.now();
  const sim::Time span = now - last_sample_;
  if (span > sim::Time::zero()) {
    const double used_bps = static_cast<double>(bytes - last_bytes_) * 8.0 / span.sec();
    const double nominal = static_cast<double>(fabric_.default_link().bandwidth.bps());
    // Keep a floor: a fully loaded link still moves some prefetch traffic.
    const double avail = std::max(nominal - used_bps, nominal * 0.05);
    available_ = sim::Bandwidth::bits_per_sec(static_cast<std::uint64_t>(avail));
    bandwidth_sampled_ = true;
  }
  last_bytes_ = bytes;
  last_sample_ = now;
}

sim::Bandwidth InfoDaemon::available_bandwidth() const {
  if (!bandwidth_sampled_) {
    return fabric_.default_link().bandwidth;
  }
  return available_;
}

sim::Time InfoDaemon::rtt_one_way(net::NodeId peer) const {
  const PeerState* st = find_state(peer);
  if (st == nullptr) {
    return sim::Time::from_us(300);
  }
  return st->rtt_ewma / 2;
}

double InfoDaemon::known_load(net::NodeId peer) const {
  const PeerState* st = find_state(peer);
  return st == nullptr ? 0.0 : st->load;
}

double InfoDaemon::known_cache_pressure(net::NodeId peer) const {
  const PeerState* st = find_state(peer);
  return st == nullptr ? 0.0 : st->cache_pressure;
}

std::uint64_t InfoDaemon::peer_version(net::NodeId peer) const {
  const PeerState* st = find_state(peer);
  return st == nullptr ? 0 : st->version;
}

PeerHealth InfoDaemon::peer_health(net::NodeId peer) const {
  if (!detection_ || !started_) {
    return PeerHealth::kAlive;
  }
  const PeerState* st = find_state(peer);
  // Silence measured from the later of daemon start and last contact, so a
  // freshly-started cluster gets a full grace window before judging anyone.
  sim::Time baseline = started_at_;
  if (st != nullptr && st->heard && st->last_heard > baseline) {
    baseline = st->last_heard;
  }
  const sim::Time silence = sim_.now() - baseline;
  if (silence >= period_.scaled(kDeadPeriods)) {
    return PeerHealth::kDead;
  }
  if (silence >= period_.scaled(kSuspectPeriods)) {
    return PeerHealth::kSuspected;
  }
  return PeerHealth::kAlive;
}

void InfoDaemon::note_rebooted() {
  if (started_) {
    started_at_ = sim_.now();
  }
  for (PeerState& state : state_) {
    state.heard = false;
    state.last_heard = sim::Time::zero();
  }
}

sim::Time InfoDaemon::last_heard(net::NodeId peer) const {
  const PeerState* st = find_state(peer);
  return st != nullptr && st->heard ? st->last_heard : sim::Time::zero();
}

std::uint64_t InfoDaemon::dead_peers() const {
  std::uint64_t dead = 0;
  for (const net::NodeId peer : peers_) {
    if (peer_health(peer) == PeerHealth::kDead) {
      ++dead;
    }
  }
  return dead;
}

void InfoDaemon::on_ping(net::NodeId src, const net::LoadPing& ping) {
  // Record the peer's advertised load and acknowledge so it can measure RTT.
  PeerState& st = ensure_state(src);
  st.load = ping.cpu_load;
  st.last_heard = sim_.now();
  st.heard = true;
  net::LoadAck ack;
  ack.seq = ping.seq;
  ack.ping_sent_at = ping.sent_at;
  ack.cpu_load = local_load_ ? local_load_() : 0.0;
  fabric_.send(net::Message{self_, src, /*wire_bytes=*/64, ack});
}

void InfoDaemon::on_ack(net::NodeId src, const net::LoadAck& ack) {
  ++acks_received_;
  const sim::Time rtt = sim_.now() - ack.ping_sent_at;
  PeerState& peer = ensure_state(src);
  peer.load = ack.cpu_load;
  peer.last_heard = sim_.now();
  peer.heard = true;
  if (!peer.measured) {
    peer.rtt_ewma = rtt;
    peer.measured = true;
  } else {
    // EWMA with alpha = 0.3; Time's integer operators keep it exact.
    peer.rtt_ewma = (peer.rtt_ewma * 7 + rtt * 3) / 10;
  }
}

void InfoDaemon::on_gossip_ping(net::NodeId src, const net::GossipPing& ping) {
  merge_entry(src, ping.sender_version, ping.cpu_load, ping.cache_pressure);
  for (const net::GossipEntry& entry : ping.digest) {
    merge_entry(entry.node, entry.version, entry.load, entry.cache_pressure);
  }
  net::GossipAck ack;
  ack.seq = ping.seq;
  ack.ping_sent_at = ping.sent_at;
  ack.cpu_load = local_load_ ? local_load_() : 0.0;
  ack.sender_version = self_version_;
  ack.cache_pressure = gossip_.cache_digest ? local_cache_pressure() : 0.0;
  const auto wire = static_cast<sim::Bytes>(gossip_.cache_digest ? 72 : 64);
  fabric_.send(net::Message{self_, src, wire, ack});
}

void InfoDaemon::on_gossip_ack(net::NodeId src, const net::GossipAck& ack) {
  ++acks_received_;
  const sim::Time rtt = sim_.now() - ack.ping_sent_at;
  merge_entry(src, ack.sender_version, ack.cpu_load, ack.cache_pressure);
  PeerState& peer = ensure_state(src);
  if (!peer.measured) {
    peer.rtt_ewma = rtt;
    peer.measured = true;
  } else {
    peer.rtt_ewma = (peer.rtt_ewma * 7 + rtt * 3) / 10;
  }
}

}  // namespace ampom::cluster
