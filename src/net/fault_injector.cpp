#include "net/fault_injector.hpp"

#include <stdexcept>

namespace ampom::net {

namespace {

// splitmix64-style combine: the keyed-mode seed for one message.
std::uint64_t mix(std::uint64_t h, std::uint64_t v) {
  h ^= v + 0x9E3779B97F4A7C15ULL + (h << 6U) + (h >> 2U);
  h *= 0xBF58476D1CE4E5B9ULL;
  return h ^ (h >> 27U);
}

}  // namespace

FaultInjector::FaultInjector(sim::Simulator& simulator, std::uint64_t seed)
    : sim_{simulator}, rng_{seed}, seed_{seed}, stat_shards_(1) {}

void FaultInjector::set_link_faults(NodeId a, NodeId b, LinkFaults faults) {
  link_overrides_[ordered(a, b)] = faults;
}

LinkFaults FaultInjector::link_faults(NodeId a, NodeId b) const {
  const auto it = link_overrides_.find(ordered(a, b));
  return it == link_overrides_.end() ? default_faults_ : it->second;
}

void FaultInjector::set_link_down(NodeId a, NodeId b, bool down) {
  link_down_[ordered(a, b)] = down;
}

bool FaultInjector::link_down(NodeId a, NodeId b) const {
  const auto it = link_down_.find(ordered(a, b));
  return it != link_down_.end() && it->second;
}

void FaultInjector::schedule_link_outage(NodeId a, NodeId b, sim::Time down_at,
                                         sim::Time up_at) {
  sim_.schedule_at(down_at, [this, a, b] { set_link_down(a, b, true); });
  sim_.schedule_at(up_at, [this, a, b] { set_link_down(a, b, false); });
}

void FaultInjector::crash_node(NodeId node) {
  if (crashed_.size() <= node) {
    crashed_.resize(node + 1, false);
  }
  crashed_[node] = true;
}

void FaultInjector::restore_node(NodeId node) {
  if (crashed_.size() > node) {
    crashed_[node] = false;
  }
}

bool FaultInjector::node_crashed(NodeId node) const {
  return crashed_.size() > node && crashed_[node];
}

void FaultInjector::enable_keyed_mode(std::size_t node_count, std::uint32_t partitions) {
  FaultInjectorStats seen_any;
  for (const FaultInjectorStats& s : stat_shards_) {
    seen_any.messages_seen += s.messages_seen;
  }
  if (seen_any.messages_seen != 0) {
    throw std::logic_error("FaultInjector::enable_keyed_mode: messages already decided");
  }
  keyed_ = true;
  send_seq_.assign(node_count, 0);
  stat_shards_.assign(partitions + 1, FaultInjectorStats{});
  if (crashed_.size() < node_count) {
    crashed_.resize(node_count, false);  // fixed footprint: no growth mid-run
  }
}

FaultInjectorStats FaultInjector::stats() const {
  FaultInjectorStats total;
  for (const FaultInjectorStats& s : stat_shards_) {
    total.messages_seen += s.messages_seen;
    total.dropped += s.dropped;
    total.duplicated += s.duplicated;
    total.delayed += s.delayed;
    total.link_down_drops += s.link_down_drops;
    total.crash_drops += s.crash_drops;
  }
  return total;
}

FaultInjectorStats& FaultInjector::shard() {
  if (stat_shards_.size() == 1) {
    return stat_shards_[0];
  }
  const std::uint32_t part = sim::Simulator::current_partition_hint();
  return stat_shards_[part < stat_shards_.size() ? part : 0];
}

bool FaultInjector::drop_in_flight(const Message& msg) {
  if (node_crashed(msg.dst)) {
    ++shard().crash_drops;
    return true;
  }
  return false;
}

FaultInjector::Decision FaultInjector::decide(const Message& msg) {
  FaultInjectorStats& stats = shard();
  ++stats.messages_seen;
  Decision d;

  // Endpoint liveness and outage windows first: these consume no randomness,
  // so a crash window does not shift the drop/jitter stream of other links.
  if (node_crashed(msg.src) || node_crashed(msg.dst)) {
    d.deliver = false;
    ++stats.crash_drops;
    if (!keyed_) {
      trace_.push_back('X');
    }
    return d;
  }
  if (link_down(msg.src, msg.dst)) {
    d.deliver = false;
    ++stats.link_down_drops;
    if (!keyed_) {
      trace_.push_back('L');
    }
    return d;
  }

  const LinkFaults faults = link_faults(msg.src, msg.dst);
  if (!keyed_) {
    return decide_with(rng_, faults, /*record_trace=*/true);
  }
  // Keyed mode: the fate of this message depends only on (seed, src, dst,
  // how many messages src has sent) — never on other partitions' progress.
  std::uint64_t h = mix(seed_, msg.src);
  h = mix(h, msg.dst);
  h = mix(h, send_seq_.at(msg.src)++);
  sim::Rng one_shot{h};
  return decide_with(one_shot, faults, /*record_trace=*/false);
}

FaultInjector::Decision FaultInjector::decide_with(sim::Rng& rng, const LinkFaults& faults,
                                                   bool record_trace) {
  FaultInjectorStats& stats = shard();
  Decision d;
  // Draw only for nonzero knobs: a zero-fault injector never touches the RNG,
  // which keeps it bit-transparent and lets per-link overrides coexist with a
  // fault-free default without perturbing each other's streams.
  if (faults.drop_probability > 0.0 && rng.bernoulli(faults.drop_probability)) {
    d.deliver = false;
    ++stats.dropped;
    if (record_trace) {
      trace_.push_back('D');
    }
    return d;
  }
  if (faults.max_extra_delay > sim::Time::zero()) {
    const auto span = static_cast<std::uint64_t>(faults.max_extra_delay.ns());
    d.extra_delay = sim::Time::from_ns(static_cast<std::int64_t>(rng.uniform(span + 1)));
    if (d.extra_delay > sim::Time::zero()) {
      ++stats.delayed;
    }
  }
  if (faults.duplicate_probability > 0.0 && rng.bernoulli(faults.duplicate_probability)) {
    d.duplicate = true;
    // The copy trails the original like a retransmitted frame: one extra
    // jitter span (or a fixed microsecond when jitter is off).
    d.duplicate_delay = faults.max_extra_delay > sim::Time::zero()
                            ? faults.max_extra_delay
                            : sim::Time::from_us(1);
    ++stats.duplicated;
    if (record_trace) {
      trace_.push_back('d');
    }
    return d;
  }
  if (record_trace) {
    trace_.push_back(d.extra_delay > sim::Time::zero() ? 'j' : '.');
  }
  return d;
}

}  // namespace ampom::net
