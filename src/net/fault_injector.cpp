#include "net/fault_injector.hpp"

#include <stdexcept>

namespace ampom::net {

namespace {

// splitmix64-style combine: the seed of one message's fate.
std::uint64_t mix(std::uint64_t h, std::uint64_t v) {
  h ^= v + 0x9E3779B97F4A7C15ULL + (h << 6U) + (h >> 2U);
  h *= 0xBF58476D1CE4E5B9ULL;
  return h ^ (h >> 27U);
}

}  // namespace

FaultInjector::FaultInjector(sim::Simulator& simulator, std::uint64_t seed,
                             std::size_t node_count)
    : sim_{simulator},
      seed_{seed},
      crashed_(node_count, false),
      send_seq_(node_count, 0),
      stat_shards_(simulator.partitions() + 1) {}

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

void FaultInjector::crash_node(NodeId node) { crashed_.at(node) = true; }

void FaultInjector::restore_node(NodeId node) { crashed_.at(node) = false; }

bool FaultInjector::node_crashed(NodeId node) const { return crashed_.at(node); }

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

  // Endpoint liveness and outage windows first: these take no send index,
  // so a crash window does not shift the fates of the sender's other
  // messages.
  if (node_crashed(msg.src) || node_crashed(msg.dst)) {
    d.deliver = false;
    ++stats.crash_drops;
    return d;
  }
  if (link_down(msg.src, msg.dst)) {
    d.deliver = false;
    ++stats.link_down_drops;
    return d;
  }

  // The fate depends only on (seed, src, dst, how many messages src has
  // sent) — never on other partitions' progress. Every message that reaches
  // here takes a send index; only nonzero knobs draw, so a zero-fault
  // injector stays transparent.
  const std::uint64_t index = send_seq_.at(msg.src)++;
  const LinkFaults faults = link_faults(msg.src, msg.dst);
  if (faults.drop_probability <= 0.0 && faults.max_extra_delay <= sim::Time::zero() &&
      faults.duplicate_probability <= 0.0) {
    return d;
  }
  sim::Rng rng{mix(mix(mix(seed_, msg.src), msg.dst), index)};
  if (faults.drop_probability > 0.0 && rng.bernoulli(faults.drop_probability)) {
    d.deliver = false;
    ++stats.dropped;
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
  }
  return d;
}

}  // namespace ampom::net
