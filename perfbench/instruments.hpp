#pragma once
// Measurement helpers the benchmark wraps around the simulator's public
// entry points. None of them changes a simulated quantity: the timing
// decorator forwards every reference unchanged, and the freeze log only
// reads a host's counters when ClusterSim reports a migration.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "balancer/cluster_sim.hpp"
#include "proc/reference_stream.hpp"
#include "verify/observer.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_between(Clock::time_point begin, Clock::time_point end) {
  return std::chrono::duration<double>(end - begin).count();
}

[[nodiscard]] inline double seconds_since(Clock::time_point begin) {
  return seconds_between(begin, Clock::now());
}

// Median of `values`; 0 for an empty sample.
[[nodiscard]] inline double median(std::vector<double> values) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid] : 0.5 * (values[mid - 1] + values[mid]);
}

// Host time spent inside ReferenceStream::next(), estimated from a sample of
// calls so the clock reads stay a small share of the measured work.
struct StreamClock {
  std::uint64_t calls{0};
  std::uint64_t sampled{0};
  double sampled_s{0.0};
  double clock_read_s{0.0};  // cost of one now() pair, subtracted per sample

  [[nodiscard]] double ns_per_call() const {
    if (sampled == 0) {
      return 0.0;
    }
    const double per_call = sampled_s / static_cast<double>(sampled) - clock_read_s;
    return per_call > 0.0 ? per_call * 1e9 : 0.0;
  }
  [[nodiscard]] double total_s() const {
    return ns_per_call() * 1e-9 * static_cast<double>(calls);
  }
};

// Measures the cost of back-to-back steady_clock reads on this host.
[[nodiscard]] inline double calibrate_clock_read() {
  constexpr int kReads = 4096;
  const Clock::time_point begin = Clock::now();
  for (int i = 0; i < kReads; ++i) {
    (void)Clock::now();
  }
  return seconds_since(begin) / kReads;
}

// Timing decorator around a workload generator. One call in 64 is timed; the
// choice is hashed from the call index so it cannot alias the generators'
// refill period (2048 references).
class TimedStream final : public ampom::proc::ReferenceStream {
 public:
  TimedStream(std::unique_ptr<ampom::proc::ReferenceStream> inner, StreamClock& clock)
      : inner_{std::move(inner)}, clock_{clock} {}

  [[nodiscard]] std::optional<ampom::proc::Ref> next() override {
    const std::uint64_t call = clock_.calls++;
    std::optional<ampom::proc::Ref> ref;
    if (((call * 0x9E3779B97F4A7C15ULL) >> 58) == 0) {
      const Clock::time_point begin = Clock::now();
      ref = inner_->next();
      clock_.sampled_s += seconds_since(begin);
      ++clock_.sampled;
    } else {
      ref = inner_->next();
    }
    if (ref) {
      count_emit();
    }
    return ref;
  }

  [[nodiscard]] const char* name() const override { return inner_->name(); }
  [[nodiscard]] ampom::sim::Bytes memory_bytes() const override {
    return inner_->memory_bytes();
  }

 private:
  std::unique_ptr<ampom::proc::ReferenceStream> inner_;
  StreamClock& clock_;
};

// Records each committed migration's freeze time (the growth of the host's
// freeze_total at commit) and forwards every hook to `next`, so the
// invariant auditor can sit behind it in the traced run.
class FreezeLog final : public ampom::verify::WorldObserver {
 public:
  explicit FreezeLog(ampom::verify::WorldObserver* next = nullptr) : next_{next} {}

  [[nodiscard]] const std::vector<double>& freeze_ms() const { return freeze_ms_; }

  void on_started(ampom::balancer::ProcessHost& host) override {
    if (next_ != nullptr) {
      next_->on_started(host);
    }
  }
  void on_migration_committed(ampom::balancer::ProcessHost& host, ampom::net::NodeId src,
                              ampom::net::NodeId dst) override {
    freeze_ms_.push_back(take_delta(host).ms());
    if (next_ != nullptr) {
      next_->on_migration_committed(host, src, dst);
    }
  }
  void on_migration_aborted(ampom::balancer::ProcessHost& host, ampom::net::NodeId src,
                            ampom::net::NodeId dst) override {
    (void)take_delta(host);
    if (next_ != nullptr) {
      next_->on_migration_aborted(host, src, dst);
    }
  }
  void on_node_crashed(ampom::net::NodeId node) override {
    if (next_ != nullptr) {
      next_->on_node_crashed(node);
    }
  }
  void on_node_restored(ampom::net::NodeId node) override {
    if (next_ != nullptr) {
      next_->on_node_restored(node);
    }
  }
  void on_rehomed(ampom::balancer::ProcessHost& host) override {
    if (next_ != nullptr) {
      next_->on_rehomed(host);
    }
  }
  void on_finished(ampom::balancer::ProcessHost& host) override {
    if (next_ != nullptr) {
      next_->on_finished(host);
    }
  }
  void on_run_end() override {
    if (next_ != nullptr) {
      next_->on_run_end();
    }
  }

 private:
  ampom::sim::Time take_delta(const ampom::balancer::ProcessHost& host) {
    ampom::sim::Time& seen = seen_[host.pid()];
    const ampom::sim::Time delta = host.freeze_total() - seen;
    seen = host.freeze_total();
    return delta;
  }

  ampom::verify::WorldObserver* next_;
  std::map<std::uint64_t, ampom::sim::Time> seen_;
  std::vector<double> freeze_ms_;
};

}  // namespace perfbench
