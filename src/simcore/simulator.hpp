#pragma once
// The discrete-event engine: a time-ordered queue of callbacks.
//
// Determinism: events scheduled for the same instant fire in schedule order
// (FIFO by sequence), so a run is a pure function of the scenario.
//
// Storage is an indexed 4-ary heap (simcore/event_queue.hpp): cancel() is an
// in-place O(log n) removal that destroys the callback immediately, and
// callbacks are small-buffer-optimized (simcore/inplace_function.hpp), so
// the schedule/fire/cancel hot path performs no heap allocations for
// typical closures.
//
// Halt semantics: halt() requests that the engine stop dispatching. The run
// in progress — or, if none is in progress, the *next* run() / run_until()
// call — returns before processing another barrier event or window. The
// request is consumed by the run it stops; a subsequent run proceeds
// normally. A run stopped by halt() leaves now() at the instant of the last
// processed event: it never fast-forwards to a run_until() limit it did not
// actually reach.
//
// --- One run loop: windows and barriers -------------------------------------
//
// There is one engine. The queue is split into a global partition (index 0)
// plus one sub-queue per node partition of the plan given to
// configure_partitions(); a simulator that is never configured has no node
// partitions. The loop is a conservative (CMB-style) window engine: global
// events run serially at barriers, with every partition parked; between
// barriers every partition processes its own events up to a shared fence =
// window start + lookahead, then the barrier merges cross-partition traffic
// in a deterministic (time, source partition, sequence) order. Because the
// fence never exceeds the next global event and cross-partition effects are
// delayed by at least the lookahead, no event can observe state out of
// order. With no node partitions every event is global and the loop only
// runs barriers, one event after another in (time, schedule order): the
// plain sequential discrete-event loop.
//
// The schedule — which event runs on which partition at which (time, order)
// key — is a pure function of the scenario and the partition plan, NOT of
// the worker-thread count or of run_until() slicing: set_workers() only
// chooses how many OS threads execute that fixed schedule, and a limit that
// falls inside a window pauses the window (same fence, outboxes held) rather
// than cutting it. See DESIGN.md §15.
//
// Semantics inside a window (none observable by a well-formed scenario):
//   - now() is per-partition; after a window a partition's clock sits at
//     the fence, not at its last processed event.
//   - halt() from a partition event takes effect at the end of the window.
//   - Cross-partition schedule_on_node() below the fence is clamped to the
//     fence (the lookahead contract makes this unreachable for fabric
//     traffic; it only triggers for barrier-adjacent control events).
//
// Observer events (observe_at(): the scheduler probe, invariant-audit
// epochs) read the world and change nothing in it. A global event bounds
// the window fence, so a probe every 10 ms would move where windows end and,
// with them, every fence-bound delivery. Observer events therefore live in
// their own queue and never bound a window: one that falls inside a window
// pauses it like a run_until() limit, runs in barrier context and lets the
// window resume. Attaching an observer leaves the schedule unchanged.

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

#include "simcore/event_queue.hpp"
#include "simcore/time.hpp"

namespace ampom::sim {

class Simulator {
 public:
  using Callback = EventQueue::Callback;

  struct EventId {
    std::uint64_t seq{0};
    std::uint32_t part{0};  // owning partition; 0 = global
    [[nodiscard]] bool valid() const { return seq != 0; }
  };

  // Static node→partition map. Partition indices are 1-based (0 is the
  // global/barrier partition); `lookahead` is the minimum cross-partition
  // propagation delay (the CMB bound) and must be positive.
  struct PartitionPlan {
    std::uint32_t partitions{0};
    std::vector<std::uint32_t> node_partition;  // node id -> 1..partitions
    Time lookahead{Time::zero()};
  };

  Simulator();
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;
  ~Simulator();

  // Current simulated time of the executing context: the partition clock
  // inside a partition event, the global clock everywhere else.
  [[nodiscard]] Time now() const;

  // Schedule `cb` at absolute time `at` (must not be in the past). The event
  // lands on the scheduling context's own partition (the global partition
  // when called from outside any event or from a barrier-context event).
  EventId schedule_at(Time at, Callback cb);

  // Schedule `cb` `delay` after now.
  EventId schedule_after(Time delay, Callback cb) { return schedule_at(now() + delay, std::move(cb)); }

  // Schedule `cb` on the partition that owns `node` (with no node
  // partitions: identical to schedule_at). Cross-partition calls from inside
  // a partition event are deferred to the next barrier and return an invalid
  // id (not cancellable); same-partition and barrier-context calls push
  // directly.
  EventId schedule_on_node(std::uint32_t node, Time at, Callback cb);

  // Run `cb` in barrier context, where every partition is parked: inline if
  // already there (global context), otherwise deferred to the fence of the
  // current window. Cross-partition state transitions (e.g. migration
  // commits) use this to serialize against all partitions.
  void post_global(Callback cb);

  // Cancel a pending event in place (its callback is destroyed immediately).
  // Returns false if it already fired or was cancelled before. A partition
  // event may cancel a *global* event (deferred to the barrier, returns true
  // optimistically); cancelling another partition's event throws.
  bool cancel(EventId id);

  // Schedule an observer event at `at`: a callback that only reads the world
  // and schedules nothing but further observer events. It runs in barrier
  // context once every partition has run its events before `at`, and never
  // bounds a window (see above). With no node partitions there are no
  // windows, and it is an ordinary global event in schedule order. Call it
  // from root or barrier context.
  EventId observe_at(Time at, Callback cb);
  EventId observe_after(Time delay, Callback cb) { return observe_at(now() + delay, std::move(cb)); }

  // Run until the queue drains or halt() is called. Returns the number of
  // events processed by this call.
  std::uint64_t run();

  // Run events with time <= `limit`; afterwards now() == min(limit, drain),
  // unless halt() stopped the run early — then now() stays at the halt point.
  // Running in slices makes the same schedule as one run() (see above).
  std::uint64_t run_until(Time limit);

  void halt() { halted_.store(true, std::memory_order_relaxed); }
  [[nodiscard]] bool halted() const { return halted_.load(std::memory_order_relaxed); }

  // Split the queue by `plan`. Must be called once, on a fresh simulator (no
  // events yet). `workers` is the OS-thread count: at most one per
  // partition, 0 and 1 both mean the calling thread only; it affects
  // wall-clock, never the schedule. set_workers() may retune it until the
  // first run that uses more than one thread starts the pool.
  void configure_partitions(PartitionPlan plan, std::uint32_t workers);
  void set_workers(std::uint32_t workers);
  // Node partitions, excluding the global one; 0 when never configured.
  [[nodiscard]] std::uint32_t partitions() const { return plan_.partitions; }
  // The partition that owns `node`: 0 (global) for every node when there
  // are no node partitions; a node the plan does not list throws.
  [[nodiscard]] std::uint32_t partition_of_node(std::uint32_t node) const {
    return plan_.partitions == 0 ? 0U : plan_.node_partition.at(node);
  }
  [[nodiscard]] bool cross_partition(std::uint32_t node_a, std::uint32_t node_b) const {
    return partition_of_node(node_a) != partition_of_node(node_b);
  }
  // Executing context: 0 outside partition events (root code, barrier
  // events), otherwise the 1-based index of the partition being drained.
  [[nodiscard]] std::uint32_t current_partition() const { return ctx_index(); }
  // Same, but across whatever simulator the calling thread is executing —
  // shard routing for observers (e.g. trace recording) that have no
  // simulator reference at the call site.
  [[nodiscard]] static std::uint32_t current_partition_hint();

  // Aggregates over all partitions. These are exact in barrier/root context;
  // a partition event calling them mid-window sees only a consistent
  // snapshot of its own partition plus the parked ones.
  [[nodiscard]] std::size_t pending() const;
  [[nodiscard]] std::uint64_t events_processed() const;

  // Storage introspection (soak tests, perf harness): entries physically in
  // the queue — equal to pending() for this engine, where the retired
  // lazy-delete engine kept cancelled entries queued until their deadline —
  // and the high-water mark of concurrently live events.
  [[nodiscard]] std::size_t queued_entries() const;
  [[nodiscard]] std::size_t slot_high_water() const;

  // Observability hook: invoke `probe` every `period` of simulated time with
  // the current time, queue depth and cumulative events processed. The probe
  // is an observer event (observe_at), so it perturbs no other event's order,
  // and stops rescheduling itself once it is the only pending event, letting
  // run() drain naturally. One probe at a time; stop_probe() cancels.
  using Probe = std::function<void(Time now, std::size_t pending, std::uint64_t processed)>;
  void start_probe(Time period, Probe probe);
  void stop_probe();

 private:
  struct Outgoing {
    Time at{Time::zero()};
    std::uint32_t target{0};     // partition index; 0 = global
    EventId cancel_target{};     // valid => deferred cancel instead of a push
    Callback cb;
  };

  struct Partition {
    EventQueue queue;
    Time now{Time::zero()};
    std::uint64_t processed{0};
    std::vector<Outgoing> outbox;  // cross-partition traffic, in schedule order
  };

  // EventId::part of an observer event.
  static constexpr std::uint32_t kObserverPart = 0xFFFFFFFFU;

  [[nodiscard]] std::uint32_t ctx_index() const;
  void fire_probe();
  void run_observers_at(Time at);
  std::uint64_t run_windows(std::optional<Time> limit);
  void run_global_until(Time until);
  void run_partition_window(Partition& part, std::uint32_t index, Time stop, Time clock);
  void merge_outboxes();
  void dispatch_window(Time stop, Time clock);
  void ensure_pool();
  void stop_pool();
  void worker_main(std::uint32_t slot);

  std::vector<std::unique_ptr<Partition>> parts_;  // [0] = global, then one per node partition
  EventQueue observers_;  // observer events of a world with node partitions
  std::uint64_t observers_processed_{0};
  std::atomic<bool> halted_{false};
  Probe probe_;
  Time probe_period_{Time::zero()};
  EventId probe_event_{};

  PartitionPlan plan_;
  std::uint32_t workers_{1};
  // The open window: its fence is fixed when it opens and kept across a
  // run_until() pause. Published to the pool under pool_mu_.
  Time window_fence_{Time::zero()};
  bool window_open_{false};

  // Worker pool (spawned lazily on the first run with more than one thread).
  std::vector<std::thread> threads_;
  std::uint32_t nthreads_{0};
  std::mutex pool_mu_;
  std::condition_variable pool_cv_;
  std::condition_variable done_cv_;
  std::uint64_t pool_epoch_{0};
  std::uint32_t pool_pending_{0};
  Time pool_stop_{Time::zero()};
  Time pool_clock_{Time::zero()};
  bool pool_quit_{false};
};

}  // namespace ampom::sim
