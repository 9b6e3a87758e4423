#include "simcore/simulator.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>
#include <utility>

#include "simcore/fmt.hpp"

namespace ampom::sim {

namespace {

// Executing context of the calling thread: which simulator is draining which
// partition. Null outside partition windows (root code, barrier events), so
// scheduling from there defaults to the global partition.
struct ExecCtx {
  const Simulator* sim{nullptr};
  std::uint32_t part{0};
};
thread_local ExecCtx tl_exec_ctx{};

}  // namespace

std::string Time::str() const {
  if (ns_ == 0) {
    return "0s";
  }
  const double s = sec();
  if (s >= 1.0 || s <= -1.0) {
    return strfmt("%.3fs", s);
  }
  const double milli = ms();
  if (milli >= 1.0 || milli <= -1.0) {
    return strfmt("%.3fms", milli);
  }
  return strfmt("%.3fus", us());
}

Simulator::Simulator() { parts_.push_back(std::make_unique<Partition>()); }

Simulator::~Simulator() { stop_pool(); }

std::uint32_t Simulator::ctx_index() const {
  return tl_exec_ctx.sim == this ? tl_exec_ctx.part : 0U;
}

std::uint32_t Simulator::current_partition_hint() { return tl_exec_ctx.part; }

Time Simulator::now() const { return parts_[ctx_index()]->now; }

Simulator::EventId Simulator::schedule_at(Time at, Callback cb) {
  const std::uint32_t index = ctx_index();
  Partition& part = *parts_[index];
  if (at < part.now) {
    throw std::logic_error(
        strfmt("schedule_at(%s) is in the past (now=%s)", at.str().c_str(), part.now.str().c_str()));
  }
  return EventId{part.queue.push(at, std::move(cb)), index};
}

Simulator::EventId Simulator::schedule_on_node(std::uint32_t node, Time at, Callback cb) {
  const std::uint32_t target = partition_of_node(node);
  const std::uint32_t cur = ctx_index();
  if (cur == target) {
    return schedule_at(at, std::move(cb));
  }
  if (cur == 0) {
    // Barrier/root context: every partition is parked, push directly.
    Partition& part = *parts_[target];
    if (at < part.now) {
      throw std::logic_error(strfmt("schedule_on_node(%s) is in the past (partition now=%s)",
                                    at.str().c_str(), part.now.str().c_str()));
    }
    return EventId{part.queue.push(at, std::move(cb)), target};
  }
  // Cross-partition from inside a partition event: defer to the barrier. The
  // lookahead contract puts `at` at or beyond the fence; barrier-adjacent
  // control events may land just below it and are clamped (deterministic —
  // the fence is schedule state, not thread state).
  Partition& src = *parts_[cur];
  const Time eff = at < window_fence_ ? window_fence_ : at;
  src.outbox.push_back(Outgoing{eff, target, EventId{}, std::move(cb)});
  return EventId{};
}

void Simulator::post_global(Callback cb) {
  const std::uint32_t cur = ctx_index();
  if (cur == 0) {
    cb();  // already serialized against every partition
    return;
  }
  Partition& src = *parts_[cur];
  src.outbox.push_back(Outgoing{window_fence_, 0, EventId{}, std::move(cb)});
}

Simulator::EventId Simulator::observe_at(Time at, Callback cb) {
  if (plan_.partitions == 0) {
    return schedule_at(at, std::move(cb));
  }
  if (ctx_index() != 0) {
    throw std::logic_error("Simulator::observe_at: called from inside a partition event");
  }
  if (at < parts_[0]->now) {
    throw std::logic_error(strfmt("observe_at(%s) is in the past (now=%s)", at.str().c_str(),
                                  parts_[0]->now.str().c_str()));
  }
  return EventId{observers_.push(at, std::move(cb)), kObserverPart};
}

bool Simulator::cancel(EventId id) {
  if (!id.valid()) {
    return false;
  }
  const std::uint32_t cur = ctx_index();
  if (id.part == kObserverPart) {
    if (cur != 0) {
      throw std::logic_error("Simulator::cancel: observer event cancelled from a partition");
    }
    return observers_.cancel(id.seq);
  }
  if (id.part == cur || cur == 0) {
    return parts_[id.part]->queue.cancel(id.seq);
  }
  if (id.part == 0) {
    // Deferred cancel of a barrier-context event. Safe: global events fire
    // only at barriers, and the fence this cancel lands on is <= any global
    // event time still pending, so the cancel is applied before the event
    // could fire.
    Partition& src = *parts_[cur];
    src.outbox.push_back(Outgoing{window_fence_, 0, id, Callback{}});
    return true;
  }
  throw std::logic_error("Simulator::cancel: cross-partition cancel of a non-global event");
}

std::uint64_t Simulator::run() { return run_windows(std::nullopt); }

std::uint64_t Simulator::run_until(Time limit) { return run_windows(limit); }

std::size_t Simulator::pending() const {
  std::size_t total = observers_.size();
  for (const auto& part : parts_) {
    total += part->queue.size();
  }
  return total;
}

std::uint64_t Simulator::events_processed() const {
  std::uint64_t total = observers_processed_;
  for (const auto& part : parts_) {
    total += part->processed;
  }
  return total;
}

std::size_t Simulator::queued_entries() const {
  std::size_t total = observers_.queued_entries();
  for (const auto& part : parts_) {
    total += part->queue.queued_entries();
  }
  return total;
}

std::size_t Simulator::slot_high_water() const {
  std::size_t high = observers_.slot_high_water();
  for (const auto& part : parts_) {
    high = std::max(high, part->queue.slot_high_water());
  }
  return high;
}

void Simulator::start_probe(Time period, Probe probe) {
  if (period <= Time::zero()) {
    throw std::invalid_argument("Simulator::start_probe: period must be positive");
  }
  stop_probe();
  probe_ = std::move(probe);
  probe_period_ = period;
  probe_event_ = observe_after(period, [this] { fire_probe(); });
}

void Simulator::stop_probe() {
  if (probe_event_.valid()) {
    cancel(probe_event_);
    probe_event_ = EventId{};
  }
  probe_ = nullptr;
  probe_period_ = Time::zero();
}

void Simulator::fire_probe() {
  probe_event_ = EventId{};
  if (!probe_) {
    return;
  }
  probe_(now(), pending(), events_processed());
  // Reschedule only while other work remains: a probe alone in the queue
  // would otherwise keep run() alive forever.
  if (pending() > 0) {
    probe_event_ = observe_after(probe_period_, [this] { fire_probe(); });
  }
}

// --- partitions and the run loop ---------------------------------------------

void Simulator::configure_partitions(PartitionPlan plan, std::uint32_t workers) {
  if (plan_.partitions != 0) {
    throw std::logic_error("Simulator::configure_partitions: already partitioned");
  }
  if (plan.partitions == 0) {
    throw std::invalid_argument("Simulator::configure_partitions: need at least one partition");
  }
  if (plan.lookahead <= Time::zero()) {
    throw std::invalid_argument("Simulator::configure_partitions: lookahead must be positive");
  }
  for (const std::uint32_t p : plan.node_partition) {
    if (p == 0 || p > plan.partitions) {
      throw std::invalid_argument("Simulator::configure_partitions: node partition out of range");
    }
  }
  if (!parts_[0]->queue.empty() || parts_[0]->processed != 0) {
    throw std::logic_error("Simulator::configure_partitions: simulator already has events");
  }
  plan_ = std::move(plan);
  parts_.reserve(plan_.partitions + 1);
  for (std::uint32_t p = 0; p < plan_.partitions; ++p) {
    parts_.push_back(std::make_unique<Partition>());
  }
  set_workers(workers);
}

void Simulator::set_workers(std::uint32_t workers) {
  if (!threads_.empty()) {
    throw std::logic_error("Simulator::set_workers: worker pool already started");
  }
  workers_ = workers;
}

std::uint64_t Simulator::run_windows(std::optional<Time> limit) {
  const std::uint64_t before = events_processed();
  ensure_pool();
  Partition& global = *parts_[0];
  while (!halted()) {
    if (!window_open_) {
      // Earliest pending work anywhere.
      bool any = false;
      Time tmin = Time::zero();
      for (const auto& part : parts_) {
        if (!part->queue.empty()) {
          const Time t = part->queue.top_time();
          if (!any || t < tmin) {
            tmin = t;
            any = true;
          }
        }
      }
      if (!observers_.empty()) {
        // Observers at an instant run before the events at that instant.
        const Time t = observers_.top_time();
        if ((!any || t <= tmin) && (!limit || t <= *limit)) {
          run_observers_at(t);
          continue;
        }
      }
      if (!any || (limit && tmin > *limit)) {
        if (limit) {
          for (auto& part : parts_) {
            part->now = std::max(part->now, *limit);
          }
        }
        break;
      }
      if (!global.queue.empty() && global.queue.top_time() <= tmin) {
        // Barrier phase: global events run serially with every partition
        // parked at or before this instant. With no node partitions nothing
        // can interleave with them, so the phase runs on to the limit.
        run_global_until(parts_.size() == 1 ? limit.value_or(Time::max())
                                            : global.queue.top_time());
        continue;
      }
      // Window [tmin, fence): partitions drain concurrently. The fence never
      // exceeds the next global event (barrier-context state must not be
      // overtaken) and cross-partition traffic cannot land below
      // tmin + lookahead, so the window is causally closed.
      window_fence_ = tmin + plan_.lookahead;
      if (!global.queue.empty()) {
        window_fence_ = std::min(window_fence_, global.queue.top_time());
      }
      window_open_ = true;
    } else if (!global.queue.empty()) {
      // Resuming a paused window: root code may have scheduled a global
      // event inside it since.
      window_fence_ = std::min(window_fence_, global.queue.top_time());
    }
    // A limit inside the window pauses it: partitions stop after `limit`,
    // the fence and the unmerged outboxes stay, and the next run resumes the
    // same window. Cutting the fence at the limit instead would move every
    // clamped or barrier-bound delivery, so slicing would change the run.
    // An observer event inside the window pauses it the same way, just
    // before its instant, and the window resumes once it has run.
    const bool pause = limit && *limit + Time::from_ns(1) < window_fence_;
    Time stop = pause ? *limit + Time::from_ns(1) : window_fence_;
    Time clock = limit ? std::min(window_fence_, *limit) : window_fence_;
    const bool observe = !observers_.empty() && observers_.top_time() < stop;
    if (observe) {
      stop = observers_.top_time();
      clock = stop;
    }
    dispatch_window(stop, clock);
    global.now = std::max(global.now, clock);
    if (observe) {
      run_observers_at(stop);
      continue;
    }
    if (pause) {
      break;
    }
    merge_outboxes();
    window_open_ = false;
  }
  halted_.store(false, std::memory_order_relaxed);
  return events_processed() - before;
}

void Simulator::run_global_until(Time until) {
  Partition& global = *parts_[0];
  while (!halted() && !global.queue.empty() && global.queue.top_time() <= until) {
    Callback cb;
    global.queue.pop(global.now, cb);
    ++global.processed;
    cb();
  }
}

void Simulator::run_observers_at(Time at) {
  parts_[0]->now = std::max(parts_[0]->now, at);
  while (!halted() && !observers_.empty() && observers_.top_time() == at) {
    Time t;
    Callback cb;
    observers_.pop(t, cb);
    ++observers_processed_;
    cb();
  }
}

void Simulator::run_partition_window(Partition& part, std::uint32_t index, Time stop, Time clock) {
  if (!part.queue.empty() && part.queue.top_time() < stop) {
    const ExecCtx saved = tl_exec_ctx;
    tl_exec_ctx = ExecCtx{this, index};
    do {
      Time at;
      Callback cb;
      part.queue.pop(at, cb);
      assert(at >= part.now);
      part.now = at;
      ++part.processed;
      cb();
    } while (!part.queue.empty() && part.queue.top_time() < stop);
    tl_exec_ctx = saved;
  }
  part.now = std::max(part.now, clock);
}

void Simulator::dispatch_window(Time stop, Time clock) {
  if (nthreads_ <= 1) {
    for (std::uint32_t p = 1; p < parts_.size(); ++p) {
      run_partition_window(*parts_[p], p, stop, clock);
    }
    return;
  }
  {
    const std::lock_guard<std::mutex> lk(pool_mu_);
    pool_stop_ = stop;
    pool_clock_ = clock;
    pool_pending_ = nthreads_ - 1;
    ++pool_epoch_;
  }
  pool_cv_.notify_all();
  for (std::uint32_t p = 1; p < parts_.size(); ++p) {
    if ((p - 1) % nthreads_ == 0) {
      run_partition_window(*parts_[p], p, stop, clock);
    }
  }
  std::unique_lock<std::mutex> lk(pool_mu_);
  done_cv_.wait(lk, [this] { return pool_pending_ == 0; });
}

void Simulator::merge_outboxes() {
  // Deterministic cross-partition delivery: apply the outboxes in source
  // partition order, each already in its schedule order. A queue breaks
  // time ties by push order, so same-instant deliveries to one partition
  // land in (source partition, sequence) order — the canonical key — and
  // deliveries at different instants pop by time whatever their push
  // order. Nothing here depends on thread scheduling, and no sort is needed.
  for (std::uint32_t p = 1; p < parts_.size(); ++p) {
    std::vector<Outgoing>& outbox = parts_[p]->outbox;
    for (Outgoing& out : outbox) {
      if (out.cancel_target.valid()) {
        parts_[out.cancel_target.part]->queue.cancel(out.cancel_target.seq);
      } else {
        parts_[out.target]->queue.push(out.at, std::move(out.cb));
      }
    }
    outbox.clear();
  }
}

void Simulator::ensure_pool() {
  nthreads_ = std::min(workers_, plan_.partitions);
  if (nthreads_ <= 1 || !threads_.empty()) {
    return;
  }
  threads_.reserve(nthreads_ - 1);
  for (std::uint32_t slot = 1; slot < nthreads_; ++slot) {
    threads_.emplace_back([this, slot] { worker_main(slot); });
  }
}

void Simulator::stop_pool() {
  if (threads_.empty()) {
    return;
  }
  {
    const std::lock_guard<std::mutex> lk(pool_mu_);
    pool_quit_ = true;
  }
  pool_cv_.notify_all();
  for (std::thread& t : threads_) {
    t.join();
  }
  threads_.clear();
  pool_quit_ = false;
}

void Simulator::worker_main(std::uint32_t slot) {
  std::uint64_t seen = 0;
  std::unique_lock<std::mutex> lk(pool_mu_);
  for (;;) {
    pool_cv_.wait(lk, [this, seen] { return pool_quit_ || pool_epoch_ != seen; });
    if (pool_quit_) {
      return;
    }
    seen = pool_epoch_;
    const Time stop = pool_stop_;
    const Time clock = pool_clock_;
    lk.unlock();
    // Static partition→thread assignment: the work split is a function of
    // the plan, not of runtime load, so thread count cannot leak into the
    // schedule.
    for (std::uint32_t p = 1; p < parts_.size(); ++p) {
      if ((p - 1) % nthreads_ == slot) {
        run_partition_window(*parts_[p], p, stop, clock);
      }
    }
    lk.lock();
    if (--pool_pending_ == 0) {
      done_cv_.notify_one();
    }
  }
}

}  // namespace ampom::sim
