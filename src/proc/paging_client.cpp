#include "proc/paging_client.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace ampom::proc {

namespace {

// splitmix64 finalizer over the mixed identity of one (request, retry, node,
// pid) tuple. Pure arithmetic on values every replica of a run computes
// identically, so the jitter is deterministic — same seed, same timers —
// while still decorrelating clients from each other.
std::uint64_t jitter_hash(std::uint64_t request_id, std::uint32_t retries, std::uint64_t node,
                          std::uint64_t pid) {
  std::uint64_t x = request_id;
  x = x * 0x9e3779b97f4a7c15ULL + retries;
  x = x * 0x9e3779b97f4a7c15ULL + node;
  x = x * 0x9e3779b97f4a7c15ULL + pid;
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ULL;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebULL;
  x ^= x >> 31;
  return x;
}

}  // namespace

void PagingClient::request_pages(const std::vector<mem::PageId>& pages, mem::PageId urgent) {
  if (pages.empty()) {
    throw std::logic_error("PagingClient::request_pages: empty batch");
  }
  if (urgent != mem::kInvalidPage && pages.front() != urgent) {
    throw std::logic_error("PagingClient::request_pages: urgent page must lead the batch");
  }
  net::PageRequest req;
  req.pid = pid_;
  req.request_id = next_request_id_++;
  req.urgent = urgent == mem::kInvalidPage ? net::kNoPage : urgent;
  req.pages.assign(pages.begin(), pages.end());

  if (urgent != mem::kInvalidPage) {
    ++stats_.fault_requests;
    stats_.prefetch_pages_requested += pages.size() - 1;
  } else {
    ++stats_.prefetch_requests;
    stats_.prefetch_pages_requested += pages.size();
  }
  stats_.pages_requested += pages.size();

  if (reliable_) {
    Pending pending;
    pending.pages = pages;
    pending.urgent = urgent;
    auto [it, inserted] = outstanding_.emplace(req.request_id, std::move(pending));
    (void)inserted;
    arm_timer(req.request_id, it->second);
  }

  if (trace_ != nullptr) {
    const std::uint64_t batch = pages.size();
    if (urgent != mem::kInvalidPage) {
      trace_->async_begin(trace::Category::kPaging, "fault", sim_.now(), self_node_,
                          req.request_id, urgent, batch);
    } else {
      trace_->async_begin(trace::Category::kPrefetch, "prefetch_batch", sim_.now(), self_node_,
                          req.request_id, batch);
    }
    trace_open_[req.request_id] = TraceOpen{batch, urgent != mem::kInvalidPage};
  }

  const std::uint64_t request_id = req.request_id;
  fabric_.send(net::Message{self_node_, home_node_,
                            wire_.request_bytes(static_cast<std::uint64_t>(pages.size())),
                            std::move(req), request_id});
}

sim::Time PagingClient::base_timeout() const {
  const sim::Time rtt = rtt_provider_ ? rtt_provider_() : sim::Time::zero();
  if (rtt <= sim::Time::zero()) {
    return kMinTimeout;
  }
  return std::clamp(rtt.scaled(kRttMultiplier), kMinTimeout, kMaxTimeout);
}

void PagingClient::arm_timer(std::uint64_t request_id, Pending& pending) {
  // Replies come off the home node's TX port one page-message at a time, and
  // this client may have several batches queued there: a request's reply can
  // legitimately wait behind every other page this client still has
  // outstanding. Grant that whole backlog as service time on top of the
  // RTT-derived silence threshold so only real silence trips the timer.
  std::uint64_t backlog = 0;
  for (const auto& entry : outstanding_) {
    backlog += entry.second.pages.size();
  }
  const sim::Time service = kPerPageAllowance * static_cast<std::int64_t>(backlog);
  const sim::Time grown =
      (base_timeout() + service).scaled(std::pow(kBackoffFactor, pending.retries));
  const double unit =
      static_cast<double>(jitter_hash(request_id, pending.retries, self_node_, pid_) >> 11) *
      0x1.0p-53;  // 53 high bits -> [0, 1)
  const sim::Time timeout =
      std::min(grown, kBackoffCeiling + service).scaled(1.0 + kJitterFraction * unit);
  pending.timer =
      sim_.schedule_after(timeout, [this, request_id] { on_timeout(request_id); });
}

void PagingClient::on_timeout(std::uint64_t request_id) {
  const auto it = outstanding_.find(request_id);
  if (it == outstanding_.end()) {
    return;  // satisfied between timer fire and lookup (cancel raced)
  }
  Pending& pending = it->second;
  ++stats_.timeouts;
  // Past kMaxRetries the retry count stays pinned, so the backoff exponent
  // (and thus the probe spacing) is stable for however long the outage
  // lasts; recovery is the balancer's job (rehoming, heal), not this timer's.
  if (pending.retries < kMaxRetries) {
    pending.retries += 1;
  }
  ++stats_.retransmits;
  stats_.pages_retransmitted += pending.pages.size();

  // Re-request only the still-missing pages under the same request id, so
  // the deputy can recognize and replay it idempotently.
  net::PageRequest req;
  req.pid = pid_;
  req.request_id = request_id;
  const bool urgent_pending =
      pending.urgent != mem::kInvalidPage &&
      std::find(pending.pages.begin(), pending.pages.end(), pending.urgent) !=
          pending.pages.end();
  req.urgent = urgent_pending ? pending.urgent : net::kNoPage;
  req.pages.assign(pending.pages.begin(), pending.pages.end());
  if (trace_ != nullptr) {
    trace_->instant(trace::Category::kPaging, "retransmit", sim_.now(), self_node_, request_id,
                    pending.pages.size(), pending.retries);
  }
  arm_timer(request_id, pending);
  fabric_.send(
      net::Message{self_node_, home_node_,
                   wire_.request_bytes(static_cast<std::uint64_t>(pending.pages.size())),
                   std::move(req), request_id});
}

void PagingClient::on_page_data(const net::PageData& data) {
  if (data.pid != pid_) {
    throw std::logic_error("PagingClient: page data for a different process");
  }
  if (reliable_) {
    const auto it = outstanding_.find(data.request_id);
    if (it == outstanding_.end()) {
      // Whole request already satisfied: a duplicated frame or a retransmit
      // reply racing the original. Drop before it reaches the fault policy.
      ++stats_.duplicates_dropped;
      return;
    }
    auto& pages = it->second.pages;
    const auto page_it = std::find(pages.begin(), pages.end(), data.page);
    if (page_it == pages.end()) {
      ++stats_.duplicates_dropped;
      return;
    }
    pages.erase(page_it);
    sim_.cancel(it->second.timer);
    if (pages.empty()) {
      outstanding_.erase(it);
    } else {
      // Progress: the path is alive. Restart the silence timer for the
      // remainder and forgive past timeouts (they measured congestion, not
      // loss).
      it->second.retries = 0;
      arm_timer(data.request_id, it->second);
    }
  }
  ++stats_.pages_arrived;
  if (trace_ != nullptr) {
    trace_->instant(trace::Category::kPaging, "page_arrival", sim_.now(), self_node_,
                    data.request_id, data.page, data.urgent ? 1 : 0);
    const auto open = trace_open_.find(data.request_id);
    if (open != trace_open_.end()) {
      if (data.urgent && open->second.fault) {
        trace_->async_end(trace::Category::kPaging, "fault", sim_.now(), self_node_,
                          data.request_id, data.page);
      }
      if (open->second.remaining > 0 && --open->second.remaining == 0) {
        if (!open->second.fault) {
          trace_->async_end(trace::Category::kPrefetch, "prefetch_batch", sim_.now(),
                            self_node_, data.request_id);
        }
        trace_open_.erase(open);
      }
    }
  }
  if (on_arrival_) {
    on_arrival_(data.page, data.urgent);
  }
}

void PagingClient::cancel_outstanding() {
  for (auto& [request_id, pending] : outstanding_) {
    sim_.cancel(pending.timer);
  }
  outstanding_.clear();
  // Abandoned requests never complete; their spans stay open in the trace
  // (Perfetto renders unfinished async spans), but stop tracking them.
  trace_open_.clear();
}

}  // namespace ampom::proc
