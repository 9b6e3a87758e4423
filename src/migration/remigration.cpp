#include "migration/remigration.hpp"

#include <algorithm>
#include <memory>
#include <set>
#include <stdexcept>
#include <vector>

#include "cluster/node.hpp"
#include "trace/trace.hpp"

namespace ampom::migration {

namespace {

// Reliable flush: tracks the background B -> H flush stream page-by-page
// against the deputy's FlushAcks and re-flushes whatever is still unacked
// after a timeout round. Self-owning; dissolves when every page is acked or
// the retry budget is spent (home presumed dead — failure detection and
// deputy-side recovery take over from there).
class FlushTracker : public std::enable_shared_from_this<FlushTracker> {
 public:
  static std::shared_ptr<FlushTracker> create(const MigrationContext& ctx, net::NodeId home,
                                              const std::vector<mem::PageId>& pages,
                                              RemigrationEngine::FlushStats* sink,
                                              std::uint64_t chunk_count) {
    auto t = std::shared_ptr<FlushTracker>(
        new FlushTracker(ctx, home, pages, sink, chunk_count));
    t->self_ = t;
    t->src_node_->set_flush_ack_handler(
        t->pid_, [t](const net::FlushAck& ack) { t->on_ack(ack); });
    return t;
  }

  // Called by each flush-chunk send event with the predicted arrival of its
  // last page; the round timer arms once the final chunk is on the wire.
  void chunk_sent(sim::Time predicted_last) {
    if (done_) {
      return;
    }
    last_predicted_ = std::max(last_predicted_, predicted_last);
    if (++chunks_sent_ == chunk_count_) {
      arm();
    }
  }

 private:
  FlushTracker(const MigrationContext& ctx, net::NodeId home,
               const std::vector<mem::PageId>& pages, RemigrationEngine::FlushStats* sink,
               std::uint64_t chunk_count)
      : sim_{ctx.sim},
        fabric_{ctx.fabric},
        wire_{ctx.wire},
        src_{ctx.src},
        home_{home},
        pid_{ctx.process.pid()},
        src_node_{ctx.src_node},
        trace_{ctx.trace},
        sink_{sink},
        chunk_count_{chunk_count},
        outstanding_(pages.begin(), pages.end()) {}

  void on_ack(const net::FlushAck& ack) {
    const auto it = outstanding_.find(ack.page);
    if (it == outstanding_.end()) {
      return;
    }
    outstanding_.erase(it);
    ++sink_->pages_flushed;
    if (outstanding_.empty()) {
      sim_.cancel(timer_);
      cleanup();
    }
  }

  void arm() {
    timer_ = sim_.schedule_at(std::max(last_predicted_, sim_.now()) + ack_grace(rounds_),
                              [self = shared_from_this()] { self->on_timeout(); });
  }

  void on_timeout() {
    if (done_) {
      return;
    }
    ++sink_->timeout_rounds;
    ++rounds_;
    if (rounds_ > kAckMaxRetries) {
      sink_->abandoned += outstanding_.size();
      cleanup();
      return;
    }
    for (const mem::PageId page : outstanding_) {
      last_predicted_ = std::max(
          last_predicted_, fabric_.send(net::Message{src_, home_, wire_.page_message_bytes(),
                                                     net::FlushPage{pid_, page}, page}));
      ++sink_->retransmits;
      if (trace_ != nullptr) {
        trace_->instant(trace::Category::kMigration, "flush_retransmit", sim_.now(), src_, page,
                        rounds_);
      }
    }
    arm();
  }

  void cleanup() {
    done_ = true;
    src_node_->set_flush_ack_handler(pid_, nullptr);
    self_.reset();
  }

  sim::Simulator& sim_;
  net::Fabric& fabric_;
  proc::WireCosts wire_;
  net::NodeId src_;
  net::NodeId home_;
  std::uint64_t pid_;
  cluster::Node* src_node_;
  trace::TraceRecorder* trace_;
  RemigrationEngine::FlushStats* sink_;
  std::uint64_t chunk_count_;
  std::uint64_t chunks_sent_{0};
  std::uint32_t rounds_{0};
  bool done_{false};
  sim::Time last_predicted_{};
  sim::Simulator::EventId timer_;
  std::set<mem::PageId> outstanding_;
  std::shared_ptr<FlushTracker> self_;
};

}  // namespace

RemigrationEngine::RemigrationEngine(Config config) : config_{config} {
  if (config.flush_chunk_pages == 0) {
    throw std::invalid_argument("RemigrationEngine: flush_chunk_pages must be positive");
  }
}

void RemigrationEngine::execute(MigrationContext ctx,
                                std::function<void(MigrationResult)> done) {
  // Outstanding prefetches (H -> B) must land before the address space can
  // be repartitioned; the process is already frozen, so they drain quickly.
  if (ctx.process.aspace().count(mem::PageState::InFlight) > 0) {
    ctx.sim.schedule_after(sim::Time::from_us(500),
                           [this, ctx = std::move(ctx), done = std::move(done)]() mutable {
                             execute(std::move(ctx), std::move(done));
                           });
    return;
  }
  execute_drained(std::move(ctx), std::move(done));
}

void RemigrationEngine::execute_drained(MigrationContext ctx,
                                        std::function<void(MigrationResult)> done) {
  mem::AddressSpace& aspace = ctx.process.aspace();
  mem::PageTable& hpt = ctx.deputy.hpt();
  const net::NodeId home = ctx.process.home_node();
  if (ctx.src == home) {
    throw std::logic_error("RemigrationEngine: process is at home; use a first-hop engine");
  }

  MigrationResult result;
  result.initiated_at = ctx.sim.now();
  result.freeze_begin = ctx.sim.now();

  // Pages parked in the lookaside buffer are physically at B: map them so
  // they join the flushable set.
  const std::uint64_t mapped = aspace.map_all_arrived();

  // Select the three currently-accessed pages among B's local ones.
  const std::array<mem::PageId, 3> current = ctx.process.current_pages();
  std::vector<mem::PageId> carried(current.begin(), current.end());
  std::sort(carried.begin(), carried.end());
  carried.erase(std::unique(carried.begin(), carried.end()), carried.end());
  std::erase_if(carried, [&](mem::PageId p) {
    return aspace.state(p) != mem::PageState::Local;
  });

  auto is_carried = [&](mem::PageId p) {
    return std::find(carried.begin(), carried.end(), p) != carried.end();
  };

  // Repartition: carried pages move with the process; every other B-local
  // page is flushed home (HPT: Incoming until it lands).
  std::vector<mem::PageId> to_flush;
  for (mem::PageId page = 0; page < aspace.page_count(); ++page) {
    switch (aspace.state(page)) {
      case mem::PageState::Local:
        if (is_carried(page)) {
          aspace.carry_over(page);
          if (ctx.ledger != nullptr) {
            ctx.ledger->transfer(page, ctx.src, ctx.dst);
          }
        } else {
          aspace.demote_to_remote(page);
          hpt.set_loc(page, mem::PageTable::Loc::Incoming);
          to_flush.push_back(page);
        }
        break;
      case mem::PageState::Remote:
      case mem::PageState::Unallocated:
        break;  // stays at home / nonexistent
      default:
        throw std::logic_error("RemigrationEngine: undrained page state at freeze");
    }
  }
  result.pages_transferred = carried.size();
  result.pages_sent_total = carried.size();

  // --- freeze-time transfer B -> C -----------------------------------------
  const double src_speed = ctx.src_costs.cpu_speed;
  const auto page_count = static_cast<std::int64_t>(aspace.page_count());
  const sim::Time setup = ctx.src_costs.freeze_setup.scaled(1.0 / src_speed) +
                          ctx.src_costs.map_page.scaled(1.0 / src_speed) *
                              static_cast<std::int64_t>(mapped);
  sim::Time pack = ctx.src_costs.pack_page.scaled(1.0 / src_speed) *
                   static_cast<std::int64_t>(carried.size());
  sim::Bytes mpt_bytes = 0;
  sim::Time mpt_unpack = sim::Time::zero();
  if (config_.ship_mpt) {
    mpt_bytes = aspace.page_count() * mem::kMptEntryBytes;
    pack += ctx.src_costs.mpt_pack_entry.scaled(1.0 / src_speed) * page_count;
    mpt_unpack = ctx.dst_costs.mpt_unpack_entry.scaled(1.0 / ctx.dst_costs.cpu_speed) *
                 page_count;
  }
  const sim::Bytes page_bytes =
      static_cast<sim::Bytes>(carried.size()) * ctx.wire.page_message_bytes();
  result.bytes_transferred = ctx.wire.pcb_bytes + page_bytes + mpt_bytes;

  const sim::Time send_at = ctx.sim.now() + setup + pack;
  ctx.sim.schedule_at(send_at, [ctx, done = std::move(done), result, page_bytes, mpt_bytes,
                                mpt_unpack, to_flush = std::move(to_flush),
                                flush_chunk = config_.flush_chunk_pages, home,
                                sink = &flush_stats_]() mutable {
    const std::uint64_t pid = ctx.process.pid();
    ctx.fabric.send(net::Message{
        ctx.src, ctx.dst, ctx.wire.pcb_bytes,
        net::MigrationChunk{pid, net::MigrationChunk::Kind::Pcb, 1, false}});
    sim::Time last_arrival = ctx.fabric.send(net::Message{
        ctx.src, ctx.dst, page_bytes,
        net::MigrationChunk{pid, net::MigrationChunk::Kind::CurrentPages,
                            result.pages_transferred, mpt_bytes == 0}});
    if (mpt_bytes > 0) {
      last_arrival = ctx.fabric.send(net::Message{
          ctx.src, ctx.dst, mpt_bytes,
          net::MigrationChunk{pid, net::MigrationChunk::Kind::MasterPageTable, 1, true}});
    }

    const sim::Time unpack =
        ctx.dst_costs.unpack_page.scaled(1.0 / ctx.dst_costs.cpu_speed) *
            static_cast<std::int64_t>(result.pages_transferred) +
        mpt_unpack + ctx.dst_costs.restore_setup.scaled(1.0 / ctx.dst_costs.cpu_speed);

    // --- background flush B -> H, after the freeze transfer -----------------
    // B's kernel streams the left-behind pages home; they ride behind the
    // freeze chunks on B's TX port. In reliable mode a FlushTracker follows
    // the stream against the deputy's acks and re-flushes losses.
    std::shared_ptr<FlushTracker> tracker;
    if (ctx.reliable() && !to_flush.empty()) {
      const std::uint64_t chunk_count =
          (to_flush.size() + flush_chunk - 1) / flush_chunk;
      tracker = FlushTracker::create(ctx, home, to_flush, sink, chunk_count);
    }
    sim::Time flush_pack_done = ctx.sim.now();
    const sim::Time pack_per_page =
        ctx.src_costs.pack_page.scaled(1.0 / ctx.src_costs.cpu_speed);
    for (std::uint64_t first = 0; first < to_flush.size(); first += flush_chunk) {
      const std::uint64_t count =
          std::min<std::uint64_t>(flush_chunk, to_flush.size() - first);
      flush_pack_done += pack_per_page * static_cast<std::int64_t>(count);
      std::vector<mem::PageId> chunk(to_flush.begin() + static_cast<std::ptrdiff_t>(first),
                                     to_flush.begin() +
                                         static_cast<std::ptrdiff_t>(first + count));
      ctx.sim.schedule_at(flush_pack_done,
                          [&fabric = ctx.fabric, src = ctx.src, home, pid,
                           wire = ctx.wire, chunk = std::move(chunk), tracker] {
                            sim::Time last{};
                            for (const mem::PageId page : chunk) {
                              last = std::max(
                                  last,
                                  fabric.send(net::Message{src, home,
                                                           wire.page_message_bytes(),
                                                           net::FlushPage{pid, page}, page}));
                            }
                            if (tracker != nullptr) {
                              tracker->chunk_sent(last);
                            }
                          });
    }

    ctx.sim.schedule_at(last_arrival + unpack, [ctx, done = std::move(done), result]() mutable {
      result.resume_at = ctx.sim.now();
      MigrationEngine::finish_resume(ctx, result, done);
    });
  });
}

}  // namespace ampom::migration
