#include "migration/reliable.hpp"

#include <stdexcept>

#include "cluster/node.hpp"
#include "trace/trace.hpp"

namespace ampom::migration {

ReliableTransfer::ReliableTransfer(const MigrationContext& ctx, std::vector<Item> items)
    : sim_{ctx.sim},
      fabric_{ctx.fabric},
      wire_{ctx.wire},
      src_{ctx.src},
      dst_{ctx.dst},
      pid_{ctx.process.pid()},
      src_node_{ctx.src_node},
      dst_node_{ctx.dst_node},
      trace_{ctx.trace},
      items_{std::move(items)},
      acked_(items_.size(), false),
      received_(items_.size(), false) {
  if (items_.empty()) {
    throw std::logic_error("ReliableTransfer: no chunks to send");
  }
}

void ReliableTransfer::run(const MigrationContext& ctx, std::vector<Item> items,
                           std::function<void(sim::Time, const ReliableTransferStats&)> on_delivered,
                           std::function<void(const ReliableTransferStats&)> on_lost) {
  if (!ctx.reliable()) {
    throw std::logic_error("ReliableTransfer::run without reliable context (both node routers)");
  }
  auto self = std::shared_ptr<ReliableTransfer>(new ReliableTransfer(ctx, std::move(items)));
  self->self_ = self;
  self->on_delivered_ = std::move(on_delivered);
  self->on_lost_ = std::move(on_lost);
  self->dst_node_->set_migration_chunk_handler(
      self->pid_, [self](net::NodeId, const net::MigrationChunk& chunk) { self->on_chunk(chunk); });
  self->src_node_->set_migration_ack_handler(
      self->pid_, [self](net::NodeId, const net::MigrationAck& ack) { self->on_ack(ack); });
  self->send_round();
}

void ReliableTransfer::send_round() {
  const std::uint64_t total = items_.size();
  const bool first_round = rounds_ == 0;
  sim::Time last_predicted = sim_.now();
  for (std::uint64_t i = 0; i < total; ++i) {
    if (acked_[i]) {
      continue;
    }
    const Item& item = items_[i];
    net::MigrationChunk chunk;
    chunk.pid = pid_;
    chunk.kind = item.kind;
    chunk.item_count = item.item_count;
    chunk.last = i + 1 == total;
    chunk.seq = i + 1;
    chunk.total_chunks = total;
    last_predicted = fabric_.send(net::Message{src_, dst_, item.wire_bytes, chunk, chunk.seq});
    if (!first_round) {
      ++stats_.chunk_retransmits;
      stats_.bytes_retransmitted += item.wire_bytes;
      if (item.counts_pages) {
        stats_.pages_retransmitted += item.item_count;
      }
      if (trace_ != nullptr) {
        trace_->instant(trace::Category::kMigration, "chunk_retransmit", sim_.now(), src_,
                        chunk.seq, item.item_count, rounds_);
      }
    }
  }
  // Arm the round timer past the predicted arrival of the slowest chunk,
  // plus a grace window for the ack leg that widens per round.
  timer_ = sim_.schedule_at(last_predicted + ack_grace(rounds_), [self = shared_from_this()] {
    self->on_timeout();
  });
}

void ReliableTransfer::on_chunk(const net::MigrationChunk& chunk) {
  if (chunk.seq == 0 || chunk.seq > received_.size()) {
    throw std::logic_error("ReliableTransfer: chunk with out-of-range sequence number");
  }
  // Always ack — the ack for an earlier copy may have been lost.
  fabric_.send(net::Message{dst_, src_, wire_.control_message,
                            net::MigrationAck{pid_, chunk.seq}, chunk.seq});
  const std::uint64_t idx = chunk.seq - 1;
  if (received_[idx]) {
    ++stats_.duplicate_chunks;
    return;
  }
  received_[idx] = true;
  ++received_count_;
  if (received_count_ == received_.size() && !delivered_) {
    delivered_ = true;
    if (on_delivered_) {
      on_delivered_(sim_.now(), stats_);
    }
  }
}

void ReliableTransfer::on_ack(const net::MigrationAck& ack) {
  if (finished_ || ack.seq == 0 || ack.seq > acked_.size()) {
    return;
  }
  const std::uint64_t idx = ack.seq - 1;
  if (acked_[idx]) {
    return;
  }
  acked_[idx] = true;
  ++acked_count_;
  if (acked_count_ == acked_.size()) {
    sim_.cancel(timer_);
    cleanup();
  }
}

void ReliableTransfer::on_timeout() {
  if (finished_) {
    return;
  }
  ++stats_.timeout_rounds;
  ++rounds_;
  if (rounds_ > kAckMaxRetries) {
    const bool lost = !delivered_;
    auto lost_cb = std::move(on_lost_);  // cleanup() clears the members
    cleanup();
    if (lost && lost_cb) {
      lost_cb(stats_);
    }
    // delivered_ but acks never made it back: the destination already
    // resumed the process (see the two-generals note in the header); the
    // source just stops retransmitting.
    return;
  }
  send_round();
}

void ReliableTransfer::cleanup() {
  finished_ = true;
  src_node_->clear_migration_handlers(pid_);
  dst_node_->clear_migration_handlers(pid_);
  on_delivered_ = nullptr;
  on_lost_ = nullptr;
  self_.reset();
}

}  // namespace ampom::migration
