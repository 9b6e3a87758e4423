#pragma once
// Ack'd chunk transfer: the reliable migration protocol's transport.
//
// The source sends the freeze-time chunks with sequence numbers; the
// destination's node router acks each one (control-size MigrationAck). A
// source-side timer armed at the predicted arrival of the last outstanding
// chunk plus an ack grace period retransmits whatever is still unacked,
// backing off per round; exhausting kAckMaxRetries declares the destination
// lost. Delivery completion is judged at the destination (all chunks
// actually received), so the engine resumes the process only on state it
// really has — on a fault-free run that instant equals the classic
// predicted-arrival timeline.
//
// Two-generals note: if the destination received everything but every ack
// was lost, a real system could not distinguish this from a dead peer. The
// simulator can — the transfer object sees both ends — and treats it as
// delivered (the destination has resumed the process; unfreezing the source
// too would fork it). The retransmit/timeout accounting still records the
// wasted rounds.

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "migration/engine.hpp"

namespace ampom::migration {

struct ReliableTransferStats {
  std::uint64_t chunk_retransmits{0};
  std::uint64_t pages_retransmitted{0};
  sim::Bytes bytes_retransmitted{0};
  std::uint64_t duplicate_chunks{0};  // chunks the destination had already seen
  std::uint64_t timeout_rounds{0};
};

class ReliableTransfer : public std::enable_shared_from_this<ReliableTransfer> {
 public:
  struct Item {
    net::MigrationChunk::Kind kind{net::MigrationChunk::Kind::Pcb};
    std::uint64_t item_count{0};
    sim::Bytes wire_bytes{0};
    bool counts_pages{false};  // item_count contributes to page accounting
  };

  // Starts the transfer now. `on_delivered` fires when the last chunk lands
  // at the destination (destination-side time); `on_lost` fires at the
  // source after kAckMaxRetries exhausted timeout rounds with the destination
  // never having completed. Exactly one of the two fires, once.
  static void run(const MigrationContext& ctx, std::vector<Item> items,
                  std::function<void(sim::Time, const ReliableTransferStats&)> on_delivered,
                  std::function<void(const ReliableTransferStats&)> on_lost);

 private:
  ReliableTransfer(const MigrationContext& ctx, std::vector<Item> items);

  void send_round();
  void on_chunk(const net::MigrationChunk& chunk);
  void on_ack(const net::MigrationAck& ack);
  void on_timeout();
  void cleanup();

  sim::Simulator& sim_;
  net::Fabric& fabric_;
  proc::WireCosts wire_;
  net::NodeId src_;
  net::NodeId dst_;
  std::uint64_t pid_;
  cluster::Node* src_node_;
  cluster::Node* dst_node_;
  trace::TraceRecorder* trace_;

  std::vector<Item> items_;
  std::vector<bool> acked_;
  std::vector<bool> received_;
  std::uint64_t acked_count_{0};
  std::uint64_t received_count_{0};
  std::uint32_t rounds_{0};
  bool delivered_{false};
  bool finished_{false};
  sim::Simulator::EventId timer_;
  ReliableTransferStats stats_;
  std::shared_ptr<ReliableTransfer> self_;  // keeps the run alive until done
  std::function<void(sim::Time, const ReliableTransferStats&)> on_delivered_;
  std::function<void(const ReliableTransferStats&)> on_lost_;
};

}  // namespace ampom::migration
