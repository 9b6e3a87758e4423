#pragma once
// Wire messages exchanged between nodes.
//
// The network layer is deliberately independent of the memory and process
// subsystems: payloads carry opaque 64-bit ids. Wire sizes are set by the
// senders (protocol code in migration/, proc/, cluster/), so framing
// overheads live with the protocol definitions, not here.

#include <cstdint>
#include <variant>
#include <vector>

#include "simcore/time.hpp"
#include "simcore/units.hpp"

namespace ampom::net {

using NodeId = std::uint32_t;
inline constexpr NodeId kInvalidNode = static_cast<NodeId>(-1);

inline constexpr std::uint64_t kNoPage = static_cast<std::uint64_t>(-1);

// Remote paging: a migrant asks its home node for a batch of pages. `urgent`
// is the page the process is blocked on (kNoPage for pure prefetch batches).
struct PageRequest {
  std::uint64_t pid{0};
  std::uint64_t request_id{0};
  std::vector<std::uint64_t> pages;
  std::uint64_t urgent{kNoPage};
};

// Remote paging: one page of data streamed back by the deputy.
struct PageData {
  std::uint64_t pid{0};
  std::uint64_t request_id{0};
  std::uint64_t page{0};
  bool urgent{false};
};

// Process migration: one chunk of the freeze-time transfer. `seq` and
// `total_chunks` are populated only by the reliable (ack'd) protocol; the
// classic fast path leaves them zero and tracks arrivals via the fabric's
// predicted delivery times.
struct MigrationChunk {
  enum class Kind : std::uint8_t {
    Pcb,              // registers, kernel state
    DirtyPages,       // openMosix: the full dirty set
    CurrentPages,     // FFA-style: the currently-accessed code/data/stack pages
    MasterPageTable,  // AMPoM: the MPT (6 bytes per page)
  };
  std::uint64_t pid{0};
  Kind kind{Kind::Pcb};
  std::uint64_t item_count{0};
  bool last{false};
  std::uint64_t seq{0};           // 1-based chunk sequence (reliable mode)
  std::uint64_t total_chunks{0};  // chunks in this transfer (reliable mode)
};

// Reliable migration: destination acknowledges one received chunk.
struct MigrationAck {
  std::uint64_t pid{0};
  std::uint64_t seq{0};
};

// InfoDaemon load-update ping; the ack round-trip measures t0 (paper §4).
struct LoadPing {
  std::uint64_t seq{0};
  sim::Time sent_at{};
  double cpu_load{0.0};
};
struct LoadAck {
  std::uint64_t seq{0};
  sim::Time ping_sent_at{};
  double cpu_load{0.0};
};

// System call redirected to the home node (openMosix home dependency).
struct SyscallRequest {
  std::uint64_t pid{0};
  std::uint64_t seq{0};
};
struct SyscallReply {
  std::uint64_t pid{0};
  std::uint64_t seq{0};
};

// Re-migration: a page the previous host flushes back to the home node
// (the process moved on; its old host's pages return to the deputy).
struct FlushPage {
  std::uint64_t pid{0};
  std::uint64_t page{0};
};

// Reliable re-migration: the deputy confirms a flushed page landed.
struct FlushAck {
  std::uint64_t pid{0};
  std::uint64_t page{0};
};

// Opaque competing traffic (load generators, other jobs).
struct Background {};

// Epidemic load dissemination (the scalable InfoDaemon mode). One entry of
// the piggybacked digest: the origin node's load stamped with the origin's
// monotone version counter. The version doubles as the heartbeat — a
// receiver that sees it advance knows the origin was alive when it bumped
// it, no matter how many hops the entry took. `cache_pressure` is on the
// wire only in worlds that gossip cache digests (GossipConfig::cache_digest,
// set for the whole world by ClusterSim), where an entry takes 32 wire bytes
// instead of 24; elsewhere every sender leaves it, and the sender's own
// pressure on the ping and ack, at 0.0.
struct GossipEntry {
  NodeId node{kInvalidNode};
  std::uint64_t version{0};
  double load{0.0};
  double cache_pressure{0.0};
};

// A gossip round-trip: like LoadPing/LoadAck (the ack still measures t0),
// but carrying the sender's version and a digest of recently-changed
// entries so load and liveness spread transitively through the fan-out.
struct GossipPing {
  std::uint64_t seq{0};
  sim::Time sent_at{};
  double cpu_load{0.0};
  std::uint64_t sender_version{0};
  std::vector<GossipEntry> digest;
  double cache_pressure{0.0};  // sender's own
};
struct GossipAck {
  std::uint64_t seq{0};
  sim::Time ping_sent_at{};
  double cpu_load{0.0};
  std::uint64_t sender_version{0};
  double cache_pressure{0.0};  // sender's own
};

// Gossip payloads are appended after Background so the pre-gossip
// alternative indices (and payload_name cases) stay stable.
using Payload = std::variant<PageRequest, PageData, MigrationChunk, MigrationAck, LoadPing,
                             LoadAck, SyscallRequest, SyscallReply, FlushPage, FlushAck,
                             Background, GossipPing, GossipAck>;

struct Message {
  NodeId src{kInvalidNode};
  NodeId dst{kInvalidNode};
  sim::Bytes wire_bytes{0};
  Payload payload;
  // Correlation id threaded through the protocol layers so observability
  // can follow one request across fabric, deputy and paging client
  // (paging: request_id; migration: chunk seq; syscalls: seq). Zero means
  // "uncorrelated"; the field never influences protocol behavior.
  std::uint64_t corr{0};
};

// Stable short name of the payload alternative (trace/event labels).
[[nodiscard]] constexpr const char* payload_name(const Payload& p) {
  switch (p.index()) {
    case 0:
      return "PageRequest";
    case 1:
      return "PageData";
    case 2:
      return "MigrationChunk";
    case 3:
      return "MigrationAck";
    case 4:
      return "LoadPing";
    case 5:
      return "LoadAck";
    case 6:
      return "SyscallRequest";
    case 7:
      return "SyscallReply";
    case 8:
      return "FlushPage";
    case 9:
      return "FlushAck";
    case 10:
      return "Background";
    case 11:
      return "GossipPing";
    case 12:
      return "GossipAck";
  }
  return "?";
}

}  // namespace ampom::net
