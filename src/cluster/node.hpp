#pragma once
// A cluster node: CPU description, background load, and the message router
// that dispatches fabric deliveries to the protocol components living on
// the node (deputy, paging client, info daemon, executor syscall channel).

#include <cstdint>
#include <functional>
#include <map>

#include "cluster/infod.hpp"
#include "net/fabric.hpp"
#include "proc/costs.hpp"
#include "proc/deputy.hpp"
#include "proc/executor.hpp"
#include "proc/paging_client.hpp"

namespace ampom::cluster {

class Node {
 public:
  Node(sim::Simulator& simulator, net::Fabric& fabric, net::NodeId id, proc::NodeCosts costs);

  [[nodiscard]] net::NodeId id() const { return id_; }
  [[nodiscard]] const proc::NodeCosts& costs() const { return costs_; }
  [[nodiscard]] proc::NodeCosts& costs() { return costs_; }

  // CPU share available to a migrant on this node.
  [[nodiscard]] double cpu_share() const { return 1.0 - background_load_; }
  void set_background_load(double load);

  // Component registration, demultiplexed by pid (a node hosts one deputy
  // per locally-homed process and one paging client per migrant).
  void set_deputy(std::uint64_t pid, proc::Deputy* deputy) { deputies_[pid] = deputy; }
  void set_paging_client(std::uint64_t pid, proc::PagingClient* client) {
    paging_clients_[pid] = client;
  }
  void set_syscall_executor(std::uint64_t pid, proc::Executor* executor) {
    syscall_executors_[pid] = executor;
  }
  void set_infod(InfoDaemon* infod) { infod_ = infod; }

  // Reliable-migration hooks: the engine registers these on the destination
  // (chunks) and source (acks) for the duration of a transfer. Unregistered
  // chunk/ack arrivals are ignored — the classic engines track arrivals via
  // the fabric's predicted delivery times and never register.
  using ChunkHandler = std::function<void(net::NodeId, const net::MigrationChunk&)>;
  using AckHandler = std::function<void(net::NodeId, const net::MigrationAck&)>;
  using FlushAckHandler = std::function<void(const net::FlushAck&)>;
  void set_migration_chunk_handler(std::uint64_t pid, ChunkHandler fn) {
    chunk_handlers_[pid] = std::move(fn);
  }
  void set_migration_ack_handler(std::uint64_t pid, AckHandler fn) {
    ack_handlers_[pid] = std::move(fn);
  }
  void set_flush_ack_handler(std::uint64_t pid, FlushAckHandler fn) {
    flush_ack_handlers_[pid] = std::move(fn);
  }
  void clear_migration_handlers(std::uint64_t pid) {
    chunk_handlers_.erase(pid);
    ack_handlers_.erase(pid);
  }

  [[nodiscard]] InfoDaemon* infod() { return infod_; }

 private:
  void dispatch(const net::Message& msg);

  sim::Simulator& sim_;
  net::Fabric& fabric_;
  net::NodeId id_;
  proc::NodeCosts costs_;
  double background_load_{0.0};

  template <typename T>
  [[nodiscard]] T* lookup(const std::map<std::uint64_t, T*>& components, std::uint64_t pid,
                          const char* what) const;

  std::map<std::uint64_t, proc::Deputy*> deputies_;
  std::map<std::uint64_t, proc::PagingClient*> paging_clients_;
  std::map<std::uint64_t, proc::Executor*> syscall_executors_;
  std::map<std::uint64_t, ChunkHandler> chunk_handlers_;
  std::map<std::uint64_t, AckHandler> ack_handlers_;
  std::map<std::uint64_t, FlushAckHandler> flush_ack_handlers_;
  InfoDaemon* infod_{nullptr};
};

}  // namespace ampom::cluster
