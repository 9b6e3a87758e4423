#pragma once
// Migration engine interface and the shared context.
//
// An engine runs the freeze-time protocol of one mechanism from the paper's
// Fig. 2: openMosix full-dirty-copy, the FFA-variant three-page transfer
// (NoPrefetch), or AMPoM's three-pages-plus-MPT transfer. Engines are
// invoked with the process already frozen, move state across the fabric,
// populate the deputy's HPT, and resume the executor at the destination.

#include <cmath>
#include <cstdint>
#include <functional>

#include "mem/ledger.hpp"
#include "net/fabric.hpp"
#include "proc/costs.hpp"
#include "proc/deputy.hpp"
#include "proc/executor.hpp"
#include "simcore/simulator.hpp"

namespace ampom::cluster {
class Node;
}

namespace ampom::trace {
class TraceRecorder;
}

namespace ampom::migration {

// How a migration attempt ended.
enum class MigrationOutcome : std::uint8_t {
  kCompleted,        // process resumed at the destination
  kAborted,          // engine gave up before committing (e.g. nothing to move)
  kDestinationLost,  // destination stopped acking; process unfrozen at source
};

// Reliable (ack'd) transfer timing. The retransmit timer arms at the
// predicted arrival of the last outstanding chunk plus a grace period of
// kAckGrace, doubling (kAckBackoff) per round; kAckMaxRetries exhausted
// rounds declare the destination lost.
inline constexpr sim::Time kAckGrace = sim::Time::from_ms(2);
inline constexpr double kAckBackoff = 2.0;
inline constexpr std::uint32_t kAckMaxRetries = 4;

// Grace window after the predicted last arrival in retransmit round `round`.
[[nodiscard]] inline sim::Time ack_grace(std::uint32_t round) {
  return kAckGrace.scaled(std::pow(kAckBackoff, static_cast<double>(round)));
}

struct MigrationContext {
  sim::Simulator& sim;
  net::Fabric& fabric;
  proc::WireCosts wire;
  proc::Process& process;
  proc::Executor& executor;
  proc::Deputy& deputy;
  net::NodeId src;
  net::NodeId dst;
  proc::NodeCosts src_costs;
  proc::NodeCosts dst_costs;
  mem::PageLedger* ledger{nullptr};
  // Invoked right before the executor resumes at the destination; scenario
  // builders install the fault policy and flip syscall redirection here.
  std::function<void()> on_before_resume;
  // Reliable mode (optional): the node routers at both ends carry the ack'd
  // chunk protocol. Null nodes select the classic fire-and-forget timeline,
  // byte-identical to the seed engines.
  cluster::Node* src_node{nullptr};
  cluster::Node* dst_node{nullptr};
  // Verification self-test only: commit the page repartition *before* the
  // transfer is acknowledged and skip the rollback when the destination is
  // declared lost — the historical bug class the reliable path exists to
  // prevent. An aborted migration then strands the carried pages' ownership
  // at the dead destination, which the invariant auditor must flag and
  // ampom_fuzz must shrink. Set only by deliberate mutation runs
  // (ClusterSim::mutate_skip_abort_rollback).
  bool mutate_skip_abort_rollback{false};
  // Observability (optional, not owned): migration/phase spans and per-round
  // retransmission markers, correlated by pid. Null = untouched timeline.
  trace::TraceRecorder* trace{nullptr};

  [[nodiscard]] bool reliable() const { return src_node != nullptr && dst_node != nullptr; }
};

struct MigrationResult {
  sim::Time initiated_at{};  // when the mechanism started working
  sim::Time freeze_begin{};  // when the process stopped executing
  sim::Time resume_at{};     // on kDestinationLost: when the source unfroze
  sim::Bytes bytes_transferred{0};
  std::uint64_t pages_transferred{0};  // pages living at the destination after resume
  std::uint64_t pages_sent_total{0};   // includes pre-copy resends and retransmits
  MigrationOutcome outcome{MigrationOutcome::kCompleted};
  std::uint64_t chunk_retransmits{0};    // reliable mode: chunks re-sent after timeout
  std::uint64_t pages_retransmitted{0};  // pages inside those re-sent chunks

  [[nodiscard]] sim::Time freeze_time() const { return resume_at - freeze_begin; }
  // Wall time the mechanism occupied the network/CPU (pre-copy >> freeze).
  [[nodiscard]] sim::Time migration_span() const { return resume_at - initiated_at; }
  // Pages that crossed the wire more than once. Two distinct sources feed
  // this: pre-copy delta rounds re-sending pages the process dirtied between
  // iterations (a deliberate cost of the kPreCopy scheme), and timeout-driven
  // retransmissions by the reliable protocol (loss recovery; itemized
  // separately in pages_retransmitted). pages_sent_total accumulates both,
  // so the difference surfaces every duplicate page send of either kind.
  [[nodiscard]] std::uint64_t pages_resent() const {
    return pages_sent_total > pages_transferred ? pages_sent_total - pages_transferred : 0;
  }
  [[nodiscard]] bool completed() const { return outcome == MigrationOutcome::kCompleted; }
};

class MigrationEngine {
 public:
  virtual ~MigrationEngine() = default;
  MigrationEngine() = default;
  MigrationEngine(const MigrationEngine&) = delete;
  MigrationEngine& operator=(const MigrationEngine&) = delete;

  [[nodiscard]] virtual const char* name() const = 0;

  // True (default) = migrate_process freezes the process before execute();
  // false = the engine runs alongside the process and freezes it itself
  // (pre-copy mechanisms).
  [[nodiscard]] virtual bool needs_freeze_first() const { return true; }

  // Precondition: ctx.process is Frozen iff needs_freeze_first(). Calls
  // `done` at resume time. Engines commit cross-partition state (placement,
  // HPT ownership, load accounting): migrate_process hops to the barrier
  // context before invoking this.
  // ampom: global-only
  virtual void execute(MigrationContext ctx, std::function<void(MigrationResult)> done) = 0;

  // Shared resume tail: HPT service start, policy hook, executor resume.
  // Public so engine-internal run objects can call it.
  static void finish_resume(MigrationContext& ctx, MigrationResult result,
                            const std::function<void(MigrationResult)>& done);

  // Shared abort tail (reliable mode): the destination is presumed dead, so
  // the process unfreezes in place at the source with nothing moved.
  static void abort_unfreeze(MigrationContext& ctx, MigrationResult result,
                             MigrationOutcome outcome,
                             const std::function<void(MigrationResult)>& done);
};

// Orchestrates request_freeze -> engine.execute.
void migrate_process(MigrationContext ctx, MigrationEngine& engine,
                     std::function<void(MigrationResult)> done);

}  // namespace ampom::migration
