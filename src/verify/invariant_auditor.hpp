#pragma once
// InvariantAuditor: the run-wide correctness oracle for chaos scenarios.
//
// The per-structure checks that already exist (PageLedger throws on a bad
// transfer, Deputy throws on an unservable request) each see one object;
// none of them can say "this page is now owned by two nodes" or "this
// process will never run again". The auditor can: it registers as the
// ClusterSim's WorldObserver and cross-checks the *global* state — every
// process's address space against its deputy's HPT against the ownership
// ledger — at configurable epochs and at the transition points where the
// protocol is most likely to lose state (migration commit, migration abort,
// rehoming, run end).
//
// Invariant catalog (the *why* behind each lives in DESIGN.md §13):
//   I1  page-ownership conservation — every page has exactly one owner, and
//       the owner is consistent with both page tables; an aborted migration
//       leaves nothing owned by the dead destination.
//   I2  process conservation — reference progress is monotone, freezes at
//       finish, and a migrant stranded on a crashed node is Frozen or
//       Finished (never silently executing on a dead host).
//   I3  deputy/migrant pairing — a settled migrant runs exactly where its
//       deputy believes it runs.
//   I4  sequence monotonicity — per (process, node) paging channel, request
//       ids never go backwards.
//   I5  heartbeat convergence — once faults quiesce and a majority survives,
//       the surviving views agree with ground truth about who is dead.
//
// Zero-overhead-when-off: constructing no auditor leaves ClusterSim's
// observer null and schedules nothing — runs are bit-identical to pre-PR
// binaries. With an auditor, epoch events are read-only and FIFO-appended,
// so they never reorder the simulation's own events either.

#include <cstdint>
#include <deque>
#include <map>
#include <stdexcept>
#include <string>

#include "balancer/cluster_sim.hpp"
#include "verify/observer.hpp"

namespace ampom::verify {

struct AuditorConfig {
  // Period of the standing sweep over all processes (zero = trigger events
  // only). The epoch is an observer event (Simulator::observe_at), so the
  // sweeps leave the schedule unchanged. It re-arms itself for the whole
  // run; ClusterSim halts the simulator when every process finishes, so it
  // never keeps a run alive.
  sim::Time epoch{sim::Time::from_ms(25)};
  bool throw_on_violation{true};  // false: count + record, keep running
  std::size_t trail_limit{64};    // audit-trail ring size (events kept)
};

// Thrown on the first violation when throw_on_violation is set. what() is
// the violation plus the recent audit trail — the context a repro needs.
class InvariantViolation : public std::runtime_error {
 public:
  explicit InvariantViolation(const std::string& what) : std::runtime_error(what) {}
};

class InvariantAuditor final : public WorldObserver {
 public:
  // Registers as `world`'s observer and, if config.epoch > 0, starts the
  // epoch sweep. The auditor must outlive the run.
  explicit InvariantAuditor(balancer::ClusterSim& world, AuditorConfig config = {});
  ~InvariantAuditor() override;

  [[nodiscard]] std::uint64_t epochs_run() const { return epochs_run_; }
  [[nodiscard]] std::uint64_t checks_run() const { return checks_run_; }
  [[nodiscard]] std::uint64_t violations() const { return violations_; }
  // First violation message ("" if none) — the headline a repro file carries.
  [[nodiscard]] const std::string& first_violation() const { return first_violation_; }
  // Recent events, oldest first, one per line.
  [[nodiscard]] std::string trail() const;

  // WorldObserver hooks (trigger events).
  void on_started(balancer::ProcessHost& host) override;
  void on_migration_committed(balancer::ProcessHost& host, net::NodeId src,
                              net::NodeId dst) override;
  void on_migration_aborted(balancer::ProcessHost& host, net::NodeId src,
                            net::NodeId dst) override;
  void on_node_crashed(net::NodeId node) override;
  void on_node_restored(net::NodeId node) override;
  void on_rehomed(balancer::ProcessHost& host) override;
  void on_finished(balancer::ProcessHost& host) override;
  void on_run_end() override;

 private:
  // Per-process bookkeeping carried between checks.
  struct HostState {
    std::uint64_t prev_refs{0};
    std::uint64_t refs_at_finish{0};
    bool finished_seen{false};
    std::map<net::NodeId, std::uint64_t> last_request_id;
  };

  void record(std::string line);
  void violation(const std::string& message);
  void epoch_sweep();

  // I1 + the pairing half of I3 for one process. Strict mode also audits a
  // process that is mid-migration or not yet started (trigger events call it
  // at instants where the state must already be settled).
  void audit_pages(balancer::ProcessHost& host);
  // I2 progress/zombie checks; `at_run_end` additionally demands the stream
  // was fully consumed.
  void audit_process(balancer::ProcessHost& host, bool at_run_end);
  // I4 for every paging channel of one process.
  void audit_sequences(balancer::ProcessHost& host);
  // I5, gated on fault quiescence and a surviving majority.
  void audit_convergence();

  balancer::ClusterSim& world_;
  AuditorConfig config_;
  std::map<std::uint64_t, HostState> states_;
  std::deque<std::string> trail_;
  std::uint64_t epochs_run_{0};
  std::uint64_t checks_run_{0};
  std::uint64_t violations_{0};
  std::string first_violation_;
};

}  // namespace ampom::verify
