#pragma once
// ampom_fuzz: randomized chaos-scenario fuzzing with automatic shrinking.
//
// The fuzzer samples cluster topologies, workload mixes and chaos campaigns
// through the same declarative surface the builder exposes (ChaosPlan /
// FaultPlan), runs each case in a ClusterSim under the InvariantAuditor,
// and treats three things as failure: an invariant violation, any other
// exception out of the run, and a run that misses its deadline (livelock).
// A failing case is then delta-debugged — campaigns dropped, probabilistic
// loss zeroed, jobs removed, nodes and workload sizes reduced — to the
// smallest case that still fails, which serializes to a standalone repro
// file any future session can replay with `ampom_fuzz --repro=FILE`.
//
// Everything is pure function of the case: generate_case(seed) is
// deterministic, run_case builds a private ClusterSim, and the repro format
// round-trips exactly (times are whole milliseconds by construction).

#include <cstdint>
#include <string>
#include <vector>

#include "cluster/chaos.hpp"
#include "simcore/time.hpp"

namespace ampom::fuzz {

// One process in the scenario. Homes are always node 0 and node 0 is never
// crashed by generated campaigns: a dead home kills deputy and ledger with
// no recovery protocol in the model, so "home survives" is a precondition,
// not a property under test.
struct FuzzJob {
  net::NodeId home{0};
  std::uint64_t memory_mib{4};
  std::uint64_t hot_pages{128};
  std::uint64_t touches{40000};
  std::uint32_t cold_pct{5};  // percent of touches going to cold pages
  // Scripted first-hop migration (zero = none). Guarded at fire time: only
  // taken if the process is still at home and migratable.
  sim::Time migrate_at{};
  net::NodeId migrate_dst{0};
};

struct FuzzCase {
  std::uint64_t seed{1};
  std::size_t nodes{4};
  std::uint32_t drop_pct{0};  // per-message drop probability, percent
  std::vector<FuzzJob> jobs;
  cluster::ChaosPlan chaos;
  sim::Time deadline{sim::Time::from_sec(30)};
  // Verification self-test: reintroduce the skipped abort rollback
  // (ClusterSim::mutate_skip_abort_rollback).
  bool mutate_skip_abort_rollback{false};
  // Run with the memory-hierarchy model on and the balancer scoring
  // destinations cache-aware (Placement::kCacheAware) so CPMD charges and
  // pressure-driven picks are exercised under chaos too.
  bool cache_policy{false};

  [[nodiscard]] std::size_t fault_count() const {
    return cluster::expand_chaos(chaos, nodes).fault_count();
  }
};

struct FuzzResult {
  bool ok{true};
  bool finished{true};      // false: deadline passed with processes unfinished
  std::string failure;      // violation / exception text when !ok
  std::string trail;        // auditor audit trail when !ok
  std::uint64_t violations{0};
  std::uint64_t crashes{0};  // recovery stats, for campaign summaries
  std::uint64_t rehomes{0};
  std::uint64_t heals{0};
};

// Deterministic scenario sampler: same seed, same case.
[[nodiscard]] FuzzCase generate_case(std::uint64_t seed);

// Build the world (AMPoM scheme, reliable protocols, recovery tracking,
// balancer as pure failure handler), run under the auditor, classify.
[[nodiscard]] FuzzResult run_case(const FuzzCase& fuzz_case);

struct ShrinkStats {
  std::size_t attempts{0};  // candidate runs tried
  std::size_t accepted{0};  // candidates that still failed (reductions kept)
};

// Greedy ddmin-style fixpoint: try one reduction at a time, keep it iff the
// reduced case still fails, repeat until no reduction survives.
[[nodiscard]] FuzzCase shrink_case(const FuzzCase& failing, ShrinkStats* stats = nullptr);

// Standalone repro text ("# ampom_fuzz repro v1"); parse_case throws
// std::invalid_argument on malformed input. parse(serialize(c)) == c.
[[nodiscard]] std::string serialize_case(const FuzzCase& fuzz_case);
[[nodiscard]] FuzzCase parse_case(const std::string& text);

}  // namespace ampom::fuzz
