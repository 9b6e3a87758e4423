#pragma once
// ExecPolicy: the one knob block for how much hardware a run may use.
//
// Two independent axes, historically spread over ad-hoc per-binary flags:
//   jobs    — inter-run parallelism: how many scenarios a sweep pool runs
//             concurrently (SweepExecutor, bench harness --jobs=N).
//   workers — intra-run parallelism: how many OS threads one partitioned
//             simulation uses (Simulator::configure_partitions, --workers=N);
//             SweepExecutor copies it into every Scenario::workers left 0.
//             0 selects the exact legacy single-queue engine; >= 1 selects
//             the partitioned conservative engine, whose schedule is a pure
//             function of the scenario — workers=1 and workers=N runs are
//             bit-identical (DESIGN.md §15).
//
// The two compose: a sweep can run 4 scenarios at once, each on 4 workers.
// Both engines are deterministic, so neither axis changes any result.

#include <cstddef>
#include <cstdlib>
#include <string>

namespace ampom::driver {

struct ExecPolicy {
  std::size_t jobs{1};     // sweep pool width; 0 = one per hardware thread
  std::size_t workers{0};  // simulator threads; 0 = legacy serial engine

  // Parses "--jobs=N" / "--workers=N" into the policy. Returns false when
  // `arg` is neither flag (the caller keeps handling its own options).
  bool parse_flag(const std::string& arg) {
    if (arg.rfind("--jobs=", 0) == 0) {
      jobs = static_cast<std::size_t>(std::strtoull(arg.c_str() + 7, nullptr, 10));
      return true;
    }
    if (arg.rfind("--workers=", 0) == 0) {
      workers = static_cast<std::size_t>(std::strtoull(arg.c_str() + 10, nullptr, 10));
      return true;
    }
    return false;
  }
};

}  // namespace ampom::driver
