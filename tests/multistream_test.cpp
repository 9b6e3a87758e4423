// Tests of the §7 extension: partitioned lookback windows for migrants
// whose reference stream interleaves several independent sequential
// streams (the virtual-machine scenario the paper sketches as future work).

#include <gtest/gtest.h>

#include "driver/runner.hpp"
#include "workload/synthetic.hpp"

namespace ampom::driver {
namespace {

using sim::Time;

// `cursors` interleaved sequential walks, far enough apart that each lands
// in its own address-space partition.
Scenario interleaved_scenario(std::uint64_t cursors, std::size_t partitions) {
  Scenario s;
  s.scheme = Scheme::Ampom;
  s.memory_mib = 16;
  s.workload_label = "interleaved";
  s.make_workload = [cursors] {
    return std::make_unique<workload::InterleavedStream>(16 * sim::kMiB, cursors,
                                                         Time::from_us(15));
  };
  s.ampom.window_partitions = partitions;
  return s;
}

TEST(MultiStream, ZeroPartitionsRejected) {
  Scenario s = interleaved_scenario(2, 0);
  EXPECT_THROW(run_experiment(s), std::invalid_argument);
}

TEST(MultiStream, SinglePartitionHandlesFewStreams) {
  // 3 interleaved cursors produce stride-3 patterns: within dmax = 4, the
  // single-window paper algorithm already prefetches well.
  const RunMetrics m = run_experiment(interleaved_scenario(3, 1));
  EXPECT_GT(m.prevented_fault_fraction(), 0.9);
}

TEST(MultiStream, ManyStreamsDefeatTheSingleWindow) {
  // 8 interleaved cursors -> stride-8 patterns, invisible at dmax = 4. The
  // single window falls back to the read-ahead floor.
  const RunMetrics single = run_experiment(interleaved_scenario(8, 1));
  const RunMetrics split = run_experiment(interleaved_scenario(8, 8));
  EXPECT_GT(split.prevented_fault_fraction(), single.prevented_fault_fraction());
  EXPECT_LT(split.remote_fault_requests, single.remote_fault_requests);
  EXPECT_LE(split.total_time, single.total_time);
}

TEST(MultiStream, PartitioningIsHarmlessOnSequentialWorkloads) {
  Scenario seq;
  seq.scheme = Scheme::Ampom;
  seq.memory_mib = 16;
  seq.workload_label = "sequential";
  seq.make_workload = [] {
    return std::make_unique<workload::SequentialStream>(16 * sim::kMiB, 2, Time::from_us(15));
  };
  const RunMetrics one = run_experiment(seq);
  seq.ampom.window_partitions = 4;
  const RunMetrics four = run_experiment(seq);
  // A single sequential stream crosses partition boundaries only 3 times;
  // both configurations prevent nearly everything.
  EXPECT_GT(one.prevented_fault_fraction(), 0.95);
  EXPECT_GT(four.prevented_fault_fraction(), 0.95);
}

TEST(MultiStream, LedgerIntactUnderPartitioning) {
  const RunMetrics m = run_experiment(interleaved_scenario(6, 6));
  EXPECT_TRUE(m.ledger_ok);
  EXPECT_LE(m.pages_arrived + m.pages_migrated, m.page_count);
}

}  // namespace
}  // namespace ampom::driver
