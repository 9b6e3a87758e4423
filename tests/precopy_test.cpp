// Tests of the pre-copy (V System) engine: convergence, re-dirty traffic,
// abort-on-finish, and its place among the other mechanisms.

#include <gtest/gtest.h>

#include <memory>

#include "driver/runner.hpp"
#include "migration/precopy.hpp"
#include "workload/hpcc.hpp"
#include "workload/synthetic.hpp"

namespace ampom::driver {
namespace {

using sim::Time;

Scenario hot_cold_scenario(Scheme scheme) {
  Scenario s;
  s.scheme = scheme;
  s.memory_mib = 33;
  s.workload_label = "hotcold";
  s.make_workload = [] {
    return std::make_unique<workload::HotColdStream>(33 * sim::kMiB, /*hot_pages=*/512,
                                                     /*touches=*/300000, /*cold_fraction=*/0.01,
                                                     Time::from_us(50));
  };
  return s;
}

TEST(PreCopy, ConfigValidation) {
  migration::PreCopyEngine::Config cfg;
  cfg.chunk_pages = 0;
  EXPECT_THROW(migration::PreCopyEngine{cfg}, std::invalid_argument);
  cfg = {};
  cfg.max_rounds = 0;
  EXPECT_THROW(migration::PreCopyEngine{cfg}, std::invalid_argument);
  cfg = {};
  cfg.stop_fraction = 1.0;
  EXPECT_THROW(migration::PreCopyEngine{cfg}, std::invalid_argument);
}

TEST(PreCopy, HotColdProcessConvergesWithShortFreeze) {
  const RunMetrics m = run_experiment(hot_cold_scenario(Scheme::PreCopy));
  EXPECT_TRUE(m.ledger_ok);
  EXPECT_EQ(m.pages_migrated, m.page_count);  // everything ends up at the dest
  // The freeze only carries the residue of the hot set, far below a full
  // stop-and-copy.
  const RunMetrics om = run_experiment(hot_cold_scenario(Scheme::OpenMosix));
  EXPECT_LT(m.freeze_time, om.freeze_time / 4);
  // ...but the copied-while-dirty pages were resent.
  EXPECT_GT(m.pages_resent, 0u);
  EXPECT_EQ(m.hard_faults, 0u);  // nothing left remote after resume
}

TEST(PreCopy, MigrationSpanExceedsFreeze) {
  const RunMetrics m = run_experiment(hot_cold_scenario(Scheme::PreCopy));
  EXPECT_GT(m.migration_span, m.freeze_time * 3);
}

TEST(PreCopy, WriteHeavyProcessResendsHeavily) {
  // A long-lived process rewriting its whole address space every pass:
  // every pre-copy round re-dirties everything, rounds exhaust, and the
  // engine ships large parts of memory repeatedly (§6's criticism).
  Scenario s;
  s.scheme = Scheme::PreCopy;
  s.memory_mib = 33;
  s.workload_label = "rewriter";
  s.make_workload = [] {
    return std::make_unique<workload::SequentialStream>(33 * sim::kMiB, /*passes=*/60,
                                                        Time::from_us(50));
  };
  const RunMetrics m = run_experiment(s);
  ASSERT_GT(m.pages_migrated, 0u);  // the migration completed
  EXPECT_GT(m.pages_resent, m.page_count);  // several full re-copies
  EXPECT_GT(m.freeze_time, Time::from_ms(500));  // the residue stayed large
  EXPECT_TRUE(m.ledger_ok);
}

TEST(PreCopy, ShortLivedProcessOutrunsTheMigration) {
  // A process that finishes before round 1 completes: the migration aborts,
  // the run still finishes cleanly at the home node.
  Scenario s;
  s.scheme = Scheme::PreCopy;
  s.memory_mib = 33;
  s.workload_label = "short";
  s.make_workload = [] {
    return std::make_unique<workload::SequentialStream>(33 * sim::kMiB, 1, Time::from_us(2));
  };
  const RunMetrics m = run_experiment(s);
  EXPECT_EQ(m.pages_migrated, 0u);
  EXPECT_EQ(m.freeze_time, Time::zero());
  EXPECT_GT(m.refs_consumed, 0u);
}

TEST(PreCopy, FreezeShorterThanOpenMosixButMoreBytes) {
  const RunMetrics pc = run_experiment(hot_cold_scenario(Scheme::PreCopy));
  const RunMetrics om = run_experiment(hot_cold_scenario(Scheme::OpenMosix));
  EXPECT_LT(pc.freeze_time, om.freeze_time);
  EXPECT_GT(pc.bytes_freeze, om.bytes_freeze);  // the §6 trade-off
}

TEST(Checkpoint, FreezeIsWorstOfAllMechanisms) {
  // §1: checkpointing pays the image transfer twice (through the file
  // server) plus disk, making migration — even full-copy — look fast.
  const RunMetrics cp = run_experiment(hot_cold_scenario(Scheme::Checkpoint));
  const RunMetrics om = run_experiment(hot_cold_scenario(Scheme::OpenMosix));
  EXPECT_GT(cp.freeze_time, om.freeze_time.scaled(1.5));
  EXPECT_EQ(cp.pages_migrated, cp.page_count);
  EXPECT_EQ(cp.pages_resent, cp.page_count);  // image crossed the wire twice
  EXPECT_TRUE(cp.ledger_ok);
  EXPECT_EQ(cp.hard_faults, 0u);  // full image at the destination
}

TEST(Checkpoint, IncompatibleWithRemigration) {
  Scenario s = hot_cold_scenario(Scheme::Checkpoint);
  s.remigrate_after = sim::Time::from_sec(1.0);
  EXPECT_THROW(run_experiment(s), std::invalid_argument);
}

}  // namespace
}  // namespace ampom::driver
