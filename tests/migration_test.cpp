// Tests of the three migration engines: freeze-time composition, page
// bookkeeping (address space + HPT + ledger), wire accounting and the
// resume protocol.

#include <gtest/gtest.h>

#include <memory>

#include "mem/ledger.hpp"
#include "migration/cpmd.hpp"
#include "migration/engine.hpp"
#include "migration/full_copy.hpp"
#include "migration/lightweight.hpp"
#include "net/fabric.hpp"
#include "proc/deputy.hpp"
#include "proc/executor.hpp"
#include "simcore/simulator.hpp"

namespace ampom::migration {
namespace {

using proc::Ref;
using sim::Time;

struct MigrationFixture : ::testing::Test {
  static constexpr net::NodeId kHome = 0;
  static constexpr net::NodeId kDest = 1;

  sim::Simulator simulator;
  net::Fabric fabric{simulator, 2};
  proc::WireCosts wire;
  proc::NodeCosts costs;

  std::unique_ptr<proc::Process> process;
  std::unique_ptr<proc::Executor> executor;
  std::unique_ptr<proc::Deputy> deputy;
  std::unique_ptr<mem::PageLedger> ledger;

  std::optional<MigrationResult> result;
  bool before_resume_called{false};

  void make_process(sim::Bytes memory, std::vector<Ref> refs = {}) {
    if (refs.empty()) {
      // Keep the process busy long enough for the freeze to land.
      for (int i = 0; i < 1000; ++i) {
        refs.push_back(Ref{300 + static_cast<mem::PageId>(i % 16), Time::from_ms(1),
                           Ref::Kind::Memory});
      }
    }
    process = std::make_unique<proc::Process>(
        1, std::make_unique<proc::TraceStream>(std::move(refs), memory), kHome);
    process->aspace().populate_all_dirty();
    executor = std::make_unique<proc::Executor>(simulator, *process, costs);
    executor->set_max_burst(Time::from_us(200));  // frequent freeze safe-points
    deputy = std::make_unique<proc::Deputy>(simulator, fabric, wire, costs, kHome, 1,
                                            process->aspace().page_count(), ledger_init());
  }

  mem::PageLedger* ledger_init() {
    ledger = std::make_unique<mem::PageLedger>(
        mem::pages_for_bytes(pending_memory_), kHome);
    return ledger.get();
  }

  sim::Bytes pending_memory_{0};

  MigrationContext context() {
    return MigrationContext{simulator, fabric,   wire,  *process, *executor,
                            *deputy,   kHome,    kDest, costs,    costs,
                            ledger.get(),
                            [this] { before_resume_called = true; },
                            /*src_node=*/nullptr, /*dst_node=*/nullptr,
                            /*mutate_skip_abort_rollback=*/false};
  }

  // Runs until the migration completes (the sim halts at resume so that
  // lightweight schemes do not fault without a policy). Tests that need the
  // process to finish call simulator.run() again afterwards.
  void run_migration(MigrationEngine& engine, sim::Bytes memory,
                     std::vector<Ref> refs = {}) {
    pending_memory_ = memory;
    make_process(memory, std::move(refs));
    executor->start();
    simulator.schedule_at(Time::from_ms(1), [&, this] {
      migrate_process(context(), engine, [this](MigrationResult r) {
        result = r;
        simulator.halt();
      });
    });
    simulator.run();
    ASSERT_TRUE(result.has_value());
  }
};

TEST_F(MigrationFixture, FullCopyTransfersAllDirtyPages) {
  FullCopyEngine engine;
  run_migration(engine, 8 * sim::kMiB);
  const auto pages = process->aspace().page_count();
  EXPECT_EQ(result->pages_transferred, pages);
  EXPECT_TRUE(before_resume_called);
  // Everything stays Local at the destination; no remote pages remain.
  EXPECT_EQ(process->aspace().local_pages(), pages);
  EXPECT_EQ(process->aspace().remote_pages(), 0u);
  EXPECT_EQ(deputy->hpt().count_remote(), pages);
  EXPECT_EQ(deputy->hpt().count_here(), 0u);
  EXPECT_EQ(ledger->total_transfers(), pages);
  EXPECT_TRUE(ledger->at_most_one_transfer_each());
  EXPECT_EQ(process->current_node(), kDest);
}

TEST_F(MigrationFixture, FullCopyFreezeDominatedByWireTime) {
  FullCopyEngine engine;
  run_migration(engine, 8 * sim::kMiB);
  const auto pages = static_cast<std::int64_t>(process->aspace().page_count());
  const Time wire_time =
      fabric.default_link().bandwidth.transfer_time(wire.page_message_bytes()) * pages;
  EXPECT_GE(result->freeze_time(), wire_time);
  EXPECT_LE(result->freeze_time(), wire_time + Time::from_ms(200));
}

TEST_F(MigrationFixture, FullCopyBytesAccountPcbAndPages) {
  FullCopyEngine engine;
  run_migration(engine, 4 * sim::kMiB);
  const auto pages = process->aspace().page_count();
  EXPECT_EQ(result->bytes_transferred,
            wire.pcb_bytes + pages * wire.page_message_bytes());
}

TEST_F(MigrationFixture, ThreePageLeavesRestAtHome) {
  ThreePageEngine engine;
  // Touch some pages first so "current pages" are meaningful.
  std::vector<Ref> refs;
  for (int i = 0; i < 500; ++i) {
    refs.push_back(Ref{300 + static_cast<mem::PageId>(i % 50), Time::from_us(20),
                       Ref::Kind::Memory});
  }
  run_migration(engine, 8 * sim::kMiB, std::move(refs));
  EXPECT_LE(result->pages_transferred, 3u);
  EXPECT_GE(result->pages_transferred, 1u);
  const auto pages = process->aspace().page_count();
  EXPECT_EQ(process->aspace().local_pages(), result->pages_transferred);
  EXPECT_EQ(process->aspace().remote_pages(), pages - result->pages_transferred);
  EXPECT_EQ(deputy->hpt().count_here(), pages - result->pages_transferred);
  EXPECT_EQ(ledger->total_transfers(), result->pages_transferred);
}

TEST_F(MigrationFixture, ThreePageFreezeIsTiny) {
  ThreePageEngine engine;
  run_migration(engine, 64 * sim::kMiB);
  // Paper Fig. 5: ~0.07 s regardless of process size.
  EXPECT_LT(result->freeze_time(), Time::from_ms(150));
  EXPECT_GT(result->freeze_time(), Time::from_ms(40));
}

TEST_F(MigrationFixture, AmpomShipsMasterPageTable) {
  AmpomEngine engine;
  run_migration(engine, 8 * sim::kMiB);
  const auto pages = process->aspace().page_count();
  // Bytes = PCB + carried pages + MPT (6 B per page).
  EXPECT_EQ(result->bytes_transferred,
            wire.pcb_bytes + result->pages_transferred * wire.page_message_bytes() +
                pages * mem::kMptEntryBytes);
}

TEST_F(MigrationFixture, AmpomFreezeGrowsWithPageCount) {
  AmpomEngine engine;
  run_migration(engine, 8 * sim::kMiB);
  const auto pages = static_cast<std::int64_t>(process->aspace().page_count());
  // Freeze must include the per-entry MPT pack + unpack costs.
  const Time mpt_cost = costs.mpt_pack_entry * pages + costs.mpt_unpack_entry * pages;
  EXPECT_GE(result->freeze_time(), mpt_cost);
  // ...but stays far below a full copy.
  const Time full_copy =
      fabric.default_link().bandwidth.transfer_time(wire.page_message_bytes()) * pages;
  EXPECT_LT(result->freeze_time(), full_copy / 4);
}

TEST_F(MigrationFixture, ExecutionResumesAfterMigration) {
  // Refs keep flowing after the freeze; with FullCopy everything is local.
  std::vector<Ref> refs;
  for (int i = 0; i < 500; ++i) {
    refs.push_back(Ref{300 + static_cast<mem::PageId>(i % 64), Time::from_us(20),
                       Ref::Kind::Memory});
  }
  FullCopyEngine engine;
  run_migration(engine, 4 * sim::kMiB, std::move(refs));
  simulator.run();  // continue to completion
  EXPECT_TRUE(executor->stats().finished);
  EXPECT_EQ(executor->stats().refs_consumed, 500u);
  EXPECT_EQ(executor->stats().hard_faults, 0u);  // openMosix: no remote faults
}

TEST_F(MigrationFixture, MigrateToSelfRejected) {
  pending_memory_ = sim::kMiB;
  make_process(sim::kMiB);
  FullCopyEngine engine;
  MigrationContext ctx = context();
  ctx.dst = kHome;
  EXPECT_THROW(migrate_process(std::move(ctx), engine, {}), std::invalid_argument);
}

TEST_F(MigrationFixture, EngineNamesMatchPaperSchemes) {
  EXPECT_STREQ(FullCopyEngine{}.name(), "openMosix");
  EXPECT_STREQ(ThreePageEngine{}.name(), "NoPrefetch");
  EXPECT_STREQ(AmpomEngine{}.name(), "AMPoM");
}

TEST_F(MigrationFixture, ChunkSizeValidation) {
  EXPECT_THROW(FullCopyEngine{0}, std::invalid_argument);
}

// ---------------------------------------------------------------------------
// CPMD calibration table (warm-up delay after a migration, DESIGN.md §17)
// ---------------------------------------------------------------------------

TEST(CpmdTable, InterpolatesBetweenCalibrationPoints) {
  const CpmdTable table = CpmdTable::parse("100 1000\n200 3000\n");
  // Exactly on a point.
  EXPECT_EQ(table.warmup_delay(100 * 1024), Time::from_us(1000));
  EXPECT_EQ(table.warmup_delay(200 * 1024), Time::from_us(3000));
  // Halfway: linear in WSS.
  EXPECT_EQ(table.warmup_delay(150 * 1024), Time::from_us(2000));
}

TEST(CpmdTable, ClampsAtBothEnds) {
  const CpmdTable table = CpmdTable::parse("100 1000\n200 3000\n");
  EXPECT_EQ(table.warmup_delay(0), Time::from_us(1000));
  EXPECT_EQ(table.warmup_delay(1024), Time::from_us(1000));
  EXPECT_EQ(table.warmup_delay(1 * sim::kGiB), Time::from_us(3000));
}

TEST(CpmdTable, BuiltinCurveIsMonotone) {
  const CpmdTable table = CpmdTable::builtin();
  ASSERT_FALSE(table.empty());
  for (std::size_t i = 1; i < table.points().size(); ++i) {
    EXPECT_GT(table.points()[i].wss_kib, table.points()[i - 1].wss_kib);
    EXPECT_GT(table.points()[i].delay_us, table.points()[i - 1].delay_us);
  }
}

TEST(CpmdTable, ParseSkipsCommentsAndBlankLines) {
  const CpmdTable table = CpmdTable::parse(
      "# CPMD calibration\n"
      "\n"
      "4 18   # one hot page\n"
      "64 95\n");
  ASSERT_EQ(table.points().size(), 2u);
  EXPECT_DOUBLE_EQ(table.points()[0].wss_kib, 4.0);
  EXPECT_DOUBLE_EQ(table.points()[1].delay_us, 95.0);
}

TEST(CpmdTable, ParseErrorsNameTheLine) {
  const auto message_of = [](const std::string& text) {
    try {
      (void)CpmdTable::parse(text);
    } catch (const std::invalid_argument& e) {
      return std::string{e.what()};
    }
    return std::string{};
  };
  EXPECT_NE(message_of("4 18\n64\n").find("line 2"), std::string::npos);
  EXPECT_NE(message_of("4 18 junk\n").find("trailing tokens"), std::string::npos);
  EXPECT_NE(message_of("0 18\n").find("must be positive"), std::string::npos);
  EXPECT_NE(message_of("4 -1\n").find("non-negative"), std::string::npos);
  EXPECT_NE(message_of("4 18\n4 20\n").find("strictly increasing"), std::string::npos);
  EXPECT_NE(message_of("# only comments\n").find("no data points"), std::string::npos);
}

TEST(CpmdTable, CommittedCalibrationFileMatchesTheBuiltinCurve) {
  // data/cpmd_calibration.txt ships the built-in curve as a starting point;
  // the two must agree so a run with or without the file is identical.
  const CpmdTable file = CpmdTable::load_file(AMPOM_SOURCE_DIR "/data/cpmd_calibration.txt");
  const CpmdTable built = CpmdTable::builtin();
  ASSERT_EQ(file.points().size(), built.points().size());
  for (std::size_t i = 0; i < file.points().size(); ++i) {
    EXPECT_DOUBLE_EQ(file.points()[i].wss_kib, built.points()[i].wss_kib) << "point " << i;
    EXPECT_DOUBLE_EQ(file.points()[i].delay_us, built.points()[i].delay_us) << "point " << i;
  }
}

TEST(CpmdTable, LoadFileRejectsMissingPath) {
  EXPECT_THROW((void)CpmdTable::load_file("/nonexistent/cpmd.txt"), std::invalid_argument);
}

}  // namespace
}  // namespace ampom::migration
