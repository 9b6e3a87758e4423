// Edge-case tests of the flush-back protocol, the re-migration engine's
// preconditions, and assorted substrate corners not covered elsewhere.

#include <gtest/gtest.h>

#include <memory>

#include "mem/ledger.hpp"
#include "migration/remigration.hpp"
#include "net/fabric.hpp"
#include "proc/deputy.hpp"
#include "proc/executor.hpp"
#include "simcore/simulator.hpp"

namespace ampom {
namespace {

using proc::Ref;
using sim::Time;

struct FlushFixture : ::testing::Test {
  static constexpr net::NodeId kHome = 0;
  static constexpr net::NodeId kB = 1;
  static constexpr net::NodeId kC = 2;

  sim::Simulator simulator;
  net::Fabric fabric{simulator, 3};
  proc::WireCosts wire;
  proc::NodeCosts costs;
  mem::PageLedger ledger{100, kHome};
  proc::Deputy deputy{simulator, fabric, wire, costs, kHome, 1, 100, &ledger};
  std::vector<std::pair<mem::PageId, bool>> deliveries;

  FlushFixture() {
    deputy.begin_service(kC);
    fabric.set_handler(kC, [this](const net::Message& m) {
      const auto& data = std::get<net::PageData>(m.payload);
      deliveries.emplace_back(data.page, data.urgent);
    });
  }
};

TEST_F(FlushFixture, FlushArrivalMakesPageServable) {
  deputy.hpt().set_loc(7, mem::PageTable::Loc::Incoming);
  ledger.transfer(7, kHome, kB);  // the page had moved to B earlier
  deputy.on_flush_page(kB, net::FlushPage{1, 7});
  EXPECT_EQ(deputy.hpt().loc(7), mem::PageTable::Loc::Here);
  EXPECT_EQ(ledger.owner(7), kHome);
  EXPECT_EQ(deputy.stats().flush_pages_received, 1u);

  net::PageRequest req;
  req.pid = 1;
  req.request_id = 9;
  req.pages = {7};
  req.urgent = 7;
  deputy.on_page_request(req);
  simulator.run();
  ASSERT_EQ(deliveries.size(), 1u);
  EXPECT_EQ(deliveries[0].first, 7u);
  EXPECT_TRUE(deliveries[0].second);
}

TEST_F(FlushFixture, RequestForIncomingPageWaitsForTheFlush) {
  deputy.hpt().set_loc(7, mem::PageTable::Loc::Incoming);
  ledger.transfer(7, kHome, kB);

  net::PageRequest req;
  req.pid = 1;
  req.request_id = 9;
  req.pages = {7};
  req.urgent = 7;
  deputy.on_page_request(req);
  simulator.run();
  EXPECT_TRUE(deliveries.empty());  // parked
  EXPECT_EQ(deputy.stats().requests_stalled_on_flush, 1u);

  deputy.on_flush_page(kB, net::FlushPage{1, 7});
  simulator.run();
  ASSERT_EQ(deliveries.size(), 1u);
  EXPECT_EQ(deliveries[0].first, 7u);
  EXPECT_TRUE(deliveries[0].second);  // urgency preserved across the wait
  EXPECT_EQ(deputy.hpt().loc(7), mem::PageTable::Loc::Remote);
  EXPECT_EQ(ledger.owner(7), kC);
}

TEST_F(FlushFixture, FlushForNonIncomingPageThrows) {
  deputy.hpt().set_loc(7, mem::PageTable::Loc::Here);
  EXPECT_THROW(deputy.on_flush_page(kB, net::FlushPage{1, 7}), std::logic_error);
}

TEST_F(FlushFixture, FlushForWrongPidThrows) {
  deputy.hpt().set_loc(7, mem::PageTable::Loc::Incoming);
  EXPECT_THROW(deputy.on_flush_page(kB, net::FlushPage{2, 7}), std::logic_error);
}

TEST_F(FlushFixture, MixedRequestServesHerePagesAndParksIncoming) {
  deputy.hpt().set_loc(1, mem::PageTable::Loc::Here);
  deputy.hpt().set_loc(2, mem::PageTable::Loc::Incoming);
  ledger.transfer(2, kHome, kB);

  net::PageRequest req;
  req.pid = 1;
  req.request_id = 5;
  req.pages = {1, 2};
  req.urgent = net::kNoPage;
  deputy.on_page_request(req);
  simulator.run();
  ASSERT_EQ(deliveries.size(), 1u);
  EXPECT_EQ(deliveries[0].first, 1u);
  deputy.on_flush_page(kB, net::FlushPage{1, 2});
  simulator.run();
  ASSERT_EQ(deliveries.size(), 2u);
  EXPECT_EQ(deliveries[1].first, 2u);
}

TEST(PageTableIncoming, CountersTrackIncoming) {
  mem::PageTable table{10};
  table.set_loc(3, mem::PageTable::Loc::Incoming);
  table.set_loc(4, mem::PageTable::Loc::Incoming);
  EXPECT_EQ(table.count_incoming(), 2u);
  EXPECT_EQ(table.count_absent(), 8u);
  table.set_loc(3, mem::PageTable::Loc::Here);
  EXPECT_EQ(table.count_incoming(), 1u);
  EXPECT_EQ(table.count_here(), 1u);
}

TEST(RemigrationEngineUnit, ConfigValidationAndAtHomeRejection) {
  EXPECT_THROW(
      migration::RemigrationEngine(migration::RemigrationEngine::Config{true, 0}),
      std::invalid_argument);

  sim::Simulator simulator;
  net::Fabric fabric{simulator, 3};
  proc::WireCosts wire;
  proc::NodeCosts costs;
  std::vector<Ref> refs(100, Ref{300, Time::from_ms(1), Ref::Kind::Memory});
  proc::Process process{1, std::make_unique<proc::TraceStream>(refs, 4 * sim::kMiB), 0};
  process.aspace().populate_all_dirty();
  proc::Executor executor{simulator, process, costs};
  mem::PageLedger ledger{process.aspace().page_count(), 0};
  proc::Deputy deputy{simulator, fabric, wire, costs, 0, 1, process.aspace().page_count(),
                      &ledger};

  migration::RemigrationEngine engine;
  migration::MigrationContext ctx{simulator, fabric, wire, process, executor, deputy,
                                  /*src=*/0,  /*dst=*/2, costs,   costs,    &ledger,
                                  {},        /*src_node=*/nullptr, /*dst_node=*/nullptr,
                                  /*mutate_skip_abort_rollback=*/false};
  executor.start();
  executor.request_freeze([&] {
    // The process never left home: a re-migration engine is the wrong tool.
    EXPECT_THROW(engine.execute(ctx, {}), std::logic_error);
    simulator.halt();
  });
  simulator.run();
}

TEST(RemigrationEngineUnit, EngineNamesReflectVariant) {
  EXPECT_STREQ(migration::RemigrationEngine{}.name(), "AMPoM-remigrate");
  EXPECT_STREQ(migration::RemigrationEngine(
                   migration::RemigrationEngine::Config{/*ship_mpt=*/false, 64})
                   .name(),
               "NoPrefetch-remigrate");
}

}  // namespace
}  // namespace ampom
