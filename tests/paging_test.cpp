// Tests of the remote-paging protocol: deputy service, paging client
// transport, and the NoPrefetch demand-paging policy end to end over the
// fabric.

#include <gtest/gtest.h>

#include <memory>

#include "mem/ledger.hpp"
#include "net/fabric.hpp"
#include "net/fault_injector.hpp"
#include "proc/demand_paging.hpp"
#include "proc/deputy.hpp"
#include "proc/executor.hpp"
#include "proc/paging_client.hpp"
#include "simcore/simulator.hpp"

namespace ampom::proc {
namespace {

using sim::Time;

struct PagingFixture : ::testing::Test {
  static constexpr net::NodeId kHome = 0;
  static constexpr net::NodeId kDest = 1;

  sim::Simulator simulator;
  net::Fabric fabric{simulator, 2};
  WireCosts wire;
  NodeCosts costs;

  std::unique_ptr<Process> process;
  std::unique_ptr<Executor> executor;
  std::unique_ptr<Deputy> deputy;
  std::unique_ptr<PagingClient> client;
  std::unique_ptr<mem::PageLedger> ledger;

  // Build a migrated process whose pages beyond the first `local` are at home.
  void wire_up(std::vector<Ref> refs, std::uint64_t local_pages) {
    process = std::make_unique<Process>(
        1, std::make_unique<TraceStream>(std::move(refs), 2 * sim::kMiB), kHome);
    auto& aspace = process->aspace();
    aspace.populate_all_dirty();
    ledger = std::make_unique<mem::PageLedger>(aspace.page_count(), kHome);

    executor = std::make_unique<Executor>(simulator, *process, costs);
    deputy = std::make_unique<Deputy>(simulator, fabric, wire, costs, kHome, 1,
                                      aspace.page_count(), ledger.get());
    client = std::make_unique<PagingClient>(simulator, fabric, wire, kDest, kHome, 1);

    std::uint64_t kept = 0;
    for (mem::PageId p = 0; p < aspace.page_count(); ++p) {
      if (kept < local_pages) {
        deputy->hpt().set_loc(p, mem::PageTable::Loc::Remote);
        ledger->transfer(p, kHome, kDest);
        ++kept;
      } else {
        aspace.demote_to_remote(p);
        deputy->hpt().set_loc(p, mem::PageTable::Loc::Here);
      }
    }
    process->set_current_node(kDest);
    deputy->begin_service(kDest);

    fabric.set_handler(kHome, [this](const net::Message& m) {
      deputy->on_page_request(std::get<net::PageRequest>(m.payload));
    });
    fabric.set_handler(kDest, [this](const net::Message& m) {
      client->on_page_data(std::get<net::PageData>(m.payload));
    });
  }
};

TEST_F(PagingFixture, SinglePageRoundTrip) {
  wire_up({}, 1);
  mem::PageId arrived = mem::kInvalidPage;
  bool urgent_flag = false;
  client->set_arrival_handler([&](mem::PageId p, bool urgent) {
    arrived = p;
    urgent_flag = urgent;
  });
  const mem::PageId target = 10;
  process->aspace().mark_in_flight(target);
  client->request_pages({target}, target);
  simulator.run();
  EXPECT_EQ(arrived, target);
  EXPECT_TRUE(urgent_flag);
  EXPECT_EQ(deputy->stats().pages_served, 1u);
  EXPECT_EQ(deputy->stats().urgent_pages_served, 1u);
  EXPECT_EQ(deputy->hpt().loc(target), mem::PageTable::Loc::Remote);
  EXPECT_EQ(ledger->owner(target), kDest);
}

TEST_F(PagingFixture, BatchStreamsUrgentFirst) {
  wire_up({}, 1);
  std::vector<mem::PageId> order;
  client->set_arrival_handler([&](mem::PageId p, bool) { order.push_back(p); });
  for (mem::PageId p : {mem::PageId{20}, mem::PageId{21}, mem::PageId{22}}) {
    process->aspace().mark_in_flight(p);
  }
  client->request_pages({20, 21, 22}, 20);
  simulator.run();
  ASSERT_EQ(order.size(), 3u);
  EXPECT_EQ(order[0], 20u);  // urgent page leads the stream
  EXPECT_EQ(client->stats().pages_arrived, 3u);
  EXPECT_EQ(client->stats().fault_requests, 1u);
  EXPECT_EQ(client->stats().prefetch_pages_requested, 2u);
}

TEST_F(PagingFixture, PrefetchOnlyRequestHasNoUrgent) {
  wire_up({}, 1);
  int urgent_count = 0;
  client->set_arrival_handler([&](mem::PageId, bool urgent) { urgent_count += urgent; });
  for (mem::PageId p : {mem::PageId{30}, mem::PageId{31}}) {
    process->aspace().mark_in_flight(p);
  }
  client->request_pages({30, 31}, mem::kInvalidPage);
  simulator.run();
  EXPECT_EQ(urgent_count, 0);
  EXPECT_EQ(client->stats().fault_requests, 0u);
  EXPECT_EQ(client->stats().prefetch_requests, 1u);
}

TEST_F(PagingFixture, EmptyOrMisorderedRequestThrows) {
  wire_up({}, 1);
  EXPECT_THROW(client->request_pages({}, mem::kInvalidPage), std::logic_error);
  EXPECT_THROW(client->request_pages({5, 6}, 6), std::logic_error);
}

TEST_F(PagingFixture, DeputyRejectsPageNotAtHome) {
  wire_up({}, 1);
  // Page 0 was carried with the migrant; requesting it is a protocol bug.
  client->request_pages({0}, 0);
  EXPECT_THROW(simulator.run(), std::logic_error);
}

TEST_F(PagingFixture, DeputyRejectsDoubleServe) {
  wire_up({}, 1);
  client->set_arrival_handler([](mem::PageId, bool) {});
  process->aspace().mark_in_flight(10);
  client->request_pages({10}, 10);
  simulator.run();
  client->request_pages({10}, 10);  // served already: HPT says Remote
  EXPECT_THROW(simulator.run(), std::logic_error);
}

TEST_F(PagingFixture, DeputyRejectsWrongPid) {
  wire_up({}, 1);
  net::PageRequest req;
  req.pid = 99;
  req.pages = {10};
  EXPECT_THROW(deputy->on_page_request(req), std::logic_error);
}

TEST_F(PagingFixture, DeputySerializesServiceTime) {
  wire_up({}, 1);
  std::vector<Time> arrivals;
  client->set_arrival_handler([&](mem::PageId, bool) { arrivals.push_back(simulator.now()); });
  for (mem::PageId p = 10; p < 14; ++p) {
    process->aspace().mark_in_flight(p);
  }
  client->request_pages({10, 11, 12, 13}, 10);
  simulator.run();
  ASSERT_EQ(arrivals.size(), 4u);
  // Pages arrive spaced by at least the wire serialization of one page.
  const Time page_wire =
      fabric.default_link().bandwidth.transfer_time(wire.page_message_bytes());
  for (std::size_t i = 1; i < arrivals.size(); ++i) {
    EXPECT_GE((arrivals[i] - arrivals[i - 1]).ns(), page_wire.ns() - 1000);
  }
}

TEST_F(PagingFixture, DemandPagingPolicyEndToEnd) {
  // Three refs: one local page, two remote pages -> two full fault cycles.
  std::vector<Ref> refs{{0, Time::from_us(10), Ref::Kind::Memory},
                        {10, Time::from_us(10), Ref::Kind::Memory},
                        {11, Time::from_us(10), Ref::Kind::Memory}};
  wire_up(std::move(refs), 1);
  DemandPagingPolicy policy{simulator, *executor, *client};
  executor->set_policy(&policy);
  client->set_arrival_handler([&](mem::PageId p, bool u) { policy.on_arrival(p, u); });
  executor->start();
  simulator.run();
  EXPECT_TRUE(executor->stats().finished);
  EXPECT_EQ(executor->stats().hard_faults, 2u);
  EXPECT_EQ(policy.faults_handled(), 2u);
  EXPECT_EQ(client->stats().fault_requests, 2u);
  EXPECT_EQ(client->stats().pages_requested, 2u);  // never more than faulted
  EXPECT_EQ(process->aspace().classify(10), mem::AccessKind::Hit);
  // Fault latency: at least RTT + page transfer each.
  EXPECT_GE(executor->stats().stall_time.us(), 2 * (150 + 360));
}

TEST_F(PagingFixture, SyscallRedirectionRoundTrip) {
  std::vector<Ref> refs{{mem::kInvalidPage, Time::from_us(10), Ref::Kind::Syscall}};
  wire_up(std::move(refs), 1);
  fabric.set_handler(kHome, [this](const net::Message& m) {
    deputy->on_syscall_request(std::get<net::SyscallRequest>(m.payload));
  });
  fabric.set_handler(kDest, [this](const net::Message& m) {
    executor->complete_syscall(std::get<net::SyscallReply>(m.payload).seq);
  });
  executor->set_syscall_transport([this](std::uint64_t seq) {
    fabric.send(net::Message{kDest, kHome, wire.control_message, net::SyscallRequest{1, seq}});
  });
  executor->start();
  simulator.run();
  EXPECT_TRUE(executor->stats().finished);
  EXPECT_EQ(executor->stats().syscalls_redirected, 1u);
  EXPECT_EQ(deputy->stats().syscalls_served, 1u);
  // Round trip: two control messages + service time.
  EXPECT_GE(executor->stats().finished_at.us(), 150 + costs.syscall_service.us());
}

// --- reliable-paging backoff: ceiling and jitter --------------------------

// The client outlasts an outage far longer than its whole backoff ramp: it
// keeps probing at the ceiling rate and completes after the heal, with the
// probe count bounded by outage/ceiling (not one per retry step).
TEST_F(PagingFixture, BackoffCeilingSurvivesOutageAndProbesBounded) {
  wire_up({}, 1);
  net::FaultInjector injector{simulator, 1, 3};
  fabric.set_fault_injector(&injector);
  injector.set_link_down(kHome, kDest, true);
  const Time outage = Time::from_sec(10);
  simulator.schedule_at(outage, [&injector] { injector.set_link_down(kHome, kDest, false); });

  client->set_reliable(true);
  mem::PageId arrived = mem::kInvalidPage;
  client->set_arrival_handler([&](mem::PageId p, bool) { arrived = p; });
  process->aspace().mark_in_flight(10);
  client->request_pages({10}, 10);
  simulator.run();

  EXPECT_EQ(arrived, 10u);
  EXPECT_EQ(client->outstanding_requests(), 0u);
  // Probing continued well past the retry budget...
  EXPECT_GT(client->stats().retransmits, std::uint64_t{PagingClient::kMaxRetries});
  // ...but at the ceiling rate: once the doubling ramp reaches the ceiling,
  // probes are at least kBackoffCeiling apart.
  const auto bound = static_cast<std::uint64_t>(outage / PagingClient::kBackoffCeiling) +
                     PagingClient::kMaxRetries;
  EXPECT_LT(client->stats().timeouts, bound);
  fabric.set_fault_injector(nullptr);
}

// Deterministic jitter: two clients stuck behind the same outage probe at
// *different* instants (their (node, pid) identities feed the jitter hash),
// yet a rerun reproduces both schedules exactly.
TEST(PagingRetryJitter, DecorrelatesClientsDeterministically) {
  const auto probe_counts = [] {
    sim::Simulator simulator;
    net::Fabric fabric{simulator, 2};
    net::FaultInjector injector{simulator, 1, 3};
    fabric.set_fault_injector(&injector);
    injector.set_link_down(0, 1, true);  // nothing is ever delivered

    WireCosts wire;
    PagingClient first{simulator, fabric, wire, 1, 0, /*pid=*/1};
    PagingClient second{simulator, fabric, wire, 1, 0, /*pid=*/2};
    first.set_reliable(true);
    second.set_reliable(true);
    first.request_pages({10}, 10);
    second.request_pages({10}, 10);
    // Long window: after the backoff ramp each client probes with its own
    // fixed jittered period near the 500 ms ceiling, so the count difference
    // grows linearly.
    (void)simulator.run_until(Time::from_sec(200));
    return std::pair{first.stats().timeouts, second.stats().timeouts};
  };
  const auto [a1, b1] = probe_counts();
  EXPECT_NE(a1, b1);  // decorrelated: same config, different probe schedule
  const auto [a2, b2] = probe_counts();
  EXPECT_EQ(a1, a2);  // but fully deterministic across reruns
  EXPECT_EQ(b1, b2);
}

}  // namespace
}  // namespace ampom::proc
