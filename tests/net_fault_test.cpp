// Tests of the deterministic fault injector and its composition into the
// fabric: seeded reproducibility, zero-fault transparency, loss/duplication/
// jitter semantics, link outage windows and node crash suppression.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "net/fabric.hpp"
#include "net/fault_injector.hpp"
#include "simcore/simulator.hpp"

namespace ampom::net {
namespace {

using sim::Time;

constexpr sim::Bytes kBulkBytes = 4096 + 64;  // a page message: queues on ports

struct World {
  sim::Simulator sim;
  Fabric fabric{sim, 3};
  FaultInjector injector;
  std::vector<std::pair<Time, NodeId>> deliveries;  // (when, receiver)

  explicit World(std::uint64_t seed) : injector{sim, seed} {
    fabric.set_fault_injector(&injector);
    for (NodeId n = 0; n < 3; ++n) {
      fabric.set_handler(n, [this, n](const Message&) {
        deliveries.emplace_back(sim.now(), n);
      });
    }
  }

  // A fixed traffic pattern: bursts between all pairs at staggered times.
  void drive(int messages) {
    for (int i = 0; i < messages; ++i) {
      const auto src = static_cast<NodeId>(i % 3);
      const auto dst = static_cast<NodeId>((i + 1) % 3);
      sim.schedule_at(Time::from_us(50 * (i + 1)), [this, src, dst] {
        fabric.send(Message{src, dst, kBulkBytes, PageData{1, 1, 7, false}});
      });
    }
    sim.run();
  }
};

TEST(FaultInjector, SameSeedProducesIdenticalTrace) {
  auto run = [](std::uint64_t seed) {
    World w{seed};
    LinkFaults faults;
    faults.drop_probability = 0.2;
    faults.duplicate_probability = 0.1;
    faults.max_extra_delay = Time::from_us(80);
    w.injector.set_default_faults(faults);
    w.drive(200);
    return std::pair{std::string{w.injector.trace()}, w.deliveries};
  };
  const auto [trace_a, deliveries_a] = run(42);
  const auto [trace_b, deliveries_b] = run(42);
  EXPECT_EQ(trace_a, trace_b);
  EXPECT_EQ(deliveries_a, deliveries_b);  // identical times AND receivers
  EXPECT_EQ(trace_a.size(), 200u);

  const auto [trace_c, deliveries_c] = run(43);
  EXPECT_NE(trace_a, trace_c);  // a different seed reshuffles the fault pattern
}

TEST(FaultInjector, ZeroFaultInjectorIsTransparent) {
  // Same traffic through a bare fabric and a zero-fault-injected fabric:
  // every delivery lands at the identical instant.
  std::vector<std::pair<Time, NodeId>> bare;
  {
    sim::Simulator sim;
    Fabric fabric{sim, 3};
    for (NodeId n = 0; n < 3; ++n) {
      fabric.set_handler(n, [&sim, &bare, n](const Message&) {
        bare.emplace_back(sim.now(), n);
      });
    }
    for (int i = 0; i < 100; ++i) {
      const auto src = static_cast<NodeId>(i % 3);
      const auto dst = static_cast<NodeId>((i + 1) % 3);
      sim.schedule_at(Time::from_us(50 * (i + 1)), [&fabric, src, dst] {
        fabric.send(Message{src, dst, kBulkBytes, PageData{1, 1, 7, false}});
      });
    }
    sim.run();
  }

  World w{99};  // all fault knobs left at zero
  w.drive(100);
  EXPECT_EQ(w.deliveries, bare);
  EXPECT_EQ(w.injector.stats().messages_seen, 100u);
  EXPECT_EQ(w.injector.stats().dropped, 0u);
  EXPECT_EQ(w.injector.trace(), std::string(100, '.'));
}

TEST(FaultInjector, DropProbabilityOneLosesEverything) {
  World w{7};
  LinkFaults faults;
  faults.drop_probability = 1.0;
  w.injector.set_default_faults(faults);
  w.drive(20);
  EXPECT_TRUE(w.deliveries.empty());
  EXPECT_EQ(w.injector.stats().dropped, 20u);
  EXPECT_EQ(w.injector.trace(), std::string(20, 'D'));
}

TEST(FaultInjector, DuplicateProbabilityOneDeliversTwice) {
  World w{7};
  LinkFaults faults;
  faults.duplicate_probability = 1.0;
  w.injector.set_default_faults(faults);
  w.drive(10);
  EXPECT_EQ(w.deliveries.size(), 20u);
  EXPECT_EQ(w.injector.stats().duplicated, 10u);
}

// Regression: the fabric used to schedule the duplicate's delivery before
// the original's, so whenever the copy's trailing delay was zero the
// engine's same-time FIFO handed the receiver the duplicate first and the
// real message was the one counted (and dropped) as the dup. The original
// must always be the first delivery the receiver observes, at exactly the
// arrival send() returns, with the copy strictly trailing it.
TEST(FaultInjector, OriginalIsDeliveredBeforeItsDuplicate) {
  World w{5};
  LinkFaults faults;
  faults.duplicate_probability = 1.0;  // no jitter: the copy trails by 1 us
  w.injector.set_default_faults(faults);
  Time arrival{};
  w.sim.schedule_at(Time::from_us(10), [&] {
    arrival = w.fabric.send(Message{0, 1, kBulkBytes, PageData{1, 1, 7, false}});
  });
  w.sim.run();
  ASSERT_EQ(w.deliveries.size(), 2u);
  EXPECT_EQ(w.deliveries[0].first, arrival);  // the original, as predicted
  EXPECT_EQ(w.deliveries[1].first, arrival + Time::from_us(1));
  EXPECT_GT(w.deliveries[1].first, w.deliveries[0].first);
}

TEST(FaultInjector, JitterDelaysButNeverDropsOrReorders) {
  World w{11};
  LinkFaults faults;
  faults.max_extra_delay = Time::from_us(40);
  w.injector.set_default_faults(faults);
  w.drive(50);
  EXPECT_EQ(w.deliveries.size(), 50u);
  EXPECT_GT(w.injector.stats().delayed, 0u);
  EXPECT_EQ(w.injector.stats().dropped, 0u);
}

TEST(FaultInjector, PerLinkOverrideOnlyAffectsThatPair) {
  World w{5};
  LinkFaults lossy;
  lossy.drop_probability = 1.0;
  w.injector.set_link_faults(0, 1, lossy);
  w.drive(30);  // traffic on 0->1, 1->2, 2->0; only 0->1 messages die
  EXPECT_EQ(w.injector.stats().dropped, 10u);
  EXPECT_EQ(w.deliveries.size(), 20u);
  for (const auto& [when, receiver] : w.deliveries) {
    EXPECT_NE(receiver, 1u);  // nothing reaches node 1 (its only sender is 0)
  }
}

TEST(FaultInjector, LinkOutageWindowDropsDuringAndDeliversAfter) {
  World w{3};
  w.injector.schedule_link_outage(0, 1, Time::from_ms(1), Time::from_ms(3));
  // One message before, one during, one after the [1ms, 3ms) window.
  auto send = [&w](Time at) {
    w.sim.schedule_at(at, [&w] {
      w.fabric.send(Message{0, 1, kBulkBytes, PageData{1, 1, 7, false}});
    });
  };
  send(Time::from_us(500));
  send(Time::from_ms(2));
  send(Time::from_ms(4));
  w.sim.run();
  EXPECT_EQ(w.deliveries.size(), 2u);
  EXPECT_EQ(w.injector.stats().link_down_drops, 1u);
  EXPECT_EQ(w.injector.trace(), ".L.");
}

TEST(FaultInjector, CrashedNodeNeitherSendsNorReceives) {
  World w{3};
  w.injector.crash_node(1);
  w.sim.schedule_at(Time::from_us(100), [&w] {
    w.fabric.send(Message{0, 1, kBulkBytes, PageData{1, 1, 7, false}});  // into the crash
    w.fabric.send(Message{1, 2, kBulkBytes, PageData{1, 1, 8, false}});  // from the crash
    w.fabric.send(Message{0, 2, kBulkBytes, PageData{1, 1, 9, false}});  // unaffected
  });
  w.sim.run();
  ASSERT_EQ(w.deliveries.size(), 1u);
  EXPECT_EQ(w.deliveries[0].second, 2u);
  EXPECT_EQ(w.injector.stats().crash_drops, 2u);
  EXPECT_EQ(w.injector.trace(), "XX.");
}

TEST(FaultInjector, MessageInFlightToCrashingNodeIsDiscardedAtDelivery) {
  World w{3};
  w.sim.schedule_at(Time::from_us(10), [&w] {
    w.fabric.send(Message{0, 1, kBulkBytes, PageData{1, 1, 7, false}});
  });
  // The crash lands before the ~400us delivery completes.
  w.sim.schedule_at(Time::from_us(50), [&w] { w.injector.crash_node(1); });
  w.sim.run();
  EXPECT_TRUE(w.deliveries.empty());
  EXPECT_EQ(w.injector.stats().crash_drops, 1u);
}

TEST(FaultInjector, RestoreNodeResumesDelivery) {
  World w{3};
  w.sim.schedule_at(Time::from_us(10), [&w] { w.injector.crash_node(1); });
  w.sim.schedule_at(Time::from_ms(2), [&w] { w.injector.restore_node(1); });
  auto send = [&w](Time at) {
    w.sim.schedule_at(at, [&w] {
      w.fabric.send(Message{0, 1, kBulkBytes, PageData{1, 1, 7, false}});
    });
  };
  send(Time::from_ms(1));  // while down
  send(Time::from_ms(3));  // after restore
  w.sim.run();
  EXPECT_EQ(w.deliveries.size(), 1u);
  EXPECT_EQ(w.injector.stats().crash_drops, 1u);
}

TEST(FaultInjector, CrashSuppressedMessagesConsumeNoRandomness) {
  // A message swallowed by a crash makes no RNG draws, so interleaving a
  // crashed node's (suppressed) traffic must not shift the fault pattern
  // the healthy 0->1 stream experiences.
  auto run = [](bool with_crashed_traffic) {
    World w{77};
    LinkFaults faults;
    faults.drop_probability = 0.3;
    w.injector.set_default_faults(faults);
    if (with_crashed_traffic) {
      w.injector.crash_node(2);
    }
    for (int i = 0; i < 100; ++i) {
      w.sim.schedule_at(Time::from_us(50 * (i + 1)), [&w] {
        w.fabric.send(Message{0, 1, kBulkBytes, PageData{1, 1, 7, false}});
      });
      if (with_crashed_traffic) {
        w.sim.schedule_at(Time::from_us(50 * (i + 1) + 10), [&w] {
          w.fabric.send(Message{2, 0, kBulkBytes, PageData{1, 1, 8, false}});
        });
      }
    }
    w.sim.run();
    // Keep only the healthy stream's trace characters.
    std::string zero_one;
    for (const char c : w.injector.trace()) {
      if (c != 'X') {
        zero_one += c;
      }
    }
    return zero_one;
  };
  EXPECT_EQ(run(false), run(true));
}

}  // namespace
}  // namespace ampom::net
