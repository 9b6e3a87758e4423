// Unit tests for the network fabric: serialization, queueing, RX sharing,
// control-message bypass, counters, link overrides, traffic shaping and
// background traffic.

#include <gtest/gtest.h>

#include <vector>

#include "net/background_traffic.hpp"
#include "net/fabric.hpp"
#include "simcore/simulator.hpp"

namespace ampom::net {
namespace {

using namespace ampom::sim::literals;
using sim::Time;

struct FabricFixture : ::testing::Test {
  sim::Simulator simulator;
  Fabric fabric{simulator, 4};

  Message data(NodeId src, NodeId dst, sim::Bytes bytes) {
    return Message{src, dst, bytes, Background{}};
  }
};

TEST_F(FabricFixture, NeedsAtLeastTwoNodes) {
  EXPECT_THROW((Fabric{simulator, 1}), std::invalid_argument);
  EXPECT_THROW((Fabric{simulator, 0}), std::invalid_argument);
}

TEST_F(FabricFixture, SelfSendRejected) {
  EXPECT_THROW(fabric.send(data(1, 1, 100)), std::logic_error);
}

TEST_F(FabricFixture, SingleMessageDelayIsSerializationPlusLatency) {
  // 12500 bytes at 100 Mb/s = 1 ms serialization; latency 75 us.
  const Time arrival = fabric.send(data(0, 1, 12500));
  EXPECT_EQ(arrival, Time::from_us(1075));
}

TEST_F(FabricFixture, BackToBackMessagesQueueOnTxPort) {
  const Time first = fabric.send(data(0, 1, 12500));
  const Time second = fabric.send(data(0, 1, 12500));
  EXPECT_EQ(first, Time::from_us(1075));
  EXPECT_EQ(second, Time::from_us(2075));  // waited 1 ms behind the first
}

TEST_F(FabricFixture, TwoSendersShareTheReceiverRxPort) {
  const Time a = fabric.send(data(0, 2, 12500));
  const Time b = fabric.send(data(1, 2, 12500));
  EXPECT_EQ(a, Time::from_us(1075));
  // Different TX ports, same RX port: the second message serializes after
  // the first on RX.
  EXPECT_EQ(b, Time::from_us(2075));
}

TEST_F(FabricFixture, DistinctReceiversDoNotInterfere) {
  const Time a = fabric.send(data(0, 2, 12500));
  const Time b = fabric.send(data(1, 3, 12500));
  EXPECT_EQ(a, b);
}

TEST_F(FabricFixture, ControlMessageBypassesIdleQueueEntirely) {
  // 64 bytes at 100 Mb/s = 5.12 us; idle path, no frame wait.
  const Time arrival = fabric.send(data(0, 1, 64));
  EXPECT_EQ(arrival.ns(), Time::from_us(75).ns() + 5120);
}

TEST_F(FabricFixture, ControlMessageWaitsOneFrameOnBusyPath) {
  fabric.send(data(0, 1, 1'000'000));  // saturate the 0->1 path
  const Time arrival = fabric.send(data(0, 1, 64));
  // frame (1500 B = 120 us) + own serialization + latency, NOT the full queue.
  const Time expected = Time::from_ns(120'000 + 5'120 + 75'000);
  EXPECT_EQ(arrival, expected);
}

TEST_F(FabricFixture, BulkMessageDoesNotBypass) {
  fabric.send(data(0, 1, 1'000'000));
  const Time arrival = fabric.send(data(0, 1, 5000));
  // 1 MB at 12.5 MB/s = 80 ms, then 0.4 ms, then latency.
  EXPECT_EQ(arrival, Time::from_us(80'000 + 400 + 75));
}

TEST_F(FabricFixture, HandlerReceivesPayloadAndCounters) {
  std::vector<sim::Bytes> seen;
  fabric.set_handler(1, [&](const Message& m) { seen.push_back(m.wire_bytes); });
  fabric.send(data(0, 1, 1000));
  fabric.send(data(0, 1, 2000));
  simulator.run();
  EXPECT_EQ(seen, (std::vector<sim::Bytes>{1000, 2000}));
  EXPECT_EQ(fabric.counters(0).tx_bytes, 3000u);
  EXPECT_EQ(fabric.counters(0).tx_messages, 2u);
  EXPECT_EQ(fabric.counters(1).rx_bytes, 3000u);
  EXPECT_EQ(fabric.counters(1).rx_messages, 2u);
  EXPECT_EQ(fabric.counters(2).rx_bytes, 0u);
}

TEST_F(FabricFixture, RxCountersUpdateOnlyAtArrival) {
  fabric.set_handler(1, [](const Message&) {});
  fabric.send(data(0, 1, 1000));
  EXPECT_EQ(fabric.counters(1).rx_bytes, 0u);
  simulator.run();
  EXPECT_EQ(fabric.counters(1).rx_bytes, 1000u);
}

TEST_F(FabricFixture, PairOverrideChangesDelay) {
  fabric.set_link(0, 1, LinkParams{sim::Bandwidth::mbits_per_sec(10), Time::from_ms(1)});
  const Time slow = fabric.send(data(0, 1, 12500));
  EXPECT_EQ(slow, Time::from_ms(11));  // 10 ms serialization + 1 ms latency
  const Time fast = fabric.send(data(3, 2, 12500));
  EXPECT_EQ(fast, Time::from_us(1075));  // other pairs keep the default
}

TEST_F(FabricFixture, PairOverrideIsSymmetric) {
  fabric.set_link(1, 0, LinkParams{sim::Bandwidth::mbits_per_sec(10), Time::from_ms(1)});
  EXPECT_EQ(fabric.link(0, 1).latency, Time::from_ms(1));
  EXPECT_EQ(fabric.link(1, 0).latency, Time::from_ms(1));
}

TEST_F(FabricFixture, BackgroundTrafficApproximatesTargetLoad) {
  BackgroundTraffic traffic{simulator, fabric, 0, 1, /*load=*/0.4, /*chunk=*/16384};
  traffic.start();
  simulator.run_until(Time::from_sec(20));
  traffic.stop();
  const double bytes = static_cast<double>(fabric.counters(0).tx_bytes);
  const double load = bytes * 8.0 / (20.0 * 100e6);
  EXPECT_NEAR(load, 0.4, 0.08);
}

TEST_F(FabricFixture, BackgroundTrafficValidatesArguments) {
  EXPECT_THROW((BackgroundTraffic{simulator, fabric, 0, 1, 0.0}), std::invalid_argument);
  EXPECT_THROW((BackgroundTraffic{simulator, fabric, 0, 1, 1.0}), std::invalid_argument);
  EXPECT_THROW((BackgroundTraffic{simulator, fabric, 0, 1, 0.5, 0}), std::invalid_argument);
}

TEST_F(FabricFixture, BackgroundTrafficStopsCleanly) {
  BackgroundTraffic traffic{simulator, fabric, 0, 1, 0.3};
  traffic.start();
  simulator.run_until(Time::from_sec(1));
  traffic.stop();
  const auto sent = traffic.chunks_sent();
  EXPECT_GT(sent, 0u);
  simulator.run_until(Time::from_sec(2));
  EXPECT_EQ(traffic.chunks_sent(), sent);
}

}  // namespace
}  // namespace ampom::net
