// Epidemic gossip dissemination and the zone-sharded balancer.
//
// Three claims are pinned here: (1) a load change reaches every daemon
// within a bounded number of gossip rounds while each daemon sends only
// O(fan_out) messages per period; (2) fan_out >= n-1 degenerates to the
// exact all-pairs ping mesh, bit-identical to a pre-gossip world; (3) the
// auditor's failure-detection invariants (I5) hold when heartbeats travel
// by gossip and a whole zone goes down and comes back.

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "balancer/cluster_sim.hpp"
#include "balancer/load_balancer.hpp"
#include "cluster/infod.hpp"
#include "cluster/node.hpp"
#include "driver/builder.hpp"
#include "simcore/simulator.hpp"
#include "verify/invariant_auditor.hpp"
#include "workload/synthetic.hpp"

namespace ampom {
namespace {

using sim::Time;

// A 16-node gossip mesh of bare daemons (no processes): every daemon knows
// every other as a peer, but only contacts `fan_out` of them per tick.
struct GossipMesh {
  static constexpr std::size_t kNodes = 16;
  sim::Simulator simulator;
  net::Fabric fabric{simulator, kNodes};
  proc::NodeCosts costs;
  std::vector<std::unique_ptr<cluster::Node>> nodes;
  std::vector<std::unique_ptr<cluster::InfoDaemon>> infods;

  explicit GossipMesh(std::uint32_t fan_out, Time period = Time::from_ms(100)) {
    for (net::NodeId id = 0; id < kNodes; ++id) {
      nodes.push_back(std::make_unique<cluster::Node>(simulator, fabric, id, costs));
      infods.push_back(std::make_unique<cluster::InfoDaemon>(simulator, fabric, id, period));
      nodes[id]->set_infod(infods[id].get());
    }
    cluster::GossipConfig gossip;
    gossip.enabled = true;
    gossip.fan_out = fan_out;
    for (net::NodeId id = 0; id < kNodes; ++id) {
      for (net::NodeId peer = 0; peer < kNodes; ++peer) {
        if (peer != id) {
          infods[id]->add_peer(peer);
        }
      }
      infods[id]->set_gossip(gossip);
      infods[id]->set_failure_detection(true);
    }
  }

  void start_all() {
    for (auto& d : infods) {
      d->start();
    }
  }
};

TEST(Gossip, LoadConvergesWithinBoundedRounds) {
  GossipMesh mesh{/*fan_out=*/2};
  mesh.infods[0]->set_local_load_source([] { return 0.75; });
  mesh.start_all();
  // Push gossip with fan-out 2 infects 16 nodes in O(log n) expected
  // rounds; 20 rounds (2 s at 100 ms) is a generous deterministic bound —
  // the peer picks are seeded, so this either always passes or never does.
  mesh.simulator.run_until(Time::from_sec(2));
  for (net::NodeId id = 1; id < GossipMesh::kNodes; ++id) {
    EXPECT_DOUBLE_EQ(mesh.infods[id]->known_load(0), 0.75) << "daemon " << id;
  }
}

TEST(Gossip, PerNodeTrafficIsFanOutNotClusterSize) {
  GossipMesh mesh{/*fan_out=*/2};
  mesh.start_all();
  mesh.simulator.run_until(Time::from_sec(2));
  // 100 ms period over 2 s = at most 20 ticks started; each tick sends
  // exactly fan_out pings regardless of the 15 known peers.
  for (const auto& d : mesh.infods) {
    EXPECT_GT(d->pings_sent(), 0u);
    EXPECT_LE(d->pings_sent(), 2u * 20u);
  }
  // And the digest piggybacking actually carries third-party state.
  std::uint64_t relayed = 0;
  for (const auto& d : mesh.infods) {
    relayed += d->digest_entries_sent();
  }
  EXPECT_GT(relayed, 0u);
}

TEST(Gossip, SuspicionFollowsGossipSilence) {
  GossipMesh mesh{/*fan_out=*/3};
  mesh.start_all();
  mesh.simulator.run_until(Time::from_sec(2));
  // All alive while everyone gossips...
  EXPECT_EQ(mesh.infods[5]->peer_health(0), cluster::PeerHealth::kAlive);
  // ...then node 0 goes silent: no new versions originate, so every other
  // daemon's last_heard for node 0 ages past the dead threshold even though
  // gossip keeps flowing among the survivors.
  mesh.infods[0]->stop();
  mesh.simulator.run_until(Time::from_sec(4));
  for (net::NodeId id = 1; id < GossipMesh::kNodes; ++id) {
    EXPECT_EQ(mesh.infods[id]->peer_health(0), cluster::PeerHealth::kDead)
        << "daemon " << id;
  }
}

balancer::JobSpec burst_job(net::NodeId home, std::uint64_t touches, int index) {
  balancer::JobSpec job;
  job.home = home;
  job.label = "burst";
  job.start = Time::from_ms(50 * index);
  job.make_workload = [touches] {
    return std::make_unique<workload::HotColdStream>(8 * sim::kMiB, /*hot_pages=*/256,
                                                     touches, /*cold_fraction=*/0.05,
                                                     Time::from_us(90));
  };
  return job;
}

TEST(Gossip, FullFanOutIsBitIdenticalToLegacyMesh) {
  // fan_out = n-1 takes the exact legacy all-pairs code path: same wire
  // messages in the same order, so the whole run — balancer decisions,
  // migrations, event count — must match a pre-gossip world exactly.
  const auto run_world = [](bool gossip) {
    std::unique_ptr<balancer::ClusterSim> world;
    if (gossip) {
      const driver::Scenario scenario = driver::ScenarioBuilder{}
                                            .scheme(driver::Scheme::Ampom)
                                            .topology(1, 16)
                                            .gossip(/*fan_out=*/15)
                                            .build();
      world = std::make_unique<balancer::ClusterSim>(scenario);
    } else {
      world = std::make_unique<balancer::ClusterSim>(16, driver::Scheme::Ampom);
    }
    for (int i = 0; i < 6; ++i) {
      world->spawn(burst_job(0, 30000, i));
    }
    balancer::LoadBalancer::Config cfg;
    cfg.assumed_freeze_seconds = 0.2;
    balancer::LoadBalancer balancer{*world, cfg};
    balancer.start();
    world->run();

    struct Result {
      sim::Time makespan;
      std::uint64_t events;
      std::uint64_t migrations{0};
      std::uint64_t pings{0};
      std::vector<net::NodeId> placement;
    } result{world->makespan(), world->simulator().events_processed(), 0, 0, {}};
    for (const auto& host : world->hosts()) {
      result.migrations += host->migrations();
      result.placement.push_back(host->current_node());
    }
    for (net::NodeId id = 0; id < 16; ++id) {
      result.pings += world->infod(id).pings_sent();
    }
    return result;
  };

  const auto legacy = run_world(false);
  const auto gossip = run_world(true);
  EXPECT_EQ(gossip.makespan, legacy.makespan);
  EXPECT_EQ(gossip.events, legacy.events);
  EXPECT_EQ(gossip.migrations, legacy.migrations);
  EXPECT_EQ(gossip.pings, legacy.pings);
  EXPECT_EQ(gossip.placement, legacy.placement);
  EXPECT_GT(legacy.migrations, 0u);  // the comparison is not vacuous
}

// ---------------------------------------------------------------------------
// Cache-pressure digests (GossipConfig::cache_digest)
// ---------------------------------------------------------------------------

TEST(GossipVersioning, CacheFormatPingCarriesPressure) {
  GossipMesh mesh{/*fan_out=*/2};
  net::GossipPing ping;
  ping.seq = 1;
  ping.sent_at = mesh.simulator.now();
  ping.cpu_load = 0.5;
  ping.sender_version = 7;
  ping.cache_pressure = 0.7;
  ping.digest.push_back({/*node=*/2, /*version=*/3, /*load=*/0.9, /*cache_pressure=*/0.8});
  mesh.infods[0]->on_gossip_ping(1, ping);
  EXPECT_DOUBLE_EQ(mesh.infods[0]->known_load(1), 0.5);
  EXPECT_DOUBLE_EQ(mesh.infods[0]->known_cache_pressure(1), 0.7);
  EXPECT_DOUBLE_EQ(mesh.infods[0]->known_cache_pressure(2), 0.8);
}

TEST(GossipVersioning, MixedFormatClusterStillConvergesOnLoadAndLiveness) {
  // Half the daemons gossip cache digests, half do not; the
  // version/heartbeat semantics do not depend on the digest, so load and
  // liveness converge exactly as in a uniform mesh.
  GossipMesh mesh{/*fan_out=*/3};
  for (net::NodeId id = 0; id < GossipMesh::kNodes; ++id) {
    cluster::GossipConfig config = mesh.infods[id]->gossip();
    config.cache_digest = id < GossipMesh::kNodes / 2;
    mesh.infods[id]->set_gossip(config);
  }
  mesh.infods[0]->set_local_load_source([] { return 0.75; });
  mesh.infods[0]->set_local_cache_pressure_source([] { return 0.6; });
  mesh.start_all();
  mesh.simulator.run_until(Time::from_sec(2));
  for (net::NodeId id = 1; id < GossipMesh::kNodes; ++id) {
    EXPECT_DOUBLE_EQ(mesh.infods[id]->known_load(0), 0.75) << "daemon " << id;
    EXPECT_EQ(mesh.infods[id]->peer_health(0), cluster::PeerHealth::kAlive)
        << "daemon " << id;
    // Pressure for node 0 is either still unheard or exactly node 0's
    // value — never garbage.
    const double pressure = mesh.infods[id]->known_cache_pressure(0);
    EXPECT_TRUE(pressure == 0.0 || pressure == 0.6) << "daemon " << id << ": " << pressure;
  }
}

TEST(GossipVersioning, CacheDigestMeshConvergesOnPressure) {
  // Full fan-out with the cache digest on: the degenerate tick keeps
  // gossiping (LoadPing cannot carry pressure), so every peer learns node
  // 0's pressure directly from its pings.
  GossipMesh mesh{/*fan_out=*/GossipMesh::kNodes - 1};
  for (net::NodeId id = 0; id < GossipMesh::kNodes; ++id) {
    cluster::GossipConfig config = mesh.infods[id]->gossip();
    config.cache_digest = true;
    mesh.infods[id]->set_gossip(config);
  }
  mesh.infods[0]->set_local_cache_pressure_source([] { return 0.6; });
  mesh.start_all();
  mesh.simulator.run_until(Time::from_sec(2));
  for (net::NodeId id = 1; id < GossipMesh::kNodes; ++id) {
    EXPECT_DOUBLE_EQ(mesh.infods[id]->known_cache_pressure(0), 0.6) << "daemon " << id;
  }
}

TEST(GossipVersioning, HierarchyPressureRidesTheDigest) {
  // End to end: a cache-model world wires the memory hierarchy into the
  // daemons' pressure source and flips the digests to the cache format, so
  // remote daemons see the loaded node's LLC pressure mid-run.
  const driver::Scenario scenario = driver::ScenarioBuilder{}
                                        .scheme(driver::Scheme::Ampom)
                                        .topology(/*zones=*/1, /*nodes_per_zone=*/4)
                                        .gossip(/*fan_out=*/3)
                                        .cache_model()
                                        .build();
  balancer::ClusterSim world{scenario};
  for (int i = 0; i < 3; ++i) {
    world.spawn(burst_job(0, 40000, i));
  }
  double seen = -1.0;
  world.simulator().schedule_at(Time::from_sec(1.0), [&] {
    seen = world.infod(1).known_cache_pressure(0);
  });
  world.run();
  EXPECT_GT(seen, 0.0);
}

TEST(ZonedBalancer, SheddsLoadWithinAndAcrossZones) {
  // Two zones of four; a 12-job burst lands entirely on node 0. The zoned
  // balancer first spreads within zone 0, and once that zone is internally
  // level but still towers over zone 1, the global tier moves jobs across.
  const driver::Scenario scenario = driver::ScenarioBuilder{}
                                        .scheme(driver::Scheme::Ampom)
                                        .topology(/*zones=*/2, /*nodes_per_zone=*/4)
                                        .gossip(/*fan_out=*/2)
                                        .build();
  balancer::ClusterSim world{scenario};
  for (int i = 0; i < 12; ++i) {
    world.spawn(burst_job(0, 40000, i));
  }
  balancer::LoadBalancer::Config cfg;
  cfg.assumed_freeze_seconds = 0.2;
  balancer::LoadBalancer balancer{world, cfg};
  balancer.start();
  world.run();

  for (const auto& host : world.hosts()) {
    EXPECT_TRUE(host->finished());
  }
  EXPECT_GT(balancer.intra_zone_moves(), 0u);
  EXPECT_GT(balancer.cross_zone_moves(), 0u);
  EXPECT_EQ(balancer.decisions(), balancer.intra_zone_moves() + balancer.cross_zone_moves());
}

TEST(ZonedBalancer, AuditorCleanUnderGossipAndZoneOutage) {
  // I5 under gossip: zone 1 crashes whole and comes back; heartbeat
  // counters travel by gossip digest, and the auditor's per-zone majority
  // checks must stay violation-free through outage, detection and heal.
  const driver::Scenario scenario = driver::ScenarioBuilder{}
                                        .scheme(driver::Scheme::Ampom)
                                        .topology(/*zones=*/2, /*nodes_per_zone=*/3)
                                        .gossip(/*fan_out=*/2)
                                        .reliable()
                                        .zone_outage(/*zone=*/1u, Time::from_sec(1.5),
                                                     /*restore_at=*/Time::from_sec(4))
                                        .build();
  balancer::ClusterSim world{scenario};
  verify::InvariantAuditor auditor{world};
  for (int i = 0; i < 6; ++i) {
    world.spawn(burst_job(/*home=*/static_cast<net::NodeId>(i % 3), 40000, i));
  }
  balancer::LoadBalancer::Config cfg;
  cfg.assumed_freeze_seconds = 0.2;
  balancer::LoadBalancer balancer{world, cfg};
  balancer.start();
  world.run();

  for (const auto& host : world.hosts()) {
    EXPECT_TRUE(host->finished());
  }
  EXPECT_EQ(auditor.violations(), 0u) << auditor.first_violation();
  EXPECT_GT(auditor.epochs_run(), 0u);
}

}  // namespace
}  // namespace ampom
