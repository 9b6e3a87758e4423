#include "ampom_fuzz/fuzz.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "balancer/cluster_sim.hpp"
#include "balancer/load_balancer.hpp"
#include "driver/builder.hpp"
#include "simcore/fmt.hpp"
#include "simcore/rng.hpp"
#include "simcore/units.hpp"
#include "verify/invariant_auditor.hpp"
#include "workload/synthetic.hpp"

namespace ampom::fuzz {

namespace {

// Detection calls a peer dead after dead_periods (8) x infod period (250 ms)
// of silence = 2 s. Two generator rules follow from it:
//  - partitions must heal well before 2 s of silence accumulates, or the
//    majority side "reclaims" a migrant that is alive on the minority side;
//  - everything else (crash downtime, campaign spacing) may range freely,
//    because the balancer re-homes both consensus-dead migrants and migrants
//    frozen on a rebooted host.
constexpr std::int64_t kMaxPartitionMs = 1800;

[[nodiscard]] std::int64_t ms_in(sim::Rng& rng, std::int64_t lo, std::int64_t hi) {
  return lo + static_cast<std::int64_t>(rng.uniform(static_cast<std::uint64_t>(hi - lo + 1)));
}

}  // namespace

FuzzCase generate_case(std::uint64_t seed) {
  sim::Rng rng{seed};
  FuzzCase out;
  out.seed = seed;
  out.nodes = 3 + rng.uniform(5);  // 3..7
  // Drop probability is capped: per-observer heartbeat loss runs of 8
  // periods happen at rate p^8 per window, and a dead-consensus false
  // positive needs them on a majority of observers at once — negligible at
  // 15%, common enough to pollute runs well above ~25%.
  out.drop_pct = rng.bernoulli(0.4) ? 0 : static_cast<std::uint32_t>(1 + rng.uniform(15));

  const std::size_t job_count = 1 + rng.uniform(3);
  for (std::size_t i = 0; i < job_count; ++i) {
    FuzzJob job;
    job.home = 0;
    job.memory_mib = 4 + rng.uniform(5);    // 4..8 MiB
    job.hot_pages = 32 + rng.uniform(97);   // 32..128
    job.touches = 20000 + rng.uniform(40001);
    job.cold_pct = static_cast<std::uint32_t>(2 + rng.uniform(9));
    if (rng.bernoulli(0.85)) {
      // First hop lands inside the campaign window, so freezes race crashes,
      // partitions and flaps. The destination may already be down — that is
      // the abort path, on purpose.
      job.migrate_at = sim::Time::from_ms(ms_in(rng, 1200, 2000));
      job.migrate_dst = static_cast<net::NodeId>(1 + rng.uniform(out.nodes - 1));
    }
    out.jobs.push_back(job);
  }

  // Roughly a third of cases run the cache-aware placement policy over an
  // enabled hierarchy, so CPMD warm-up accounting meets crashes/partitions.
  out.cache_policy = rng.bernoulli(0.3);

  out.chaos.seed = rng.next();
  const std::size_t campaigns = 1 + rng.uniform(3);
  for (std::size_t i = 0; i < campaigns; ++i) {
    switch (rng.uniform(4)) {
      case 0: {
        cluster::CrashWave wave;
        wave.crashes = static_cast<std::uint32_t>(1 + rng.uniform(2));
        wave.start = sim::Time::from_ms(ms_in(rng, 1000, 2500));
        wave.spacing = sim::Time::from_ms(ms_in(rng, 100, 500));
        // Zero downtime (stays down) ~1/4 of the time; otherwise the reboot
        // may beat or lose the 2 s dead threshold — both recovery paths.
        wave.downtime = rng.bernoulli(0.25) ? sim::Time::zero()
                                            : sim::Time::from_ms(ms_in(rng, 1000, 3000));
        wave.spare_node0 = true;  // homes/deputies live on node 0
        out.chaos.crash_waves.push_back(wave);
        break;
      }
      case 1: {
        // Home-side partition: node 0 plus a random subset vs the rest.
        cluster::Partition part;
        part.group_a.push_back(0);
        for (net::NodeId n = 1; n < out.nodes; ++n) {
          if (rng.bernoulli(0.3)) {
            part.group_a.push_back(n);
          }
        }
        const std::int64_t at = ms_in(rng, 1200, 2000);
        part.at = sim::Time::from_ms(at);
        part.heal_at = sim::Time::from_ms(at + ms_in(rng, 500, kMaxPartitionMs));
        out.chaos.partitions.push_back(part);
        break;
      }
      case 2: {
        // Zone outage over non-home nodes, always restored.
        cluster::ZoneOutage zone;
        std::vector<net::NodeId> pool;
        for (net::NodeId n = 1; n < out.nodes; ++n) {
          pool.push_back(n);
        }
        const std::uint64_t victims =
            1 + rng.uniform(std::min<std::uint64_t>(2, pool.size()));
        for (std::uint64_t v = 0; v < victims; ++v) {
          const std::uint64_t pick = rng.uniform(pool.size());
          zone.nodes.push_back(pool[pick]);
          pool.erase(pool.begin() + static_cast<std::ptrdiff_t>(pick));
        }
        const std::int64_t at = ms_in(rng, 1000, 2500);
        zone.at = sim::Time::from_ms(at);
        zone.restore_at = sim::Time::from_ms(at + ms_in(rng, 1000, 3000));
        out.chaos.zone_outages.push_back(zone);
        break;
      }
      default: {
        cluster::LinkFlap flap;
        flap.a = 0;
        flap.b = static_cast<net::NodeId>(1 + rng.uniform(out.nodes - 1));
        const std::int64_t start = ms_in(rng, 1000, 1500);
        flap.start = sim::Time::from_ms(start);
        flap.stop = sim::Time::from_ms(start + ms_in(rng, 1000, 2500));
        flap.period = sim::Time::from_ms(ms_in(rng, 100, 300));
        flap.duty = static_cast<double>(25 + rng.uniform(51)) / 100.0;  // 0.25..0.75
        out.chaos.link_flaps.push_back(flap);
        break;
      }
    }
  }
  return out;
}

FuzzResult run_case(const FuzzCase& fuzz_case) {
  FuzzResult result;
  driver::ScenarioBuilder world_builder;
  world_builder.scheme(driver::Scheme::Ampom)
      .topology(1, static_cast<std::uint32_t>(std::max<std::size_t>(fuzz_case.nodes, 2)));
  if (fuzz_case.cache_policy) {
    world_builder.cache_model();
  }
  balancer::ClusterSim world{world_builder.build()};
  verify::InvariantAuditor auditor{world};
  balancer::LoadBalancer::Config balancer_config;
  balancer_config.period = sim::Time::from_ms(250);
  // Pure failure handler: an absurd threshold disables load-driven moves, so
  // the only migrations are the scripted ones and the only rehomes are
  // reclaim_stranded's — the shape the invariants reason about.
  balancer_config.imbalance_threshold = 1e9;
  if (fuzz_case.cache_policy) {
    balancer_config.placement = driver::Placement::kCacheAware;
  }
  balancer::LoadBalancer balancer{world, balancer_config};

  try {
    world.set_reliable(true);
    if (fuzz_case.mutate_skip_abort_rollback) {
      world.mutate_skip_abort_rollback();
    }
    world.enable_recovery_tracking();

    driver::FaultPlan plan;
    plan.seed = fuzz_case.seed;
    plan.default_faults.drop_probability = static_cast<double>(fuzz_case.drop_pct) / 100.0;
    plan.chaos = fuzz_case.chaos;
    world.set_fault_plan(plan);

    std::vector<balancer::ProcessHost*> hosts;
    for (std::size_t i = 0; i < fuzz_case.jobs.size(); ++i) {
      const FuzzJob& job = fuzz_case.jobs[i];
      balancer::JobSpec spec;
      spec.label = sim::strfmt("fuzz-job%zu", i);
      spec.home = job.home;
      spec.start = sim::Time::from_ms(1000) + sim::Time::from_ms(50) * static_cast<std::int64_t>(i);
      const std::uint64_t workload_seed = fuzz_case.seed + 0x9E3779B97F4A7C15ULL * (i + 1);
      spec.make_workload = [job, workload_seed] {
        return std::make_unique<workload::HotColdStream>(
            job.memory_mib * sim::kMiB, job.hot_pages, job.touches,
            static_cast<double>(job.cold_pct) / 100.0, sim::Time::from_us(100), workload_seed);
      };
      hosts.push_back(&world.spawn(std::move(spec)));
    }

    for (std::size_t i = 0; i < fuzz_case.jobs.size(); ++i) {
      const FuzzJob& job = fuzz_case.jobs[i];
      if (job.migrate_at <= sim::Time::zero()) {
        continue;
      }
      balancer::ProcessHost* host = hosts[i];
      world.simulator().schedule_at(job.migrate_at, [host, dst = job.migrate_dst] {
        // Only the scripted first hop; if the process already bounced through
        // a recovery, leave placement to the failure handler.
        if (host->migratable() && host->current_node() == host->home_node()) {
          host->migrate_to(dst);
        }
      });
    }

    balancer.start();
    result.finished = world.run_until(fuzz_case.deadline);
    if (!result.finished) {
      result.ok = false;
      result.failure = sim::strfmt(
          "livelock: %llu ms deadline passed with unfinished processes",
          static_cast<unsigned long long>(fuzz_case.deadline.ns() / 1'000'000));
    }
  } catch (const std::exception& error) {
    result.ok = false;
    result.finished = false;
    result.failure = error.what();
  }

  result.trail = auditor.trail();
  result.violations = auditor.violations();
  result.crashes = world.recovery_stats().crashes;
  result.rehomes = world.recovery_stats().rehomes;
  result.heals = world.recovery_stats().heals;
  return result;
}

namespace {

// True iff the candidate still fails — the shrinker's acceptance test.
[[nodiscard]] bool still_fails(const FuzzCase& candidate, ShrinkStats* stats) {
  if (stats != nullptr) {
    ++stats->attempts;
  }
  const bool failed = !run_case(candidate).ok;
  if (failed && stats != nullptr) {
    ++stats->accepted;
  }
  return failed;
}

// Largest node id any job or campaign references (0 if none).
[[nodiscard]] net::NodeId max_referenced_node(const FuzzCase& fuzz_case) {
  net::NodeId max_node = 0;
  for (const FuzzJob& job : fuzz_case.jobs) {
    max_node = std::max(max_node, std::max(job.home, job.migrate_dst));
  }
  for (const cluster::ZoneOutage& zone : fuzz_case.chaos.zone_outages) {
    for (const net::NodeId n : zone.nodes) {
      max_node = std::max(max_node, n);
    }
  }
  for (const cluster::Partition& part : fuzz_case.chaos.partitions) {
    for (const net::NodeId n : part.group_a) {
      max_node = std::max(max_node, n);
    }
  }
  for (const cluster::LinkFlap& flap : fuzz_case.chaos.link_flaps) {
    max_node = std::max(max_node, std::max(flap.a, flap.b));
  }
  return max_node;
}

// Try removing one campaign at a time (every kind, every index); returns
// true if any removal kept the failure.
bool shrink_campaigns(FuzzCase& best, ShrinkStats* stats) {
  bool improved = false;
  const auto try_erase = [&](auto cluster::ChaosPlan::* member) {
    for (std::size_t i = 0; i < (best.chaos.*member).size();) {
      FuzzCase candidate = best;
      auto& vec = candidate.chaos.*member;
      vec.erase(vec.begin() + static_cast<std::ptrdiff_t>(i));
      if (still_fails(candidate, stats)) {
        best = std::move(candidate);
        improved = true;  // same index now names the next element
      } else {
        ++i;
      }
    }
  };
  try_erase(&cluster::ChaosPlan::zone_outages);
  try_erase(&cluster::ChaosPlan::partitions);
  try_erase(&cluster::ChaosPlan::crash_waves);
  try_erase(&cluster::ChaosPlan::link_flaps);
  return improved;
}

}  // namespace

FuzzCase shrink_case(const FuzzCase& failing, ShrinkStats* stats) {
  FuzzCase best = failing;
  bool improved = true;
  while (improved) {
    improved = false;

    improved |= shrink_campaigns(best, stats);

    if (best.drop_pct > 0) {
      FuzzCase candidate = best;
      candidate.drop_pct = 0;
      if (still_fails(candidate, stats)) {
        best = std::move(candidate);
        improved = true;
      }
    }

    for (std::size_t i = 0; i < best.jobs.size() && best.jobs.size() > 1;) {
      FuzzCase candidate = best;
      candidate.jobs.erase(candidate.jobs.begin() + static_cast<std::ptrdiff_t>(i));
      if (still_fails(candidate, stats)) {
        best = std::move(candidate);
        improved = true;
      } else {
        ++i;
      }
    }

    while (best.nodes > 2 && best.nodes - 1 > max_referenced_node(best)) {
      FuzzCase candidate = best;
      --candidate.nodes;
      if (!still_fails(candidate, stats)) {
        break;
      }
      best = std::move(candidate);
      improved = true;
    }

    for (std::size_t i = 0; i < best.jobs.size(); ++i) {
      while (best.jobs[i].touches / 2 >= 5000) {
        FuzzCase candidate = best;
        candidate.jobs[i].touches /= 2;
        if (!still_fails(candidate, stats)) {
          break;
        }
        best = std::move(candidate);
        improved = true;
      }
      while (best.jobs[i].hot_pages / 2 >= 16) {
        FuzzCase candidate = best;
        candidate.jobs[i].hot_pages /= 2;
        if (!still_fails(candidate, stats)) {
          break;
        }
        best = std::move(candidate);
        improved = true;
      }
    }

    for (std::size_t i = 0; i < best.chaos.crash_waves.size(); ++i) {
      while (best.chaos.crash_waves[i].crashes > 1) {
        FuzzCase candidate = best;
        --candidate.chaos.crash_waves[i].crashes;
        if (!still_fails(candidate, stats)) {
          break;
        }
        best = std::move(candidate);
        improved = true;
      }
    }
  }
  return best;
}

namespace {

[[nodiscard]] std::int64_t whole_ms(sim::Time t) { return t.ns() / 1'000'000; }

[[nodiscard]] std::string join_nodes(const std::vector<net::NodeId>& nodes) {
  std::string out;
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    if (i > 0) {
      out += ',';
    }
    out += sim::strfmt("%u", nodes[i]);
  }
  return out;
}

}  // namespace

std::string serialize_case(const FuzzCase& fuzz_case) {
  std::string out = "# ampom_fuzz repro v1\n";
  out += sim::strfmt("seed %llu\n", static_cast<unsigned long long>(fuzz_case.seed));
  out += sim::strfmt("nodes %zu\n", fuzz_case.nodes);
  out += sim::strfmt("drop_pct %u\n", fuzz_case.drop_pct);
  out += sim::strfmt("deadline_ms %lld\n", static_cast<long long>(whole_ms(fuzz_case.deadline)));
  out += sim::strfmt("mutate %d\n", fuzz_case.mutate_skip_abort_rollback ? 1 : 0);
  out += sim::strfmt("cache_policy %d\n", fuzz_case.cache_policy ? 1 : 0);
  out += sim::strfmt("chaos_seed %llu\n", static_cast<unsigned long long>(fuzz_case.chaos.seed));
  for (const FuzzJob& job : fuzz_case.jobs) {
    out += sim::strfmt(
        "job home=%u memory_mib=%llu hot_pages=%llu touches=%llu cold_pct=%u "
        "migrate_at_ms=%lld migrate_dst=%u\n",
        job.home, static_cast<unsigned long long>(job.memory_mib),
        static_cast<unsigned long long>(job.hot_pages),
        static_cast<unsigned long long>(job.touches), job.cold_pct,
        static_cast<long long>(whole_ms(job.migrate_at)), job.migrate_dst);
  }
  for (const cluster::ZoneOutage& zone : fuzz_case.chaos.zone_outages) {
    out += sim::strfmt("zone at_ms=%lld restore_ms=%lld nodes=%s\n",
                       static_cast<long long>(whole_ms(zone.at)),
                       static_cast<long long>(whole_ms(zone.restore_at)),
                       join_nodes(zone.nodes).c_str());
  }
  for (const cluster::Partition& part : fuzz_case.chaos.partitions) {
    out += sim::strfmt("partition at_ms=%lld heal_ms=%lld group=%s\n",
                       static_cast<long long>(whole_ms(part.at)),
                       static_cast<long long>(whole_ms(part.heal_at)),
                       join_nodes(part.group_a).c_str());
  }
  for (const cluster::CrashWave& wave : fuzz_case.chaos.crash_waves) {
    out += sim::strfmt("wave crashes=%u start_ms=%lld spacing_ms=%lld downtime_ms=%lld spare0=%d\n",
                       wave.crashes, static_cast<long long>(whole_ms(wave.start)),
                       static_cast<long long>(whole_ms(wave.spacing)),
                       static_cast<long long>(whole_ms(wave.downtime)),
                       wave.spare_node0 ? 1 : 0);
  }
  for (const cluster::LinkFlap& flap : fuzz_case.chaos.link_flaps) {
    out += sim::strfmt("flap a=%u b=%u start_ms=%lld stop_ms=%lld period_ms=%lld duty=%.17g\n",
                       flap.a, flap.b, static_cast<long long>(whole_ms(flap.start)),
                       static_cast<long long>(whole_ms(flap.stop)),
                       static_cast<long long>(whole_ms(flap.period)), flap.duty);
  }
  return out;
}

namespace {

[[noreturn]] void bad_repro(const std::string& why) {
  throw std::invalid_argument("ampom_fuzz repro: " + why);
}

// Splits "key=value" (throws without '='); empty values are allowed.
[[nodiscard]] std::pair<std::string, std::string> split_kv(const std::string& token) {
  const std::size_t eq = token.find('=');
  if (eq == std::string::npos) {
    bad_repro("expected key=value, got '" + token + "'");
  }
  return {token.substr(0, eq), token.substr(eq + 1)};
}

[[nodiscard]] std::vector<std::string> split_ws(const std::string& line) {
  std::vector<std::string> out;
  std::size_t i = 0;
  while (i < line.size()) {
    while (i < line.size() && (line[i] == ' ' || line[i] == '\t')) {
      ++i;
    }
    std::size_t start = i;
    while (i < line.size() && line[i] != ' ' && line[i] != '\t') {
      ++i;
    }
    if (i > start) {
      out.push_back(line.substr(start, i - start));
    }
  }
  return out;
}

[[nodiscard]] std::uint64_t parse_u64(const std::string& text) {
  if (text.empty()) {
    bad_repro("empty number");
  }
  std::uint64_t value = 0;
  for (const char c : text) {
    if (c < '0' || c > '9') {
      bad_repro("bad number '" + text + "'");
    }
    value = value * 10 + static_cast<std::uint64_t>(c - '0');
  }
  return value;
}

[[nodiscard]] sim::Time parse_ms(const std::string& text) {
  return sim::Time::from_ms(static_cast<std::int64_t>(parse_u64(text)));
}

[[nodiscard]] double parse_double(const std::string& text) {
  try {
    std::size_t used = 0;
    const double value = std::stod(text, &used);
    if (used != text.size()) {
      bad_repro("bad real '" + text + "'");
    }
    return value;
  } catch (const std::invalid_argument&) {
    bad_repro("bad real '" + text + "'");
  } catch (const std::out_of_range&) {
    bad_repro("bad real '" + text + "'");
  }
}

[[nodiscard]] std::vector<net::NodeId> parse_node_list(const std::string& text) {
  std::vector<net::NodeId> out;
  std::size_t start = 0;
  while (start <= text.size()) {
    const std::size_t comma = text.find(',', start);
    const std::string piece =
        text.substr(start, comma == std::string::npos ? std::string::npos : comma - start);
    out.push_back(static_cast<net::NodeId>(parse_u64(piece)));
    if (comma == std::string::npos) {
      break;
    }
    start = comma + 1;
  }
  return out;
}

}  // namespace

FuzzCase parse_case(const std::string& text) {
  FuzzCase out;
  out.jobs.clear();
  bool saw_header = false;
  bool saw_seed = false;
  std::size_t start = 0;
  while (start < text.size()) {
    std::size_t end = text.find('\n', start);
    if (end == std::string::npos) {
      end = text.size();
    }
    const std::string line = text.substr(start, end - start);
    start = end + 1;
    if (line.empty()) {
      continue;
    }
    if (line[0] == '#') {
      if (line == "# ampom_fuzz repro v1") {
        saw_header = true;
      }
      continue;
    }
    if (!saw_header) {
      bad_repro("missing '# ampom_fuzz repro v1' header");
    }
    const std::vector<std::string> tokens = split_ws(line);
    if (tokens.empty()) {
      continue;
    }
    const std::string& kind = tokens[0];
    const auto scalar = [&](const char* name) -> const std::string& {
      if (tokens.size() != 2) {
        bad_repro(std::string{name} + " needs exactly one value");
      }
      return tokens[1];
    };
    if (kind == "seed") {
      out.seed = parse_u64(scalar("seed"));
      saw_seed = true;
    } else if (kind == "nodes") {
      out.nodes = parse_u64(scalar("nodes"));
    } else if (kind == "drop_pct") {
      out.drop_pct = static_cast<std::uint32_t>(parse_u64(scalar("drop_pct")));
    } else if (kind == "deadline_ms") {
      out.deadline = parse_ms(scalar("deadline_ms"));
    } else if (kind == "mutate") {
      out.mutate_skip_abort_rollback = parse_u64(scalar("mutate")) != 0;
    } else if (kind == "cache_policy") {
      out.cache_policy = parse_u64(scalar("cache_policy")) != 0;
    } else if (kind == "chaos_seed") {
      out.chaos.seed = parse_u64(scalar("chaos_seed"));
    } else {
      // Record lines: every remaining token is key=value.
      FuzzJob job;
      cluster::ZoneOutage zone;
      cluster::Partition part;
      cluster::CrashWave wave;
      cluster::LinkFlap flap;
      for (std::size_t i = 1; i < tokens.size(); ++i) {
        const auto [key, value] = split_kv(tokens[i]);
        if (kind == "job") {
          if (key == "home") {
            job.home = static_cast<net::NodeId>(parse_u64(value));
          } else if (key == "memory_mib") {
            job.memory_mib = parse_u64(value);
          } else if (key == "hot_pages") {
            job.hot_pages = parse_u64(value);
          } else if (key == "touches") {
            job.touches = parse_u64(value);
          } else if (key == "cold_pct") {
            job.cold_pct = static_cast<std::uint32_t>(parse_u64(value));
          } else if (key == "migrate_at_ms") {
            job.migrate_at = parse_ms(value);
          } else if (key == "migrate_dst") {
            job.migrate_dst = static_cast<net::NodeId>(parse_u64(value));
          } else {
            bad_repro("unknown job key '" + key + "'");
          }
        } else if (kind == "zone") {
          if (key == "at_ms") {
            zone.at = parse_ms(value);
          } else if (key == "restore_ms") {
            zone.restore_at = parse_ms(value);
          } else if (key == "nodes") {
            zone.nodes = parse_node_list(value);
          } else {
            bad_repro("unknown zone key '" + key + "'");
          }
        } else if (kind == "partition") {
          if (key == "at_ms") {
            part.at = parse_ms(value);
          } else if (key == "heal_ms") {
            part.heal_at = parse_ms(value);
          } else if (key == "group") {
            part.group_a = parse_node_list(value);
          } else {
            bad_repro("unknown partition key '" + key + "'");
          }
        } else if (kind == "wave") {
          if (key == "crashes") {
            wave.crashes = static_cast<std::uint32_t>(parse_u64(value));
          } else if (key == "start_ms") {
            wave.start = parse_ms(value);
          } else if (key == "spacing_ms") {
            wave.spacing = parse_ms(value);
          } else if (key == "downtime_ms") {
            wave.downtime = parse_ms(value);
          } else if (key == "spare0") {
            wave.spare_node0 = parse_u64(value) != 0;
          } else {
            bad_repro("unknown wave key '" + key + "'");
          }
        } else if (kind == "flap") {
          if (key == "a") {
            flap.a = static_cast<net::NodeId>(parse_u64(value));
          } else if (key == "b") {
            flap.b = static_cast<net::NodeId>(parse_u64(value));
          } else if (key == "start_ms") {
            flap.start = parse_ms(value);
          } else if (key == "stop_ms") {
            flap.stop = parse_ms(value);
          } else if (key == "period_ms") {
            flap.period = parse_ms(value);
          } else if (key == "duty") {
            flap.duty = parse_double(value);
          } else {
            bad_repro("unknown flap key '" + key + "'");
          }
        } else {
          bad_repro("unknown record '" + kind + "'");
        }
      }
      if (kind == "job") {
        out.jobs.push_back(job);
      } else if (kind == "zone") {
        out.chaos.zone_outages.push_back(zone);
      } else if (kind == "partition") {
        out.chaos.partitions.push_back(part);
      } else if (kind == "wave") {
        out.chaos.crash_waves.push_back(wave);
      } else if (kind == "flap") {
        out.chaos.link_flaps.push_back(flap);
      } else {
        bad_repro("unknown record '" + kind + "'");
      }
    }
  }
  if (!saw_header) {
    bad_repro("missing '# ampom_fuzz repro v1' header");
  }
  if (!saw_seed) {
    bad_repro("missing 'seed' line");
  }
  if (out.nodes < 2) {
    bad_repro("nodes must be at least 2");
  }
  if (out.jobs.empty()) {
    bad_repro("at least one job line required");
  }
  return out;
}

}  // namespace ampom::fuzz
