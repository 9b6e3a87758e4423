// Live adaptation to network performance: while a migrated STREAM process
// is still pulling its pages, the link between the home and destination
// nodes degrades to the paper's broadband profile (6 Mb/s, 2 ms) and later
// recovers. The per-fault trace hook shows the dependent-zone size reacting
// to the measured round-trip time and available bandwidth — the adaptivity
// claims of paper §3.5 and §5.5, live.

#include <iostream>

#include "driver/builder.hpp"
#include "driver/runner.hpp"
#include "stats/summary.hpp"
#include "stats/table.hpp"
#include "workload/hpcc.hpp"

int main() {
  using namespace ampom;
  using sim::Time;

  driver::ScenarioBuilder builder;
  builder.scheme(driver::Scheme::Ampom).hpcc_workload(workload::HpccKernel::Stream, 129);

  // Bucket the zone-size trace per second of simulated time.
  struct Bucket {
    stats::Summary zone;
    stats::Summary t0_us;
    stats::Summary td_us;
  };
  std::vector<Bucket> buckets(30);
  // The trace runs inside the simulation; we need the current time, so the
  // setup hook also smuggles out the simulator pointer.
  sim::Simulator* sim_ptr = nullptr;

  // Degrade the migrant/home link 6 s into the run (the paper's broadband
  // profile); restore the testbed link at 14 s.
  const net::LinkParams healthy = driver::gideon300_profile().link;
  builder.on_setup([&sim_ptr, healthy](sim::Simulator& simulator, net::Fabric& fabric) {
    sim_ptr = &simulator;
    simulator.schedule_at(Time::from_sec(6.0), [&fabric] {
      fabric.set_link(0, 1, driver::broadband_link());
    });
    simulator.schedule_at(Time::from_sec(14.0), [&fabric, healthy] {
      fabric.set_link(0, 1, healthy);
    });
  });
  builder.ampom_trace([&](const core::ZoneInputs& in, std::uint64_t n, std::size_t) {
    if (sim_ptr == nullptr) {
      return;
    }
    const auto sec = static_cast<std::size_t>(sim_ptr->now().sec());
    if (sec < buckets.size()) {
      buckets[sec].zone.add(static_cast<double>(n));
      buckets[sec].t0_us.add(in.rtt_one_way.us());
      buckets[sec].td_us.add(in.page_transfer.us());
    }
  });

  const auto m = driver::run_experiment(builder.build());

  stats::Table table{"Dependent-zone size under a mid-run network degradation "
                     "(6 Mb/s + 2 ms between t=6 s and t=14 s)",
                     {"t (s)", "faults", "mean zone N", "mean t0 (us)", "mean td (us)"}};
  for (std::size_t sec = 0; sec < buckets.size(); ++sec) {
    if (buckets[sec].zone.empty()) {
      continue;
    }
    table.add_row({stats::Table::integer(sec), stats::Table::integer(buckets[sec].zone.count()),
                   stats::Table::num(buckets[sec].zone.mean(), 1),
                   stats::Table::num(buckets[sec].t0_us.mean(), 1),
                   stats::Table::num(buckets[sec].td_us.mean(), 1)});
  }
  table.print(std::cout);
  std::cout << "Total time " << m.total_time.str() << ", prevented "
            << stats::Table::percent(m.prevented_fault_fraction())
            << " of fault requests. When the link degrades, the measured t0/td\n"
               "grow and AMPoM sizes the dependent zone for the longer pipeline\n"
               "(paper sections 3.5 and 5.5); when the link recovers, it backs off.\n";
  return 0;
}
