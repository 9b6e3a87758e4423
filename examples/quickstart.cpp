// Quickstart: migrate one 128 MB STREAM-like process with each of the three
// mechanisms and compare freeze time, runtime and fault traffic.
//
// Build & run:
//   cmake -B build -G Ninja && cmake --build build
//   ./build/examples/quickstart

#include <iostream>

#include "driver/builder.hpp"
#include "driver/runner.hpp"
#include "stats/table.hpp"
#include "workload/hpcc.hpp"

int main() {
  using namespace ampom;

  stats::Table table{"AMPoM quickstart: migrating a 129 MB STREAM process",
                     {"scheme", "freeze", "total", "fault reqs", "prevented"}};

  for (const driver::Scheme scheme :
       {driver::Scheme::OpenMosix, driver::Scheme::NoPrefetch, driver::Scheme::Ampom}) {
    const driver::Scenario scenario =
        driver::ScenarioBuilder{}
            .scheme(scheme)
            .hpcc_workload(workload::HpccKernel::Stream, 129)
            .build();

    const driver::RunMetrics m = driver::run_experiment(scenario);
    table.add_row({m.scheme, m.freeze_time.str(), m.total_time.str(),
                   stats::Table::integer(m.remote_fault_requests),
                   stats::Table::percent(m.prevented_fault_fraction())});
  }

  table.print(std::cout);
  std::cout << "AMPoM's freeze is near-instant like NoPrefetch, while its runtime\n"
               "stays close to openMosix (which never takes a remote fault).\n";
  return 0;
}
