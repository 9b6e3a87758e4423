// The paper's §5.6/§7 motivation case: a large interactive application —
// big address space, small hot working set, frequent system calls — being
// migrated off a workstation. openMosix ships all of its (mostly cold)
// memory during the freeze; AMPoM ships three pages plus the page table and
// then fetches only what the session actually touches.
//
// Also demonstrates the home-dependency knob: with openMosix-style syscall
// redirection every I/O call round-trips to the home node; the Zap-style
// variant (paper §7) executes them locally after migration.

#include <iostream>
#include <memory>

#include "driver/builder.hpp"
#include "driver/runner.hpp"
#include "stats/table.hpp"
#include "workload/synthetic.hpp"

int main() {
  using namespace ampom;
  using sim::Time;

  // 256 MB allocated; the session loop touches a ~6 MB hot set with rare
  // cold excursions and issues a syscall burst per interaction.
  static constexpr sim::Bytes kMemory = 256 * sim::kMiB;
  auto make_session = [] {
    return std::make_unique<workload::HotColdStream>(
        kMemory, /*hot_pages=*/1536, /*touches=*/120000, /*cold_fraction=*/0.02,
        Time::from_us(40));
  };

  stats::Table table{"Interactive app (256 MB allocated, ~6 MB hot set): migration cost",
                     {"scheme", "freeze", "total (s)", "pages moved", "MB moved"}};
  for (const auto scheme :
       {driver::Scheme::OpenMosix, driver::Scheme::NoPrefetch, driver::Scheme::Ampom}) {
    const driver::Scenario s = driver::ScenarioBuilder{}
                                   .scheme(scheme)
                                   .workload("interactive", make_session, kMemory / sim::kMiB)
                                   .build();
    const auto m = driver::run_experiment(s);
    const std::uint64_t moved = m.pages_migrated + m.pages_arrived;
    table.add_row({m.scheme, m.freeze_time.str(), stats::Table::num(m.total_time.sec(), 2),
                   stats::Table::integer(moved),
                   stats::Table::integer(moved * mem::kPageBytes / sim::kMiB)});
  }
  table.print(std::cout);
  std::cout << "AMPoM moves only the hot set; openMosix ships all 256 MB for a\n"
               "session that will never touch most of it (paper section 5.6).\n\n";

  // Home dependency: the same session with syscall bursts.
  // Compute-bound bursts so the syscall round trips are not hidden under
  // the page-fetch stream.
  auto make_syscall_session = [] {
    return std::make_unique<workload::InteractiveStream>(kMemory, /*bursts=*/400,
                                                         /*pages_per_burst=*/10,
                                                         /*syscalls_per_burst=*/6,
                                                         Time::from_us(300));
  };
  stats::Table home{"Syscall-heavy session: home dependency (openMosix) vs local (Zap-style)",
                    {"syscall handling", "total (s)", "redirected calls"}};
  for (const bool home_dep : {true, false}) {
    const driver::Scenario s =
        driver::ScenarioBuilder{}
            .scheme(driver::Scheme::Ampom)
            .workload("interactive-syscalls", make_syscall_session, kMemory / sim::kMiB)
            .home_dependency(home_dep)
            .build();
    const auto m = driver::run_experiment(s);
    home.add_row({home_dep ? "redirected to home" : "executed locally",
                  stats::Table::num(m.total_time.sec(), 2),
                  stats::Table::integer(m.syscalls_redirected)});
  }
  home.print(std::cout);
  std::cout << "Removing the home dependency (the paper's section-7 future work)\n"
               "eliminates one WAN round trip per system call.\n";
  return 0;
}
