// Scheduling-policy study (the paper's §7: "new scheduling policies can
// make use of AMPoM ... to perform more aggressive migrations since the
// performance penalty of suboptimal decisions has been dramatically
// decreased").
//
// A batch of jobs lands on an overloaded node (70 % background load). For
// each job a simple balancer decides whether to migrate it to an idle node,
// comparing the predicted migration cost against the predicted slowdown of
// staying. We run the same decision procedure under two cost models:
// openMosix full-copy (expensive freezes -> conservative decisions) and
// AMPoM (cheap freezes -> aggressive migration), then report per-job and
// total completion times.

#include <iostream>
#include <vector>

#include "driver/builder.hpp"
#include "driver/runner.hpp"
#include "stats/table.hpp"
#include "workload/hpcc.hpp"

namespace {

using namespace ampom;

struct Job {
  workload::HpccKernel kernel;
  std::uint64_t memory_mib;
  std::uint64_t working_set_mib{0};  // 0 = touches everything
  [[nodiscard]] std::string label() const {
    std::string name = workload::hpcc_kernel_name(kernel);
    if (working_set_mib != 0) {
      name += "(ws " + std::to_string(working_set_mib) + "MB)";
    }
    return name;
  }
};

// Run one job either in place (busy node, no migration) or migrated away.
driver::RunMetrics run_job(const Job& job, bool migrate, driver::Scheme scheme) {
  // Staying: the job keeps running on the loaded node. Emulated by a
  // migration whose destination carries the same background load.
  const driver::Scenario s =
      driver::ScenarioBuilder{}
          .scheme(scheme)
          .workload(job.label(),
                    [job] {
                      if (job.working_set_mib != 0) {
                        return workload::make_small_ws_dgemm(job.memory_mib,
                                                             job.working_set_mib);
                      }
                      return workload::make_hpcc_kernel(job.kernel, job.memory_mib);
                    },
                    job.memory_mib)
          .dest_background_load(migrate ? 0.0 : 0.7)
          .build();
  return driver::run_experiment(s);
}

}  // namespace

int main() {
  const std::vector<Job> jobs = {
      {workload::HpccKernel::Stream, 65, 0},
      {workload::HpccKernel::RandomAccess, 65, 0},
      {workload::HpccKernel::Fft, 65, 0},
      {workload::HpccKernel::Dgemm, 129, 0},
      // Sparse jobs: big allocations, small working sets (paper §5.6) —
      // exactly where the cost models disagree.
      {workload::HpccKernel::Dgemm, 129, 33},
      {workload::HpccKernel::Dgemm, 257, 65},
      {workload::HpccKernel::Dgemm, 257, 33},
  };

  stats::Table table{"Load balancer: migrate-or-stay decisions per cost model",
                     {"job", "size (MB)", "stay (s)", "openMosix move (s)", "AMPoM move (s)",
                      "openMosix verdict", "AMPoM verdict"}};

  double total_om = 0.0;
  double total_am = 0.0;
  for (const Job& job : jobs) {
    // Staying pays no freeze: only the slowed-down execution.
    const double stay = run_job(job, false, driver::Scheme::OpenMosix).exec_time.sec();
    const double om_move = run_job(job, true, driver::Scheme::OpenMosix).total_time.sec();
    const double am_move = run_job(job, true, driver::Scheme::Ampom).total_time.sec();

    const bool om_migrates = om_move < stay;
    const bool am_migrates = am_move < stay;
    total_om += om_migrates ? om_move : stay;
    total_am += am_migrates ? am_move : stay;

    table.add_row({job.label(), stats::Table::integer(job.memory_mib),
                   stats::Table::num(stay, 1),
                   stats::Table::num(om_move, 1), stats::Table::num(am_move, 1),
                   om_migrates ? "migrate" : "stay", am_migrates ? "migrate" : "stay"});
  }
  table.print(std::cout);

  std::cout << "Aggregate job time with openMosix decisions: " << total_om << " s\n"
            << "Aggregate job time with AMPoM decisions:     " << total_am << " s\n"
            << "AMPoM's cheap freezes make migration the winning move more often,\n"
               "cutting aggregate completion time by "
            << stats::Table::percent(1.0 - total_am / total_om) << ".\n";
  return 0;
}
