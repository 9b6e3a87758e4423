// Loss sweep: the reliable protocol stack under increasing message loss.
//
// Runs the standard migration + remote-paging experiment (DGEMM, mid size)
// with the reliable paging/migration protocol enabled and the fault
// injector dropping 0 / 1 / 2 / 5 % of all messages. Reports how much the
// loss costs (execution time, freeze time) and what the protocol did about
// it (retransmits, timeouts, duplicate suppression), then rolls the per-run
// reliability counters into one sweep-wide summary table.
//
// The 0 % row doubles as the transparency check: with no faults the
// reliable run completes with zero retransmits and the same page traffic
// as the classic protocol.

#include "bench/common.hpp"

int main(int argc, char** argv) {
  using namespace ampom;
  const bench::Options opts = bench::parse_options(argc, argv);
  bench::SweepRunner runner{opts};

  const auto kernel = workload::HpccKernel::Dgemm;
  const std::uint64_t mib = opts.quick ? bench::kernel_sizes(kernel, true).front()
                                       : bench::kernel_sizes(kernel, false)[2];

  bench::SweepSpec spec{"Chaos: loss sweep - DGEMM, reliable protocol",
                        {"loss", "total (s)", "freeze (s)", "retransmits", "timeouts",
                         "dup dropped", "replayed", "chunk rexmit", "net dropped"}};
  for (const double drop : {0.0, 0.01, 0.02, 0.05}) {
    spec.add_case(
        [kernel, mib, drop] {
          driver::FaultPlan plan;
          plan.seed = 17;
          plan.default_faults.drop_probability = drop;
          return bench::cell_builder(kernel, mib, driver::Scheme::Ampom)
              .reliable()
              .faults(plan)
              .build();
        },
        [drop](const driver::RunMetrics& m) -> bench::SweepSpec::Row {
          return {stats::Table::percent(drop, 0),
                  stats::Table::num(m.total_time.sec()),
                  stats::Table::num(m.freeze_time.sec()),
                  stats::Table::integer(m.paging_retransmits),
                  stats::Table::integer(m.paging_timeouts),
                  stats::Table::integer(m.paging_duplicates_dropped),
                  stats::Table::integer(m.deputy_pages_replayed),
                  stats::Table::integer(m.migration_chunk_retransmits),
                  stats::Table::integer(m.net_messages_dropped)};
        });
  }
  const auto metrics = runner.run(spec);

  stats::Counters rollup;
  for (const auto& case_metrics : metrics) {
    for (const driver::RunMetrics& m : case_metrics) {
      rollup.merge(m.reliability_counters());
    }
  }
  stats::Table summary{"Chaos: reliability counters (sweep total)", {"counter", "value"}};
  for (const auto& [name, value] : rollup.all()) {
    summary.add_row({name, stats::Table::integer(value)});
  }
  runner.emit(summary);
  return 0;
}
