// Ablation: batched vs per-page prefetch requests. A negative result worth
// keeping: because all of a fault's requests are issued together either
// way, the reply stream is identical and the completion timeline does not
// move — batching "only" collapses the request messages (reverse-path
// traffic and deputy per-request handling), which sit below the page-stream
// bottleneck at both 100 Mb/s and 6 Mb/s. The pipelining win the paper's
// Fig. 3 illustrates comes from prefetching itself (see ablation_zone_cap's
// min_zone sweep), not from message aggregation.

#include "bench/common.hpp"

int main(int argc, char** argv) {
  using namespace ampom;
  const bench::Options opts = bench::parse_options(argc, argv);
  bench::SweepRunner runner{opts};
  const std::uint64_t mib = opts.quick ? 33 : 129;

  bench::SweepSpec spec{"Ablation: request batching (paper: batched)",
                        {"kernel", "network", "batching", "requests sent", "req wire KiB",
                         "total (s)"}};
  for (const auto kernel : {workload::HpccKernel::Stream, workload::HpccKernel::Dgemm}) {
    for (const bool broadband : {false, true}) {
      for (const bool batching : {true, false}) {
        spec.add_case(
            [kernel, mib, broadband, batching] {
              driver::Scenario s = bench::make_scenario(kernel, mib, driver::Scheme::Ampom);
              s.ampom.batch_requests = batching;
              if (broadband) {
                s.shaped_link = driver::broadband_link();
              }
              return s;
            },
            [kernel, broadband, batching](const driver::RunMetrics& m)
                -> bench::SweepSpec::Row {
              const std::uint64_t requests = m.remote_fault_requests + m.prefetch_requests;
              const std::uint64_t pages = m.prefetch_pages_issued + m.remote_fault_requests;
              const sim::Bytes req_bytes = requests * proc::WireCosts{}.request_base +
                                           pages * proc::WireCosts{}.request_per_page;
              return {workload::hpcc_kernel_name(kernel), broadband ? "6Mb/s" : "100Mb/s",
                      batching ? "on" : "off", stats::Table::integer(requests),
                      stats::Table::integer(req_bytes / 1024),
                      stats::Table::num(m.total_time.sec(), 2)};
            });
      }
    }
  }
  runner.run(spec);
  return 0;
}
