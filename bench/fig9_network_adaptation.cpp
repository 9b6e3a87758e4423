// Figure 9: adaptation to network performance. The link between the home
// and destination nodes is shaped to a broadband profile (6 Mb/s, 2 ms —
// the paper's tc/iptables emulation) and the execution-time increase of
// AMPoM and NoPrefetch relative to openMosix on the same network is
// reported for DGEMM (115 MB) and RandomAccess (129 MB).
//
// Paper shape: AMPoM's overhead stays modest for DGEMM (clear spatial
// locality) even at 6 Mb/s, is more sensitive for RandomAccess, and always
// beats NoPrefetch.

#include "bench/common.hpp"

int main(int argc, char** argv) {
  using namespace ampom;
  const bench::Options opts = bench::parse_options(argc, argv);
  bench::SweepRunner runner{opts};

  struct Case {
    workload::HpccKernel kernel;
    std::uint64_t mib;
  };
  const Case cases[] = {{workload::HpccKernel::Dgemm, opts.quick ? 65u : 115u},
                        {workload::HpccKernel::RandomAccess, opts.quick ? 65u : 129u}};

  bench::SweepSpec spec{"Fig. 9: % increase in execution time vs openMosix (same network)",
                        {"kernel", "network", "AMPoM", "NoPrefetch"}};
  for (const Case& c : cases) {
    for (const bool broadband : {false, true}) {
      auto shaped_cell = [c, broadband](driver::Scheme scheme) -> bench::SweepSpec::ScenarioFn {
        return [c, broadband, scheme] {
          driver::Scenario s = bench::make_scenario(c.kernel, c.mib, scheme);
          if (broadband) {
            s.shaped_link = driver::broadband_link();
          }
          return s;
        };
      };
      spec.add_case({shaped_cell(driver::Scheme::Ampom), shaped_cell(driver::Scheme::OpenMosix),
                     shaped_cell(driver::Scheme::NoPrefetch)},
                    [c, broadband](std::span<const driver::RunMetrics> m)
                        -> bench::SweepSpec::Row {
                      const double om = m[1].total_time.sec();
                      return {workload::hpcc_kernel_name(c.kernel),
                              broadband ? "6Mb/s" : "100Mb/s",
                              stats::Table::percent(m[0].total_time.sec() / om - 1.0),
                              stats::Table::percent(m[2].total_time.sec() / om - 1.0)};
                    });
    }
  }
  runner.run(spec);
  return 0;
}
