#pragma once
// Shared harness for the per-figure benchmark binaries.
//
// Every figure binary accepts:
//   --quick        run a reduced sweep (small sizes; for CI smoke runs)
//   --jobs=N       run the sweep's cases on N worker threads (default 1;
//                  results are bit-identical to the serial run)
//   --workers=N    intra-run parallelism for cluster-world benches: run each
//                  simulation on N threads over zone-partitioned event
//                  queues (default 0 = legacy serial engine; any N >= 1 is
//                  bit-identical to N=1, see DESIGN.md §15)
//   --csv=FILE     additionally dump every table as CSV
// and prints one aligned table per paper figure, with the paper's reported
// values quoted in the header comment of each binary for comparison.
// The grid benches gated by tools/perf_gate (scale_sweep, parallel_sweep,
// cache_ablation) take GridOptions instead and write a MetricsDoc.
//
// A bench declares its sweep instead of hand-rolling the loop: a SweepSpec
// is a table schema plus a list of cases, where each case contributes one
// or more scenario factories and one row computed from their finished
// metrics. SweepRunner executes every scenario of every case on a
// driver::SweepExecutor pool (--jobs wide), then assembles, prints and
// CSV-appends the rows in declaration order — the table is identical no
// matter how many workers ran the cases. The runner owns the binary's one
// CSV stream for its whole lifetime (truncated at open), so concurrent
// cases can never interleave table fragments in the file.
//
//   bench::SweepRunner runner{opts};
//   bench::SweepSpec spec{"Fig. N: ...", {"size", "AMPoM", "openMosix"}};
//   spec.add_case({bench::cell(k, mib, Scheme::Ampom),
//                  bench::cell(k, mib, Scheme::OpenMosix)},
//                 [mib](std::span<const driver::RunMetrics> m) { ...row... });
//   runner.run(spec);

#include <charconv>
#include <cstring>
#include <exception>
#include <fstream>
#include <iostream>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "driver/builder.hpp"
#include "driver/runner.hpp"
#include "driver/sweep_executor.hpp"
#include "stats/table.hpp"
#include "workload/hpcc.hpp"

namespace ampom::bench {

struct Options {
  bool quick{false};
  // Inter-run (--jobs=N, sweep pool width) and intra-run (--workers=N,
  // simulator threads for cluster worlds) parallelism in one policy block —
  // every bench binary takes both, replacing the per-binary jobs flags.
  driver::ExecPolicy exec{};
  std::optional<std::string> csv_path;
};

inline Options parse_options(int argc, char** argv) {
  Options opts;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--quick") {
      opts.quick = true;
    } else if (opts.exec.parse_flag(arg)) {
      // --jobs=N / --workers=N handled by the policy
    } else if (arg.rfind("--csv=", 0) == 0) {
      opts.csv_path = arg.substr(6);
    } else if (arg == "--help" || arg == "-h") {
      std::cout << "usage: " << argv[0]
                << " [--quick] [--jobs=N] [--workers=N] [--csv=FILE]\n";
      std::exit(0);
    } else {
      std::cerr << "unknown option: " << arg << "\n";
      std::exit(2);
    }
  }
  return opts;
}

// The flags of the grid benches that emit a perf_gate document
// (scale_sweep, parallel_sweep, cache_ablation): --quick / --full pick the
// grid, --json=FILE writes the document to FILE instead of stdout.
struct GridOptions {
  bool quick{false};
  bool full{false};
  std::string json_path;
};

inline GridOptions parse_grid_options(int argc, char** argv) {
  GridOptions opts;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--quick") {
      opts.quick = true;
    } else if (arg == "--full") {
      opts.full = true;
    } else if (arg.rfind("--json=", 0) == 0) {
      opts.json_path = arg.substr(7);
    } else if (arg == "--help" || arg == "-h") {
      std::cout << "usage: " << argv[0] << " [--quick|--full] [--json=FILE]\n";
      std::exit(0);
    } else {
      std::cerr << "unknown option: " << arg << "\n";
      std::exit(2);
    }
  }
  return opts;
}

// The one document format tools/perf_gate reads (schema 2):
//   {"schema": 2, "tool": "scale_sweep", "host_cpus": 4, "metrics": {
//     "n64.events": {"value": 1005370, "better": "both"},
//     "n64.msgs_per_node_period": {"value": 5.97, "better": "lower", "limit": 9}}}
// A metric is named "<case>.<name>". `better` is its whole rule: perf_gate
// checks `limit` in that direction, holds lower/higher one-sided and both
// inside a band against the committed baseline, and only reports info.
// Values render in the shortest form that reads back to the same double, so
// counters compared exactly survive the round trip.
class MetricsDoc {
 public:
  enum class Better { kLower, kHigher, kBoth, kInfo };

  MetricsDoc(std::string tool, unsigned host_cpus)
      : tool_{std::move(tool)}, host_cpus_{host_cpus} {}

  MetricsDoc& add(std::string name, double value, Better better,
                  std::optional<double> limit = std::nullopt) {
    metrics_.push_back(Metric{std::move(name), value, better, limit});
    return *this;
  }

  [[nodiscard]] std::string render() const {
    static constexpr const char* kBetterNames[] = {"lower", "higher", "both", "info"};
    std::string out = "{\n  \"schema\": 2,\n  \"tool\": \"" + tool_ +
                      "\",\n  \"host_cpus\": " + std::to_string(host_cpus_) +
                      ",\n  \"metrics\": {\n";
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
      const Metric& m = metrics_[i];
      out += "    \"" + m.name + "\": {\"value\": " + number(m.value) + ", \"better\": \"" +
             kBetterNames[static_cast<int>(m.better)] + "\"";
      if (m.limit) {
        out += ", \"limit\": " + number(*m.limit);
      }
      out += i + 1 < metrics_.size() ? "},\n" : "}\n";
    }
    out += "  }\n}\n";
    return out;
  }

  // Writes the document to `path`, or to stdout when `path` is empty.
  // Returns the bench's exit code: 0, or 2 when the file cannot be written.
  [[nodiscard]] int write(const std::string& path) const {
    if (path.empty()) {
      std::cout << render();
      return 0;
    }
    std::ofstream out{path, std::ios::binary};
    if (!(out << render())) {
      std::cerr << "cannot write " << path << "\n";
      return 2;
    }
    return 0;
  }

 private:
  struct Metric {
    std::string name;
    double value;
    Better better;
    std::optional<double> limit;
  };

  static std::string number(double v) {
    char buf[32];
    const auto result = std::to_chars(buf, buf + sizeof buf, v);
    return std::string(buf, result.ptr);
  }

  std::string tool_;
  unsigned host_cpus_;
  std::vector<Metric> metrics_;
};

// One sweep: a table schema plus cases. Scenario cases run on the pool and
// format a row from their metrics; task cases are free-form row producers
// for studies that do not go through run_experiment (they run on the pool
// too, but nothing is guaranteed about their determinism — that is up to
// the task).
class SweepSpec {
 public:
  using ScenarioFn = driver::SweepExecutor::ScenarioFactory;
  using Row = std::vector<std::string>;
  using RowFn = std::function<Row(std::span<const driver::RunMetrics>)>;
  using RowsFn = std::function<std::vector<Row>(std::span<const driver::RunMetrics>)>;
  using TaskFn = std::function<Row()>;

  SweepSpec(std::string title, std::vector<std::string> columns)
      : title_{std::move(title)}, columns_{std::move(columns)} {}

  // N runs, several rows (e.g. one row per scheme, normalized against the
  // group's baseline run); the span preserves the factories' order.
  SweepSpec& add_case_rows(std::vector<ScenarioFn> scenarios, RowsFn rows) {
    cases_.push_back(Case{std::move(scenarios), std::move(rows), {}});
    return *this;
  }

  // One row from N runs.
  SweepSpec& add_case(std::vector<ScenarioFn> scenarios, RowFn row) {
    return add_case_rows(std::move(scenarios),
                         [row = std::move(row)](std::span<const driver::RunMetrics> m) {
                           return std::vector<Row>{row(m)};
                         });
  }

  // The common one-run-one-row case.
  SweepSpec& add_case(ScenarioFn scenario,
                      std::function<Row(const driver::RunMetrics&)> row) {
    std::vector<ScenarioFn> scenarios;
    scenarios.push_back(std::move(scenario));
    return add_case(std::move(scenarios),
                    [row = std::move(row)](std::span<const driver::RunMetrics> m) {
                      return row(m.front());
                    });
  }

  SweepSpec& add_task(TaskFn task) {
    cases_.push_back(Case{{}, {}, std::move(task)});
    return *this;
  }

 private:
  friend class SweepRunner;
  struct Case {
    std::vector<ScenarioFn> scenarios;
    RowsFn rows;
    TaskFn task;  // set iff scenarios is empty
  };
  std::string title_;
  std::vector<std::string> columns_;
  std::vector<Case> cases_;
};

// Executes SweepSpecs and owns all of the binary's table output: stdout and
// the optional CSV file, written only by the caller's thread, in case order.
class SweepRunner {
 public:
  explicit SweepRunner(Options opts) : opts_{std::move(opts)} {
    if (opts_.csv_path) {
      csv_.emplace(*opts_.csv_path);  // truncate once; one stream per binary
      if (!*csv_) {
        std::cerr << "cannot open " << *opts_.csv_path << " for writing\n";
        std::exit(2);
      }
    }
  }

  [[nodiscard]] const Options& options() const { return opts_; }

  // Runs every scenario and task of the spec at --jobs, emits the table,
  // and returns each case's metrics (empty for task cases) for follow-up
  // aggregation (counter rollups, cross-table summaries). Any failed case
  // rethrows its error (first by declaration order) after the pool drains.
  std::vector<std::vector<driver::RunMetrics>> run(const SweepSpec& spec) {
    struct Unit {
      std::size_t case_index;
      std::size_t slot;  // index into that case's scenarios, or 0 for a task
    };
    std::vector<Unit> units;
    std::vector<std::vector<driver::RunMetrics>> metrics(spec.cases_.size());
    std::vector<std::vector<std::string>> task_rows(spec.cases_.size());
    for (std::size_t c = 0; c < spec.cases_.size(); ++c) {
      const SweepSpec::Case& one = spec.cases_[c];
      metrics[c].resize(one.scenarios.size());
      for (std::size_t s = 0; s < one.scenarios.size(); ++s) {
        units.push_back(Unit{c, s});
      }
      if (one.scenarios.empty()) {
        units.push_back(Unit{c, 0});
      }
    }

    std::vector<std::exception_ptr> errors(units.size());
    driver::SweepExecutor::parallel_for(opts_.exec.jobs, units.size(), [&](std::size_t u) {
      const Unit& unit = units[u];
      const SweepSpec::Case& one = spec.cases_[unit.case_index];
      try {
        if (one.scenarios.empty()) {
          task_rows[unit.case_index] = one.task();
        } else {
          driver::Runner runner{driver::Runner::Options{std::nullopt, /*capture_log=*/true}};
          metrics[unit.case_index][unit.slot] = runner.run(one.scenarios[unit.slot]());
        }
      } catch (...) {
        errors[u] = std::current_exception();
      }
    });
    for (const std::exception_ptr& error : errors) {
      if (error) {
        std::rethrow_exception(error);
      }
    }

    stats::Table table{spec.title_, spec.columns_};
    for (std::size_t c = 0; c < spec.cases_.size(); ++c) {
      const SweepSpec::Case& one = spec.cases_[c];
      if (one.scenarios.empty()) {
        table.add_row(task_rows[c]);
      } else {
        for (auto& row : one.rows(std::span<const driver::RunMetrics>{metrics[c]})) {
          table.add_row(std::move(row));
        }
      }
    }
    emit(table);
    return metrics;
  }

  // Hand-assembled tables (sweep summaries) go through the same writer.
  void emit(const stats::Table& table) {
    table.print(std::cout);
    if (csv_) {
      table.write_csv(*csv_);
    }
  }

 private:
  Options opts_;
  std::optional<std::ofstream> csv_;
};

// The paper's sweep for one kernel (Table 1 sizes), reduced under --quick.
inline std::vector<std::uint64_t> kernel_sizes(workload::HpccKernel kernel, bool quick) {
  std::vector<std::uint64_t> sizes;
  auto collect = [&](const auto& cases) {
    for (const auto& c : cases) {
      sizes.push_back(c.memory_mib);
    }
  };
  switch (kernel) {
    case workload::HpccKernel::Dgemm:
      collect(workload::kDgemmCases);
      break;
    case workload::HpccKernel::Stream:
      collect(workload::kStreamCases);
      break;
    case workload::HpccKernel::RandomAccess:
      collect(workload::kRandomAccessCases);
      break;
    case workload::HpccKernel::Fft:
      collect(workload::kFftCases);
      break;
  }
  if (quick) {
    sizes.resize(2);  // the two smallest sizes only
  }
  return sizes;
}

inline constexpr workload::HpccKernel kAllKernels[] = {
    workload::HpccKernel::Dgemm, workload::HpccKernel::Stream,
    workload::HpccKernel::RandomAccess, workload::HpccKernel::Fft};

inline constexpr driver::Scheme kAllSchemes[] = {
    driver::Scheme::OpenMosix, driver::Scheme::NoPrefetch, driver::Scheme::Ampom};

// A ready-to-extend builder for one paper cell; callers chain further knobs
// (reliability, faults, tracing) before build().
inline driver::ScenarioBuilder cell_builder(workload::HpccKernel kernel,
                                            std::uint64_t memory_mib, driver::Scheme scheme) {
  return driver::ScenarioBuilder{}.scheme(scheme).hpcc_workload(kernel, memory_mib);
}

inline driver::Scenario make_scenario(workload::HpccKernel kernel, std::uint64_t memory_mib,
                                      driver::Scheme scheme) {
  return cell_builder(kernel, memory_mib, scheme).build();
}

// The paper-cell scenario as a pool-ready factory (build() runs on the
// worker, so validation errors surface as that case's outcome).
inline SweepSpec::ScenarioFn cell(workload::HpccKernel kernel, std::uint64_t memory_mib,
                                  driver::Scheme scheme) {
  return [kernel, memory_mib, scheme] { return make_scenario(kernel, memory_mib, scheme); };
}

}  // namespace ampom::bench
