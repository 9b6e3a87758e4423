#pragma once
// Runner: the one-at-a-time experiment facade.
//
// A run builds the Scenario's balancer::ClusterSim (the paper's testbed
// when it names no topology), spawns the one job on node 0 after a 1 s
// InfoDaemon warm-up and scripts its hops: 0 -> 1 1 ms later and, when
// `remigrate_after` is set, 1 -> 2 that long after the first hop lands.
// Each run() also constructs a fresh RunContext (per-run logger at the
// configured level, trace recorder built from Scenario::trace, the
// registered metric sinks) and keeps the finished context alive so the
// caller can export the timeline or read the captured log afterwards.
// Nothing is process-wide — two Runners on two threads never interact (see
// driver/sweep_executor.hpp for the pooled version).

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "driver/metrics.hpp"
#include "driver/run_context.hpp"
#include "driver/scenario.hpp"
#include "simcore/log.hpp"

namespace ampom::driver {

class Runner {
 public:
  struct Options {
    // Log level of each run's Logger; nullopt keeps the default (Warn).
    std::optional<sim::LogLevel> log_level;
    // Capture each run's log into its RunContext (read it back with
    // context()->captured_log()) instead of writing to stderr.
    bool capture_log{false};
  };

  Runner() = default;
  explicit Runner(Options options) : options_{options} {}

  // Observers of every finished run, invoked in registration order.
  void add_metric_sink(std::function<void(const RunMetrics&)> sink) {
    sinks_.push_back(std::move(sink));
  }

  // Runs one scenario to completion. The context from the previous run is
  // replaced, so context() / trace() / write_trace_json() always describe
  // the last run.
  RunMetrics run(const Scenario& scenario);

  // Last run's context (null before the first run).
  [[nodiscard]] const RunContext* context() const { return context_.get(); }

  // Last run's recorder (null before the first run). Disabled tracing still
  // yields a recorder — an empty one.
  [[nodiscard]] const trace::TraceRecorder* trace() const {
    return context_ ? &context_->trace() : nullptr;
  }

  // Exports the last run's events as Chrome trace_event JSON
  // (chrome://tracing, Perfetto). Returns false when there is nothing to
  // write (no run yet or tracing was off) or the file cannot be opened.
  [[nodiscard]] bool write_trace_json(const std::string& path) const;

 private:
  Options options_;
  std::unique_ptr<RunContext> context_;
  std::vector<std::function<void(const RunMetrics&)>> sinks_;
};

// Scenario in, metrics out: Runner{}.run(scenario).
[[nodiscard]] RunMetrics run_experiment(const Scenario& scenario);

namespace detail {
// One run with the caller's context: logs through its Logger and wires its
// trace recorder into every instrumented layer. Touches nothing outside
// `scenario` and `ctx`, so concurrent calls with distinct contexts are safe.
[[nodiscard]] RunMetrics run_scenario(const Scenario& scenario, RunContext& ctx);
}  // namespace detail

}  // namespace ampom::driver
