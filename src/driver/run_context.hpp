#pragma once
// RunContext: everything observability-related that belongs to ONE run.
//
// Before this existed, per-run state was split between a process-wide
// Logger singleton (concurrent runs raced on its level and sink) and
// driver::Runner (which held the trace recorder of "the last run"). A
// RunContext gathers all of it behind one object with no global fallback:
//
//   - the Logger the run writes through (AMPOM_LOG takes a Logger&),
//     optionally captured into an in-memory buffer instead of stderr;
//   - the TraceRecorder built from Scenario::trace, alive as long as the
//     context so the timeline can be exported after the run;
//   - the metric sinks notified when the run finishes.
//
// Two runs never share a context, which is what makes SweepExecutor's
// parallelism safe: run_scenario touches nothing outside the Scenario it
// was given and the RunContext it was handed.

#include <functional>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "driver/metrics.hpp"
#include "driver/scenario.hpp"
#include "simcore/log.hpp"
#include "trace/trace.hpp"

namespace ampom::driver {

class RunContext {
 public:
  struct Options {
    sim::LogLevel log_level{sim::LogLevel::Warn};
    // Where log lines go. Ignored when capture_log is set; nullptr means
    // stderr (pass capture_log=true and never read the buffer to discard).
    std::ostream* log_sink{nullptr};
    // Route the run's log into an internal buffer (captured_log()) instead
    // of a shared stream — the log-capture API tests use, and the only
    // stderr-safe choice when runs execute concurrently.
    bool capture_log{false};
  };

  // The recorder is configured from scenario.trace; the scenario itself is
  // not retained.
  explicit RunContext(const Scenario& scenario) : RunContext{scenario, Options{}} {}
  RunContext(const Scenario& scenario, Options options);

  [[nodiscard]] sim::Logger& log() { return logger_; }
  [[nodiscard]] const sim::Logger& log() const { return logger_; }

  [[nodiscard]] trace::TraceRecorder& trace() { return *recorder_; }
  [[nodiscard]] const trace::TraceRecorder& trace() const { return *recorder_; }

  // Everything the run logged, when Options::capture_log was set.
  [[nodiscard]] std::string captured_log() const { return capture_.str(); }

  // Observers of the finished run; notify_sinks is called once by whoever
  // drives the run (Runner / SweepExecutor).
  void add_metric_sink(std::function<void(const RunMetrics&)> sink) {
    sinks_.push_back(std::move(sink));
  }
  void notify_sinks(const RunMetrics& metrics) const {
    for (const auto& sink : sinks_) {
      sink(metrics);
    }
  }

  // Exports the run's events as Chrome trace_event JSON (chrome://tracing,
  // Perfetto). Returns false when tracing was off or the file cannot be
  // opened.
  [[nodiscard]] bool write_trace_json(const std::string& path) const;

 private:
  std::ostringstream capture_;
  sim::Logger logger_;
  // Heap-allocated so the context stays movable-in-place for containers
  // even though instrumented components hold TraceRecorder*.
  std::unique_ptr<trace::TraceRecorder> recorder_;
  std::vector<std::function<void(const RunMetrics&)>> sinks_;
};

}  // namespace ampom::driver
