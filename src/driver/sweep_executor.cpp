#include "driver/sweep_executor.hpp"

#include <atomic>
#include <thread>

#include "driver/runner.hpp"

namespace ampom::driver {

void SweepExecutor::parallel_for(std::size_t jobs, std::size_t n,
                                 const std::function<void(std::size_t)>& fn) {
  if (jobs == 0) {
    jobs = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  jobs = std::min(jobs, n);
  if (jobs <= 1) {
    for (std::size_t i = 0; i < n; ++i) {
      fn(i);
    }
    return;
  }
  // Dynamic claiming: workers pull the next unclaimed index, so one slow
  // case (a 575 MB DGEMM cell) cannot idle the rest of the pool behind a
  // static partition.
  std::atomic<std::size_t> next{0};
  std::vector<std::thread> workers;
  workers.reserve(jobs);
  for (std::size_t w = 0; w < jobs; ++w) {
    workers.emplace_back([&next, n, &fn] {
      for (std::size_t i = next.fetch_add(1); i < n; i = next.fetch_add(1)) {
        fn(i);
      }
    });
  }
  for (std::thread& worker : workers) {
    worker.join();
  }
}

std::vector<SweepExecutor::Outcome> SweepExecutor::run_all(
    const std::vector<ScenarioFactory>& cases) {
  std::vector<Outcome> outcomes(cases.size());
  RunContext::Options ctx_options;
  ctx_options.log_level = options_.log_level;
  ctx_options.capture_log = options_.capture_logs;
  parallel_for(options_.exec.jobs, cases.size(), [&](std::size_t i) {
    Outcome& out = outcomes[i];
    try {
      Scenario scenario = cases[i]();
      if (options_.exec.workers != 0 && scenario.workers == 0) {
        scenario.workers = options_.exec.workers;
      }
      out.context = std::make_unique<RunContext>(scenario, ctx_options);
      out.metrics = detail::run_scenario(scenario, *out.context);
      out.context->notify_sinks(out.metrics);
    } catch (...) {
      out.error = std::current_exception();
    }
  });
  return outcomes;
}

std::vector<RunMetrics> SweepExecutor::run_scenarios(const std::vector<Scenario>& cases) {
  std::vector<ScenarioFactory> factories;
  factories.reserve(cases.size());
  for (const Scenario& scenario : cases) {
    factories.push_back([&scenario] { return scenario; });
  }
  std::vector<Outcome> outcomes = run_all(factories);
  std::vector<RunMetrics> metrics;
  metrics.reserve(outcomes.size());
  for (Outcome& out : outcomes) {
    if (!out.ok()) {
      std::rethrow_exception(out.error);
    }
    metrics.push_back(std::move(out.metrics));
  }
  return metrics;
}

}  // namespace ampom::driver
