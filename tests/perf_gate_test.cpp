// Tests of perf_gate over its rule kinds — limits, one-sided trajectories,
// two-sided bands, info, and the case-set rules — driven through the same
// path a committed baseline takes: a bench's results go through its rules
// in bench/perf_metrics.hpp, render with the MetricsDoc writer, and come
// back through perf_gate's parser and loader.

#include <gtest/gtest.h>

#include <initializer_list>
#include <map>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "bench/perf_metrics.hpp"
#include "perf_gate/gate.hpp"

namespace ampom::perfgate {
namespace {

JsonValue parse_ok(const std::string& text) {
  std::string error;
  auto doc = parse_json(text, &error);
  EXPECT_TRUE(doc.has_value()) << error;
  return doc ? *doc : JsonValue{};
}

Document load(const bench::MetricsDoc& doc) {
  std::string error;
  auto loaded = load_document(parse_ok(doc.render()), &error);
  EXPECT_TRUE(loaded.has_value()) << error;
  return loaded ? *loaded : Document{};
}

std::string load_error(const std::string& text) {
  std::string error;
  EXPECT_FALSE(load_document(parse_ok(text), &error).has_value()) << text;
  return error;
}

// True when one failure mentions every part.
bool fails_with(const GateResult& result, std::initializer_list<const char*> parts) {
  for (const std::string& failure : result.failures) {
    bool all = true;
    for (const char* part : parts) {
      all = all && failure.find(part) != std::string::npos;
    }
    if (all) {
      return true;
    }
  }
  return false;
}

std::string first_failure(const GateResult& result) {
  return result.failures.empty() ? "" : result.failures.front();
}

void erase_prefix(Document& doc, const std::string& prefix) {
  std::erase_if(doc.metrics, [&prefix](const auto& metric) {
    return metric.first.rfind(prefix, 0) == 0;
  });
}

// --- the JSON parser --------------------------------------------------------

TEST(PerfGateJson, ParsesScalarsArraysAndNestedObjects) {
  const JsonValue doc = parse_ok(
      R"({"name": "x", "n": -2.5e3, "flag": true, "none": null,
          "list": [1, 2, 3], "inner": {"k": "v\n\"q\""}})");
  ASSERT_EQ(doc.kind, JsonValue::Kind::Object);
  EXPECT_EQ(doc.find("name")->string, "x");
  EXPECT_DOUBLE_EQ(doc.find("n")->number, -2500.0);
  EXPECT_TRUE(doc.find("flag")->boolean);
  EXPECT_EQ(doc.find("none")->kind, JsonValue::Kind::Null);
  ASSERT_EQ(doc.find("list")->array.size(), 3u);
  EXPECT_DOUBLE_EQ(doc.find("list")->array[2].number, 3.0);
  EXPECT_EQ(doc.find("inner")->find("k")->string, "v\n\"q\"");
  EXPECT_EQ(doc.find("list")->line, 2);
  EXPECT_EQ(doc.find("absent"), nullptr);
}

TEST(PerfGateJson, RejectsMalformedInput) {
  for (const char* bad : {"{", "[1,]", "{\"a\" 1}", "{\"a\": 1} x", "\"unterminated",
                          "{\"a\": nope}", ""}) {
    std::string error;
    EXPECT_FALSE(parse_json(bad, &error).has_value()) << bad;
    EXPECT_EQ(error.rfind("line 1, column ", 0), 0u) << bad << ": " << error;
  }
}

TEST(PerfGateJson, MalformedBaselineNamesTheLine) {
  // A hand-edited baseline missing the comma after line 5: the parser
  // stops where the next member starts.
  const std::string broken = R"({
  "schema": 2,
  "tool": "scale_sweep",
  "metrics": {
    "n64.events": {"value": 1005370, "better": "both"}
    "n64.sim_sec": {"value": 9.54732, "better": "both"}
  }
})";
  std::string error;
  EXPECT_FALSE(parse_json(broken, &error).has_value());
  EXPECT_EQ(error.rfind("line 6, column 5: ", 0), 0u) << error;

  // Well-formed JSON, but a metric without its rule: the loader names the
  // metric's line.
  const std::string no_rule = R"({
  "schema": 2, "tool": "scale_sweep", "host_cpus": 1,
  "metrics": {
    "n64.events": {"value": 1005370}
  }
})";
  const std::string load = load_error(no_rule);
  EXPECT_EQ(load.rfind("line 4: ", 0), 0u) << load;
  EXPECT_NE(load.find("n64.events"), std::string::npos) << load;
}

// --- micro_simcore: the engine profiles -------------------------------------

// The six profile benches' counters as the reporter collects them (an
// unrelated bench rides along, as in a real run).
bench::BenchmarkCounters raw_run(double indexed_cancel_rate, double indexed_cancel_allocs) {
  const auto engine = [](double rate, double allocs, double peak) {
    return std::map<std::string, double>{
        {"events_per_sec", rate}, {"allocs_per_op", allocs}, {"peak_queued", peak}};
  };
  return {{"BM_ScheduleHeavy_Indexed", engine(11.0e6, 0.0, 65536)},
          {"BM_ScheduleHeavy_Lazy", engine(7.0e6, 1.0, 65536)},
          {"BM_CancelHeavy_Indexed", engine(indexed_cancel_rate, indexed_cancel_allocs, 1)},
          {"BM_CancelHeavy_Lazy", engine(15.0e6, 0.75, 1000)},
          {"BM_Mixed_Indexed", engine(36.0e6, 0.0, 2048)},
          {"BM_Mixed_Lazy", engine(12.0e6, 1.0, 4096)},
          {"BM_ScheduleAndRun/1000", {{"items_per_second", 1.0e6}}}};
}

Document simcore(const bench::BenchmarkCounters& raw) {
  std::string error;
  const auto doc = bench::simcore_metrics(raw, 8, error);
  EXPECT_TRUE(doc.has_value()) << error;
  return doc ? load(*doc) : Document{};
}

Document simcore(double cancel_rate, double cancel_allocs) {
  return simcore(raw_run(cancel_rate, cancel_allocs));
}

TEST(PerfGateSummary, NormalizesRawBenchmarkOutput) {
  const Document doc = simcore(73.0e6, 0.0);
  EXPECT_EQ(doc.tool, "micro_simcore");
  EXPECT_EQ(doc.metrics.size(), 3u * 7u);  // three profiles, seven metrics each
  const Metric& speedup = doc.metrics.at("cancel_heavy.speedup_vs_lazy");
  EXPECT_DOUBLE_EQ(speedup.value, 73.0 / 15.0);
  EXPECT_EQ(speedup.better, Better::kHigher);
  EXPECT_EQ(speedup.limit, 1.5);
  EXPECT_FALSE(doc.metrics.at("mixed.speedup_vs_lazy").limit.has_value());
  EXPECT_DOUBLE_EQ(doc.metrics.at("mixed.speedup_vs_lazy").value, 3.0);
  EXPECT_EQ(doc.metrics.at("cancel_heavy.lazy.peak_queued").better, Better::kInfo);
  EXPECT_EQ(doc.metrics.at("cancel_heavy.indexed.allocs_per_op").limit, 0.0);
}

TEST(PerfGateSummary, MissingBenchmarkOrCounterIsAnErrorNotAPass) {
  std::string error;
  EXPECT_FALSE(bench::simcore_metrics({}, 8, error).has_value());
  EXPECT_NE(error.find("BM_ScheduleHeavy_Indexed"), std::string::npos) << error;

  // Drop one counter from one bench: still an error.
  bench::BenchmarkCounters raw = raw_run(73.0e6, 0.0);
  raw.at("BM_Mixed_Lazy").erase("peak_queued");
  EXPECT_FALSE(bench::simcore_metrics(raw, 8, error).has_value());
  EXPECT_NE(error.find("peak_queued"), std::string::npos) << error;
}

TEST(PerfGateSummary, RenderedSummaryRoundTripsThroughLoad) {
  std::string error;
  const auto doc = bench::simcore_metrics(raw_run(73.0e6, 0.0), 8, error);
  ASSERT_TRUE(doc.has_value()) << error;
  const Document reloaded = load(*doc);
  EXPECT_EQ(reloaded.host_cpus, 8.0);
  // Exact, not approximate: values render in their shortest round-trip form.
  EXPECT_EQ(reloaded.metrics.at("cancel_heavy.speedup_vs_lazy").value, 73.0 / 15.0);
  EXPECT_EQ(reloaded.metrics.at("mixed.indexed.allocs_per_op").value, 0.0);
  // Rendering is deterministic: same results, same bytes.
  EXPECT_EQ(doc->render(), bench::simcore_metrics(raw_run(73.0e6, 0.0), 8, error)->render());
}

TEST(PerfGateGate, PassesAHealthyRunWithoutABaseline) {
  const GateResult result = gate(simcore(73.0e6, 0.0), nullptr, false);
  EXPECT_TRUE(result.pass) << first_failure(result);
  EXPECT_TRUE(result.failures.empty());
}

TEST(PerfGateGate, AnySingleIndexedAllocationFailsTheSboInvariant) {
  // One allocation per million ops breaks the exact-zero limit.
  const GateResult result = gate(simcore(73.0e6, 1e-6), nullptr, false);
  EXPECT_FALSE(result.pass);
  ASSERT_EQ(result.failures.size(), 1u);
  EXPECT_TRUE(fails_with(result, {"cancel_heavy.indexed.allocs_per_op", "limit (<= 0)"}))
      << first_failure(result);
}

TEST(PerfGateGate, CancelHeavySpeedupBelowTheFloorFails) {
  const GateResult result = gate(simcore(20.0e6, 0.0), nullptr, false);  // 1.33x
  EXPECT_FALSE(result.pass);
  ASSERT_EQ(result.failures.size(), 1u);
  EXPECT_TRUE(fails_with(result, {"cancel_heavy.speedup_vs_lazy", "limit (>= 1.5)"}))
      << first_failure(result);
}

TEST(PerfGateGate, BaselineTrajectoryIsEnforcedWithTolerance) {
  const Document baseline = simcore(73.0e6, 0.0);  // speedup 4.87x
  // 30% tolerance: the floor is 3.41x. A run at 3.5x passes, 3.0x fails.
  EXPECT_TRUE(gate(simcore(3.5 * 15.0e6, 0.0), &baseline, false).pass);
  const GateResult slow = gate(simcore(3.0 * 15.0e6, 0.0), &baseline, false);
  EXPECT_FALSE(slow.pass);
  ASSERT_EQ(slow.failures.size(), 1u);
  EXPECT_TRUE(fails_with(slow, {"cancel_heavy.speedup_vs_lazy", "regressed"}))
      << first_failure(slow);
}

TEST(PerfGateGate, PeakQueuedGrowthPastBaselineFails) {
  const Document baseline = simcore(73.0e6, 0.0);
  // A leak-shaped regression: cancelled entries pile up again.
  bench::BenchmarkCounters raw = raw_run(73.0e6, 0.0);
  raw.at("BM_CancelHeavy_Indexed").at("peak_queued") = 500.0;
  const GateResult result = gate(simcore(raw), &baseline, false);
  EXPECT_FALSE(result.pass);
  ASSERT_EQ(result.failures.size(), 1u);
  EXPECT_TRUE(fails_with(result, {"cancel_heavy.indexed.peak_queued", "regressed"}))
      << first_failure(result);
}

TEST(PerfGateGate, ProfileMissingFromCurrentRunFails) {
  const Document baseline = simcore(73.0e6, 0.0);
  Document current = simcore(73.0e6, 0.0);
  erase_prefix(current, "mixed.");
  const GateResult result = gate(current, &baseline, false);
  EXPECT_FALSE(result.pass);
  ASSERT_EQ(result.failures.size(), 1u);
  EXPECT_TRUE(fails_with(result, {"'mixed'", "was not run"})) << first_failure(result);
}

TEST(PerfGateLoad, RejectsDocumentsWithoutSchemaOrProfiles) {
  // The retired schema-1 layout, and documents missing their metrics.
  EXPECT_NE(load_error(R"({"schema": 1, "tool": "perf_gate", "profiles": {}})").find("schema"),
            std::string::npos);
  EXPECT_NE(load_error(R"({"tool": "micro_simcore", "host_cpus": 1, "metrics": {}})")
                .find("schema"),
            std::string::npos);
  EXPECT_NE(load_error(R"({"schema": 2, "tool": "micro_simcore", "host_cpus": 1})")
                .find("metrics"),
            std::string::npos);
}

// --- scale_sweep ------------------------------------------------------------

bench::ScaleCase scale_case(std::uint32_t nodes, double msgs, std::uint64_t events,
                            double wall) {
  bench::ScaleCase c;
  c.nodes = nodes;
  c.zones = nodes / 8;
  c.fan_out = 3;
  c.procs = nodes * 10ULL;
  c.events = events;
  c.sim_sec = 10.0;
  c.msgs_per_node_period = msgs;
  c.wall_sec = wall;
  c.events_per_sec = static_cast<double>(events) / wall;
  return c;
}

std::vector<bench::ScaleCase> healthy_scale() {
  return {scale_case(64, 5.97, 1'000'000, 0.5), scale_case(256, 5.91, 4'000'000, 3.6),
          scale_case(1024, 6.00, 16'000'000, 19.0)};
}

Document scale(const std::vector<bench::ScaleCase>& grid) {
  return load(bench::scale_metrics(grid, 8));
}

TEST(PerfGateScale, RoundTripsAndPassesWithoutBaseline) {
  const Document doc = scale(healthy_scale());
  EXPECT_EQ(doc.tool, "scale_sweep");
  EXPECT_EQ(doc.metrics.at("n1024.msgs_per_node_period").value, 6.00);
  EXPECT_EQ(doc.metrics.at("n1024.msgs_per_node_period").limit, 9.0);  // 3 x fan_out
  EXPECT_EQ(doc.metrics.at("n1024.wall_ratio").value, 19.0 / 0.5);
  const GateResult result = gate(doc, nullptr, false);
  EXPECT_TRUE(result.pass) << first_failure(result);
}

TEST(PerfGateScale, PerNodeTrafficAboveFanOutCeilingFails) {
  // An all-pairs regression: traffic scales with cluster size again.
  std::vector<bench::ScaleCase> grid = healthy_scale();
  grid[2].msgs_per_node_period = 2.0 * 1023.0;
  const GateResult result = gate(scale(grid), nullptr, false);
  EXPECT_FALSE(result.pass);
  EXPECT_TRUE(fails_with(result, {"n1024.msgs_per_node_period", "limit (<= 9)"}))
      << first_failure(result);
}

TEST(PerfGateScale, TrafficTrendingWithClusterSizeFails) {
  // Below the 3x-fan_out ceiling but clearly growing with n: the spread
  // across the grid breaks its limit.
  std::vector<bench::ScaleCase> grid = healthy_scale();
  grid[0].msgs_per_node_period = 4.0;
  grid[1].msgs_per_node_period = 6.0;
  grid[2].msgs_per_node_period = 8.5;
  const GateResult result = gate(scale(grid), nullptr, false);
  EXPECT_FALSE(result.pass);
  ASSERT_EQ(result.failures.size(), 1u);
  EXPECT_TRUE(fails_with(result, {"grid.msgs_per_node_period_spread", "limit (<= 1.3)"}))
      << first_failure(result);
}

TEST(PerfGateScale, BaselineOnlyCaseFailsByDefaultNamingTheCase) {
  // A case silently dropped from the run must not gate green: nothing
  // compared it. The failure names the case so the fix is obvious.
  const Document baseline = scale(healthy_scale());
  std::vector<bench::ScaleCase> grid = healthy_scale();
  grid.pop_back();
  const GateResult result = gate(scale(grid), &baseline, false);
  EXPECT_FALSE(result.pass);
  EXPECT_TRUE(fails_with(result, {"'n1024'", "was not run"})) << first_failure(result);
}

TEST(PerfGateScale, AllowCaseSubsetWaivesBaselineOnlyMisses) {
  // The committed baseline carries the full grid; a quick run covering a
  // subset of cases gates cleanly only under the explicit waiver.
  const Document baseline = scale(healthy_scale());
  std::vector<bench::ScaleCase> grid = healthy_scale();
  grid.pop_back();
  const GateResult result = gate(scale(grid), &baseline, true);
  EXPECT_TRUE(result.pass) << first_failure(result);
  ASSERT_EQ(result.notes.size(), 1u);
  EXPECT_NE(result.notes[0].find("n1024"), std::string::npos);
}

TEST(PerfGateScale, CurrentOnlyCaseFailsEvenWithTheSubsetWaiver) {
  // The inverse mismatch — a case the baseline has never seen — is never
  // waivable: until the baseline is refreshed, nothing gates that case.
  const Document baseline = scale(healthy_scale());
  std::vector<bench::ScaleCase> grid = healthy_scale();
  grid.push_back(scale_case(4096, 6.0, 64'000'000, 80.0));
  const GateResult result = gate(scale(grid), &baseline, true);
  EXPECT_FALSE(result.pass);
  EXPECT_TRUE(fails_with(result, {"'n4096'", "missing from the baseline"}))
      << first_failure(result);
}

TEST(PerfGateScale, EventDriftPastToleranceFails) {
  // events is two-sided: too many and too few both leave the band.
  const Document baseline = scale(healthy_scale());
  for (const double factor : {1.5, 0.5}) {
    std::vector<bench::ScaleCase> grid = healthy_scale();
    grid[1].events = static_cast<std::uint64_t>(static_cast<double>(grid[1].events) * factor);
    const GateResult result = gate(scale(grid), &baseline, false);
    EXPECT_FALSE(result.pass) << factor;
    EXPECT_TRUE(fails_with(result, {"n256.events", "outside"})) << first_failure(result);
  }
}

TEST(PerfGateScale, WallTimeTrajectoryRegressionFails) {
  // Same machine speed at the anchor, but the big case takes 3x the
  // baseline's relative wall time: the scaling shape regressed even though
  // every absolute number alone could be blamed on a slower machine.
  // wall_sec itself is info, so the ratio is the only failure.
  const Document baseline = scale(healthy_scale());
  std::vector<bench::ScaleCase> grid = healthy_scale();
  grid[2].wall_sec *= 3.0;
  const GateResult result = gate(scale(grid), &baseline, false);
  EXPECT_FALSE(result.pass);
  ASSERT_EQ(result.failures.size(), 1u);
  EXPECT_TRUE(fails_with(result, {"n1024.wall_ratio", "regressed"})) << first_failure(result);
}

TEST(PerfGateScale, RejectsNonScaleDocuments) {
  const Document baseline = simcore(73.0e6, 0.0);
  const GateResult result = gate(scale(healthy_scale()), &baseline, false);
  EXPECT_FALSE(result.pass);
  EXPECT_TRUE(fails_with(result, {"micro_simcore", "scale_sweep"})) << first_failure(result);
  EXPECT_NE(load_error(R"({"schema": 2, "tool": "scale_sweep", "host_cpus": 1,
                           "metrics": {}})")
                .find("metrics"),
            std::string::npos);
}

// --- parallel_sweep ---------------------------------------------------------

bench::ParallelCase parallel_case(std::uint32_t nodes, std::uint64_t events, double w1_wall,
                                  double w4_wall) {
  bench::ParallelCase c;
  c.nodes = nodes;
  c.zones = nodes / 100;
  c.procs = nodes * 10ULL;
  for (const auto& [workers, wall] : {std::pair{1, w1_wall}, std::pair{4, w4_wall}}) {
    c.runs.push_back(bench::WorkerRun{static_cast<std::size_t>(workers), events, 10.0, wall,
                                      static_cast<double>(events) / wall});
  }
  return c;
}

// The big case clears the 2x floor on an 8-CPU host; the small one is
// exempt from it (< 2000 nodes) and anchors the trajectory.
std::vector<bench::ParallelCase> healthy_parallel() {
  return {parallel_case(256, 4013613, 4.0, 2.2), parallel_case(2000, 31'000'000, 40.0, 15.0)};
}

Document parallel(const std::vector<bench::ParallelCase>& grid, unsigned host_cpus = 8) {
  return load(bench::parallel_metrics(grid, host_cpus));
}

TEST(PerfGateParallel, RoundTripsExactCountersAndPassesWithoutBaseline) {
  const Document doc = parallel(healthy_parallel());
  EXPECT_EQ(doc.host_cpus, 8.0);
  // Exact: a rounded event counter would turn the bit-identity check into
  // noise.
  EXPECT_EQ(doc.metrics.at("n256.w4.events").value, 4013613.0);
  EXPECT_EQ(doc.metrics.at("n2000.speedup").limit, 2.0);
  const GateResult result = gate(doc, nullptr, false);
  EXPECT_TRUE(result.pass) << first_failure(result);
}

TEST(PerfGateParallel, AnyScheduleDriftAcrossWorkerCountsFails) {
  std::vector<bench::ParallelCase> grid = healthy_parallel();
  grid[1].runs[1].events += 1;
  GateResult result = gate(parallel(grid), nullptr, false);
  EXPECT_FALSE(result.pass);
  EXPECT_TRUE(fails_with(result, {"n2000.w4.events_drift_vs_w1 = 1", "limit (<= 0)"}))
      << first_failure(result);

  grid = healthy_parallel();
  grid[0].runs[1].sim_sec += 1e-9;
  result = gate(parallel(grid), nullptr, false);
  EXPECT_FALSE(result.pass);
  EXPECT_TRUE(fails_with(result, {"n256.w4.sim_sec_drift_vs_w1"})) << first_failure(result);
}

TEST(PerfGateParallel, SpeedupFloorBindsOnlyWhenTheHostHasTheCpus) {
  std::vector<bench::ParallelCase> grid = healthy_parallel();
  grid[1].runs[1].wall_sec = 35.0;  // 1.14x, the floor is 2x
  const GateResult failed = gate(parallel(grid, 8), nullptr, false);
  EXPECT_FALSE(failed.pass);
  EXPECT_TRUE(fails_with(failed, {"n2000.speedup", "limit (>= 2)"})) << first_failure(failed);

  // The same numbers from a 1-CPU host: no parallelism was available, so
  // the speedup is info and only bit-identity and trajectory gate.
  const Document one_cpu = parallel(grid, 1);
  EXPECT_EQ(one_cpu.metrics.at("n2000.speedup").better, Better::kInfo);
  const GateResult skipped = gate(one_cpu, nullptr, false);
  EXPECT_TRUE(skipped.pass) << first_failure(skipped);
}

TEST(PerfGateParallel, SmallCasesAreExemptFromTheSpeedupFloor) {
  std::vector<bench::ParallelCase> grid = healthy_parallel();
  grid[0].runs[1].wall_sec = 6.0;  // slower than w1
  const GateResult result = gate(parallel(grid), nullptr, false);
  EXPECT_TRUE(result.pass) << first_failure(result);
}

TEST(PerfGateParallel, BaselineOnlyCaseFailsByDefaultNamingTheCase) {
  const Document baseline = parallel(healthy_parallel());
  std::vector<bench::ParallelCase> grid = healthy_parallel();
  grid.pop_back();
  const GateResult result = gate(parallel(grid), &baseline, false);
  EXPECT_FALSE(result.pass);
  EXPECT_TRUE(fails_with(result, {"'n2000'", "was not run"})) << first_failure(result);
}

TEST(PerfGateParallel, AllowCaseSubsetWaivesBaselineOnlyMisses) {
  const Document baseline = parallel(healthy_parallel());
  std::vector<bench::ParallelCase> grid = healthy_parallel();
  grid.pop_back();
  const GateResult result = gate(parallel(grid), &baseline, true);
  EXPECT_TRUE(result.pass) << first_failure(result);
}

TEST(PerfGateParallel, BaselineEventDriftPastToleranceFails) {
  const Document baseline = parallel(healthy_parallel());
  std::vector<bench::ParallelCase> grid = healthy_parallel();
  for (bench::WorkerRun& run : grid[1].runs) {
    run.events = run.events * 3 / 2;  // consistent across workers: no drift
  }
  const GateResult result = gate(parallel(grid), &baseline, false);
  EXPECT_FALSE(result.pass);
  EXPECT_TRUE(fails_with(result, {"n2000.w1.events", "outside"})) << first_failure(result);
  EXPECT_FALSE(fails_with(result, {"drift"}));
}

TEST(PerfGateParallel, WallTimeTrajectoryRegressionFails) {
  // w1 on the big case takes 3x the baseline's relative wall time while the
  // anchor is unchanged: the serial engine's scaling shape regressed.
  const Document baseline = parallel(healthy_parallel());
  std::vector<bench::ParallelCase> grid = healthy_parallel();
  for (bench::WorkerRun& run : grid[1].runs) {
    run.wall_sec *= 3.0;
  }
  const GateResult result = gate(parallel(grid), &baseline, false);
  EXPECT_FALSE(result.pass);
  EXPECT_TRUE(fails_with(result, {"n2000.w1.wall_ratio", "regressed"}))
      << first_failure(result);
}

TEST(PerfGateParallel, RejectsNonParallelAndIncompleteDocuments) {
  const Document baseline = parallel(healthy_parallel());
  EXPECT_TRUE(fails_with(gate(scale(healthy_scale()), &baseline, true),
                         {"parallel_sweep", "scale_sweep"}));
  EXPECT_NE(load_error(R"({"schema": 2, "tool": "parallel_sweep", "metrics": {
                           "n256.w1.events": {"value": 10, "better": "both"}}})")
                .find("host_cpus"),
            std::string::npos);
  // A case whose w1 reference is missing cannot pass as complete.
  Document current = parallel(healthy_parallel());
  erase_prefix(current, "n256.w1.");
  const GateResult result = gate(current, &baseline, false);
  EXPECT_FALSE(result.pass);
  EXPECT_TRUE(fails_with(result, {"n256.w1.events", "missing from this run"}))
      << first_failure(result);
}

// --- cache_ablation ---------------------------------------------------------

bench::PolicyRun cache_run(const char* policy, double charged_ms) {
  return bench::PolicyRun{policy, 4, charged_ms, charged_ms, 30.0};
}

std::vector<bench::CacheCase> healthy_cache() {
  std::vector<bench::CacheCase> grid;
  for (const auto& [wss_kib, load_ms, cache_ms] :
       {std::tuple{1024, 40.0, 25.0}, std::tuple{4096, 160.0, 95.0}}) {
    grid.push_back(bench::CacheCase{static_cast<std::uint64_t>(wss_kib), 4, 9,
                                    {cache_run("load", load_ms), cache_run("eq3", load_ms * 0.9),
                                     cache_run("cache", cache_ms)}});
  }
  return grid;
}

Document cache(const std::vector<bench::CacheCase>& grid) {
  return load(bench::cache_metrics(grid, 8));
}

TEST(PerfGateCache, HealthyAblationPasses) {
  const Document baseline = cache(healthy_cache());
  const GateResult result = gate(cache(healthy_cache()), &baseline, false);
  EXPECT_TRUE(result.pass) << first_failure(result);
}

TEST(PerfGateCache, MissingPolicyFailsNamingCaseAndPolicy) {
  const Document baseline = cache(healthy_cache());
  std::vector<bench::CacheCase> grid = healthy_cache();
  grid[1].policies.erase(grid[1].policies.begin() + 1);  // eq3
  const GateResult result = gate(cache(grid), &baseline, false);
  EXPECT_FALSE(result.pass);
  EXPECT_TRUE(fails_with(result, {"wss4096k.eq3.", "missing from this run"}))
      << first_failure(result);
}

TEST(PerfGateCache, RoundTripsThroughRenderAndLoad) {
  const Document doc = cache(healthy_cache());
  EXPECT_EQ(doc.tool, "cache_ablation");
  EXPECT_EQ(doc.metrics.at("wss4096k.wss_kib").value, 4096.0);
  EXPECT_EQ(doc.metrics.at("wss4096k.cache.warmup_charged_ms").value, 95.0);
  EXPECT_EQ(doc.metrics.at("wss4096k.eq3.warmup_charged_ms").value, 160.0 * 0.9);
  EXPECT_EQ(doc.metrics.at("wss4096k.load.migrations").value, 4.0);
}

TEST(PerfGateCache, BaselineChargeRegressionFails) {
  const Document baseline = cache(healthy_cache());
  std::vector<bench::CacheCase> grid = healthy_cache();
  grid[1].policies[2].warmup_charged_ms *= 2.0;
  const GateResult result = gate(cache(grid), &baseline, false);
  EXPECT_FALSE(result.pass);
  EXPECT_TRUE(fails_with(result, {"wss4096k.cache.warmup_charged_ms", "regressed"}))
      << first_failure(result);
}

TEST(PerfGateCache, CaseMismatchFollowsTheFailByDefaultRule) {
  const Document baseline = cache(healthy_cache());
  std::vector<bench::CacheCase> grid = healthy_cache();
  grid.erase(grid.begin());
  EXPECT_FALSE(gate(cache(grid), &baseline, false).pass);
  const GateResult result = gate(cache(grid), &baseline, true);
  EXPECT_TRUE(result.pass) << first_failure(result);
}

TEST(PerfGateCache, RejectsForeignAndIncompleteDocuments) {
  const Document baseline = scale(healthy_scale());
  EXPECT_TRUE(fails_with(gate(cache(healthy_cache()), &baseline, false),
                         {"scale_sweep", "cache_ablation"}));
  // A rule perf_gate does not know, and a limit on a metric with no
  // direction, are load errors rather than silently ungated metrics.
  const std::string head = R"({"schema": 2, "tool": "cache_ablation", "host_cpus": 1,
                              "metrics": {"wss64k.load.migrations": )";
  EXPECT_NE(load_error(head + R"({"value": 1, "better": "smaller"}}})").find("better"),
            std::string::npos);
  EXPECT_NE(load_error(head + R"({"value": 1, "better": "info", "limit": 2}}})").find("limit"),
            std::string::npos);
  EXPECT_NE(load_error(R"({"schema": 2, "tool": "cache_ablation", "host_cpus": 1,
                           "metrics": {"migrations": {"value": 1, "better": "lower"}}})")
                .find("<case>.<name>"),
            std::string::npos);
}

}  // namespace
}  // namespace ampom::perfgate
