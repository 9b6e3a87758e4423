// Structured tracing: recorder semantics, zero-overhead-off transparency,
// deterministic export, and the reconstructed migration timeline.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <sstream>
#include <tuple>

#include "driver/builder.hpp"
#include "driver/run_context.hpp"
#include "driver/runner.hpp"
#include "trace/chrome_export.hpp"
#include "trace/trace.hpp"
#include "workload/hpcc.hpp"

namespace {

using namespace ampom;

driver::ScenarioBuilder small_ampom() {
  return driver::ScenarioBuilder{}
      .scheme(driver::Scheme::Ampom)
      .hpcc_workload(workload::HpccKernel::Stream, 9);
}

// Chaos variant: faults + the full reliability stack, the configuration
// most sensitive to a stray RNG draw or event reordering.
driver::ScenarioBuilder small_chaos() {
  driver::FaultPlan plan;
  plan.seed = 17;
  plan.default_faults.drop_probability = 0.02;
  return small_ampom().faults(plan).reliable();
}

std::string export_json(const trace::TraceRecorder& recorder) {
  std::ostringstream out;
  trace::write_chrome_trace(recorder, out);
  return out.str();
}

std::size_t count_occurrences(const std::string& haystack, const std::string& needle) {
  std::size_t n = 0;
  for (std::size_t pos = haystack.find(needle); pos != std::string::npos;
       pos = haystack.find(needle, pos + needle.size())) {
    ++n;
  }
  return n;
}

// --- recorder unit behavior -------------------------------------------------

// The unit tests heap-allocate their recorders: GCC 12's -Wstringop-overflow
// misfires on the fully inlined stack-local push_back path.
TEST(TraceRecorder, DisabledRecordsNothing) {
  const auto rec = std::make_unique<trace::TraceRecorder>();  // default config: off
  rec->instant(trace::Category::kNet, "send", sim::Time::from_ms(1), 0, 7);
  rec->async_begin(trace::Category::kPaging, "fault", sim::Time::from_ms(1), 0, 7);
  rec->counter(trace::Category::kSched, "queue_depth", sim::Time::from_ms(1), 0, 3.0);
  EXPECT_FALSE(rec->enabled());
  EXPECT_TRUE(rec->events().empty());
  EXPECT_EQ(rec->events_dropped(), 0u);
  EXPECT_TRUE(rec->summary().all().empty());
}

TEST(TraceRecorder, CapDropsBeyondMaxEvents) {
  trace::TraceConfig cfg;
  cfg.enabled = true;
  cfg.max_events = 2;
  const auto rec = std::make_unique<trace::TraceRecorder>(cfg);
  for (int i = 0; i < 5; ++i) {
    rec->instant(trace::Category::kNet, "send", sim::Time::from_us(i), 0);
  }
  EXPECT_EQ(rec->events().size(), 2u);
  EXPECT_EQ(rec->events_dropped(), 3u);
  EXPECT_EQ(rec->summary().get("trace.dropped"), 3u);
}

TEST(TraceRecorder, SummaryCountsPerCategoryAndName) {
  trace::TraceConfig cfg;
  cfg.enabled = true;
  const auto rec = std::make_unique<trace::TraceRecorder>(cfg);
  const struct {
    trace::Category cat;
    const char* name;
    std::uint32_t node;
  } emits[] = {{trace::Category::kNet, "deliver", 0},
               {trace::Category::kNet, "deliver", 1},
               {trace::Category::kMigration, "frozen", 0}};
  std::int64_t us = 0;
  for (const auto& e : emits) {
    rec->instant(e.cat, e.name, sim::Time::from_us(++us), e.node);
  }
  const stats::Counters s = rec->summary();
  EXPECT_EQ(s.get("trace.net.deliver"), 2u);
  EXPECT_EQ(s.get("trace.migration.frozen"), 1u);
}

// --- transparency: tracing must never steer the simulation ------------------

void expect_same_results(const driver::RunMetrics& a, const driver::RunMetrics& b) {
  EXPECT_EQ(a.total_time, b.total_time);
  EXPECT_EQ(a.freeze_time, b.freeze_time);
  EXPECT_EQ(a.cpu_time, b.cpu_time);
  EXPECT_EQ(a.stall_time, b.stall_time);
  EXPECT_EQ(a.hard_faults, b.hard_faults);
  EXPECT_EQ(a.soft_faults, b.soft_faults);
  EXPECT_EQ(a.pages_arrived, b.pages_arrived);
  EXPECT_EQ(a.pages_migrated, b.pages_migrated);
  EXPECT_EQ(a.remote_fault_requests, b.remote_fault_requests);
  EXPECT_EQ(a.bytes_freeze, b.bytes_freeze);
  EXPECT_EQ(a.bytes_paging, b.bytes_paging);
  EXPECT_EQ(a.paging_retransmits, b.paging_retransmits);
  EXPECT_EQ(a.net_messages_dropped, b.net_messages_dropped);
  EXPECT_EQ(a.refs_consumed, b.refs_consumed);
}

TEST(TraceTransparency, DisabledConfigMatchesFreshContext) {
  // Runner wires a (disabled) recorder through a RunContext it owns; a
  // hand-built context must produce the same run.
  const driver::Scenario s = small_ampom().build();
  driver::RunContext ctx{s, driver::RunContext::Options{.capture_log = true}};
  const driver::RunMetrics with_own_ctx = driver::detail::run_scenario(s, ctx);
  const driver::RunMetrics with_disabled = driver::run_experiment(s);
  expect_same_results(with_own_ctx, with_disabled);
}

TEST(TraceTransparency, EnablingTracingKeepsChaosRunBitIdentical) {
  const driver::RunMetrics off = driver::run_experiment(small_chaos().build());
  const driver::RunMetrics on = driver::run_experiment(small_chaos().tracing().build());
  expect_same_results(off, on);
  EXPECT_TRUE(off.trace_summary.all().empty());
  EXPECT_FALSE(on.trace_summary.all().empty());
}

// --- determinism of the exported file ---------------------------------------

TEST(TraceExport, SameSeedSameBytes) {
  const driver::Scenario s = small_chaos().tracing().build();
  driver::Runner first;
  driver::Runner second;
  (void)first.run(s);
  (void)second.run(s);
  const std::string a = export_json(*first.trace());
  const std::string b = export_json(*second.trace());
  ASSERT_FALSE(a.empty());
  EXPECT_EQ(a, b);
}

// --- Chrome trace_event schema sanity ----------------------------------------

TEST(TraceExport, ChromeJsonShape) {
  const driver::Scenario s = small_ampom().tracing().build();
  driver::Runner runner;
  (void)runner.run(s);
  const std::string json = export_json(*runner.trace());

  EXPECT_EQ(json.rfind("{\"traceEvents\":[", 0), 0u) << json.substr(0, 40);
  EXPECT_NE(json.find("\"displayTimeUnit\":\"ms\""), std::string::npos);
  // Async begins and ends must pair up.
  EXPECT_EQ(count_occurrences(json, "\"ph\":\"b\""), count_occurrences(json, "\"ph\":\"e\""));
  // Metadata names the node processes and category tracks.
  EXPECT_NE(json.find("\"name\":\"process_name\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"thread_name\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"node0\""), std::string::npos);
  // Timestamps are fixed-point microseconds, never scientific notation.
  EXPECT_EQ(json.find("e+"), std::string::npos);

  // The timeline must be time-ordered after export.
  std::int64_t prev_ts_thousandths = -1;
  std::size_t pos = 0;
  while ((pos = json.find("\"ts\":", pos)) != std::string::npos) {
    pos += 5;
    const std::size_t dot = json.find('.', pos);
    const std::int64_t whole = std::stoll(json.substr(pos, dot - pos));
    const std::int64_t frac = std::stoll(json.substr(dot + 1, 3));
    const std::int64_t t = whole * 1000 + frac;
    EXPECT_GE(t, prev_ts_thousandths);
    prev_ts_thousandths = t;
  }
}

// --- the reconstructed migration timeline ------------------------------------

TEST(TraceTimeline, AmpomMigrationPhases) {
  const driver::Scenario s = small_ampom().tracing().build();
  driver::Runner runner;
  (void)runner.run(s);
  const auto& events = runner.trace()->events();
  ASSERT_FALSE(events.empty());

  using Key = std::tuple<trace::Category, std::string, trace::Event::Kind>;
  std::map<Key, sim::Time> first_at;
  for (const trace::Event& e : events) {
    const Key k{e.cat, e.name, e.kind};
    if (first_at.count(k) == 0) {
      first_at[k] = e.ts;
    }
  }
  const auto at = [&](trace::Category cat, const char* name,
                      trace::Event::Kind kind) -> sim::Time {
    const auto it = first_at.find(Key{cat, name, kind});
    EXPECT_NE(it, first_at.end()) << "missing event " << name;
    return it == first_at.end() ? sim::Time::zero() : it->second;
  };

  using K = trace::Event::Kind;
  using C = trace::Category;
  const sim::Time mig_begin = at(C::kMigration, "migration", K::kAsyncBegin);
  const sim::Time frozen = at(C::kMigration, "frozen", K::kInstant);
  const sim::Time pack_begin = at(C::kMigration, "freeze_pack", K::kAsyncBegin);
  const sim::Time pack_end = at(C::kMigration, "freeze_pack", K::kAsyncEnd);
  const sim::Time xfer_end = at(C::kMigration, "transfer", K::kAsyncEnd);
  const sim::Time unpack_end = at(C::kMigration, "unpack_restore", K::kAsyncEnd);
  const sim::Time resume = at(C::kMigration, "resume", K::kInstant);
  const sim::Time mig_end = at(C::kMigration, "migration", K::kAsyncEnd);

  // freeze -> pack -> transfer -> unpack -> resume, inside the outer span.
  EXPECT_LE(mig_begin, frozen);
  EXPECT_LE(frozen, pack_begin);
  EXPECT_LT(pack_begin, pack_end);
  EXPECT_LE(pack_end, xfer_end);
  EXPECT_LE(xfer_end, unpack_end);
  EXPECT_LE(unpack_end, resume);
  EXPECT_EQ(resume, mig_end);

  // Demand paging produced fault spans and arrivals once the process resumed.
  EXPECT_GE(at(C::kPaging, "fault", K::kAsyncBegin), resume);
  EXPECT_NE(first_at.find(Key{C::kPaging, "page_arrival", K::kInstant}), first_at.end());
  EXPECT_NE(first_at.find(Key{C::kPrefetch, "prefetch_batch", K::kAsyncBegin}),
            first_at.end());
  EXPECT_NE(first_at.find(Key{C::kNet, "deliver", K::kInstant}), first_at.end());
  EXPECT_NE(first_at.find(Key{C::kSched, "queue_depth", K::kCounter}), first_at.end());

  // Every async span that opened also closed.
  std::map<std::tuple<trace::Category, std::string, std::uint64_t>, std::int64_t> open;
  for (const trace::Event& e : events) {
    if (e.kind == K::kAsyncBegin) {
      ++open[{e.cat, e.name, e.corr}];
    } else if (e.kind == K::kAsyncEnd) {
      --open[{e.cat, e.name, e.corr}];
    }
  }
  for (const auto& [key, balance] : open) {
    EXPECT_EQ(balance, 0) << "unbalanced span " << std::get<1>(key) << " corr "
                          << std::get<2>(key);
  }
}

TEST(TraceTimeline, SchedulerSamplerCanBeDisabled) {
  trace::TraceConfig cfg;
  cfg.enabled = true;
  cfg.sched_sample_period = sim::Time::zero();
  const driver::Scenario s = small_ampom().trace(cfg).build();
  driver::Runner runner;
  (void)runner.run(s);
  const auto& events = runner.trace()->events();
  ASSERT_FALSE(events.empty());
  EXPECT_TRUE(std::none_of(events.begin(), events.end(), [](const trace::Event& e) {
    return e.cat == trace::Category::kSched;
  }));
}

TEST(TraceTimeline, ChaosRunRecordsDropsAndRetries) {
  const driver::RunMetrics m = driver::run_experiment(small_chaos().tracing().build());
  ASSERT_GT(m.net_messages_dropped, 0u) << "chaos scenario produced no loss";
  EXPECT_EQ(m.trace_summary.get("trace.net.drop"), m.net_messages_dropped);
  // The reliable pager retried; the trace saw every retransmission.
  EXPECT_EQ(m.trace_summary.get("trace.paging.retransmit"), m.paging_retransmits);
}

// --- Runner facade ------------------------------------------------------------

TEST(Runner, MetricSinksSeeEveryRun) {
  driver::Runner runner;
  int calls = 0;
  runner.add_metric_sink([&calls](const driver::RunMetrics&) { ++calls; });
  const driver::Scenario s = small_ampom().build();
  (void)runner.run(s);
  (void)runner.run(s);
  EXPECT_EQ(calls, 2);
}

TEST(Runner, WriteTraceJsonRefusesWhenTracingOff) {
  driver::Runner runner;
  EXPECT_FALSE(runner.write_trace_json("/tmp/ampom_should_not_exist.json"));
  (void)runner.run(small_ampom().build());
  EXPECT_FALSE(runner.write_trace_json("/tmp/ampom_should_not_exist.json"));
}

TEST(Runner, PerRunLogLevelAndCapture) {
  // The log level is per run now, not a scoped mutation of global state:
  // a verbose captured run and a quiet one can coexist in one process.
  driver::Runner verbose{driver::Runner::Options{sim::LogLevel::Debug, /*capture_log=*/true}};
  (void)verbose.run(small_ampom().build());
  ASSERT_NE(verbose.context(), nullptr);
  const std::string log = verbose.context()->captured_log();
  EXPECT_NE(log.find("run start"), std::string::npos);
  EXPECT_NE(log.find("run finished"), std::string::npos);

  driver::Runner quiet{driver::Runner::Options{sim::LogLevel::Error, /*capture_log=*/true}};
  (void)quiet.run(small_ampom().build());
  ASSERT_NE(quiet.context(), nullptr);
  EXPECT_TRUE(quiet.context()->captured_log().empty());
}

}  // namespace
