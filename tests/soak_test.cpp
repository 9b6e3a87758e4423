// Cancel-heavy soak of the event engine, shaped like the reliable-paging
// protocol's hottest pattern: every page arrival cancels and re-arms a
// silence timer whose timeout is orders of magnitude longer than the
// inter-page gap. The retired lazy-delete engine stranded one dead heap
// entry (plus its closure) per arrival until the timer's deadline bubbled
// out — O(timeout / page-gap) garbage per in-flight request. The indexed
// heap must keep storage exactly at the live-event count for over a million
// arrivals, and the parallel chaos sweep that drives this pattern through
// the full stack must stay bit-identical across worker counts.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <sstream>
#include <vector>

#include "driver/builder.hpp"
#include "driver/sweep_executor.hpp"
#include "simcore/simulator.hpp"
#include "trace/chrome_export.hpp"
#include "workload/hpcc.hpp"

namespace {

using namespace ampom;
using sim::Time;

// One in-flight "request": a chained page-arrival stream re-arming its
// silence timer on every arrival, exactly as proc::PagingClient does.
struct RequestChurn {
  sim::Simulator& sim;
  int remaining;
  Time gap;
  Time timeout;
  sim::Simulator::EventId timer{};
  std::uint64_t rearms{0};
  std::uint64_t timer_fires{0};

  void start() {
    sim.schedule_after(gap, [this] { on_page_arrival(); });
  }

  void on_page_arrival() {
    if (timer.valid()) {
      ASSERT_TRUE(sim.cancel(timer));  // the timer must still be pending
    }
    timer = sim.schedule_after(timeout, [this] { ++timer_fires; });
    ++rearms;
    if (--remaining > 0) {
      sim.schedule_after(gap, [this] { on_page_arrival(); });
    }
  }
};

TEST(Soak, SilenceTimerChurnKeepsQueuedEntriesAtLiveCount) {
  sim::Simulator simulator;
  // 32 concurrent requests, >1e6 page arrivals combined, 1 us page gap vs
  // 10 ms silence timeout: the lazy-delete engine would strand ~10,000 dead
  // entries per request at steady state.
  constexpr int kRequests = 32;
  constexpr int kArrivalsPerRequest = 32'768;  // 32 * 32768 = 1,048,576 total
  std::vector<RequestChurn> requests;
  requests.reserve(kRequests);
  for (int r = 0; r < kRequests; ++r) {
    requests.push_back(RequestChurn{simulator, kArrivalsPerRequest,
                                    Time::from_ns(1000 + r), Time::from_ms(10)});
    requests.back().start();
  }

  std::size_t max_queued = 0;
  std::size_t checks = 0;
  simulator.start_probe(Time::from_us(100), [&](Time, std::size_t, std::uint64_t) {
    max_queued = std::max(max_queued, simulator.queued_entries());
    ASSERT_EQ(simulator.queued_entries(), simulator.pending());
    ++checks;
  });
  simulator.run();

  std::uint64_t total_rearms = 0;
  for (const RequestChurn& r : requests) {
    EXPECT_EQ(r.rearms, static_cast<std::uint64_t>(kArrivalsPerRequest));
    EXPECT_EQ(r.timer_fires, 1u);  // only the final arming ever fires
    total_rearms += r.rearms;
  }
  EXPECT_GE(total_rearms, 1'000'000u);
  EXPECT_GT(checks, 100u);
  // Live events: one arrival + one timer per request, plus the probe.
  // Queued storage must track that, not the million-cancel history.
  EXPECT_LE(max_queued, static_cast<std::size_t>(2 * kRequests + 1));
  EXPECT_LE(simulator.slot_high_water(), static_cast<std::size_t>(2 * kRequests + 2));
  EXPECT_EQ(simulator.queued_entries(), 0u);
}

std::string export_json(const trace::TraceRecorder& recorder) {
  std::ostringstream out;
  trace::write_chrome_trace(recorder, out);
  return out.str();
}

// The full-stack flavor of the same pattern: lossy links force the reliable
// paging protocol through retransmits and per-page timer churn. The sweep
// must come back bit-identical (metrics and trace) no matter how many
// workers ran it — pinned here on top of the engine swap because this is
// the configuration most sensitive to event-order drift.
TEST(Soak, ReliablePagingChurnSweepIsBitIdenticalAcrossJobs) {
  std::vector<driver::SweepExecutor::ScenarioFactory> cases;
  for (const double drop : {0.01, 0.05, 0.10}) {
    cases.push_back([drop] {
      driver::FaultPlan plan;
      plan.seed = 29;
      plan.default_faults.drop_probability = drop;
      return driver::ScenarioBuilder{}
          .scheme(driver::Scheme::Ampom)
          .hpcc_workload(workload::HpccKernel::Stream, 9)
          .faults(plan)
          .reliable()
          .tracing()
          .build();
    });
  }
  driver::SweepExecutor serial{{.exec = {.jobs = 1}}};
  driver::SweepExecutor parallel{{.exec = {.jobs = 4}}};
  const auto a = serial.run_all(cases);
  const auto b = parallel.run_all(cases);
  ASSERT_EQ(a.size(), cases.size());
  ASSERT_EQ(b.size(), cases.size());
  for (std::size_t i = 0; i < cases.size(); ++i) {
    ASSERT_TRUE(a[i].ok()) << "serial case " << i;
    ASSERT_TRUE(b[i].ok()) << "parallel case " << i;
    EXPECT_EQ(a[i].metrics, b[i].metrics) << "case " << i;
    ASSERT_NE(a[i].context, nullptr);
    ASSERT_NE(b[i].context, nullptr);
    EXPECT_EQ(export_json(a[i].context->trace()), export_json(b[i].context->trace()))
        << "case " << i;
  }
}

}  // namespace
