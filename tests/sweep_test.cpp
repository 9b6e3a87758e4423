// SweepExecutor: the parallel sweep must be bit-identical to the serial
// one, in submission order, with per-case error isolation and per-run log
// capture. These tests are the contract the bench harness and the CLI's
// --jobs flag rely on; CI additionally runs them under ThreadSanitizer.

#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "driver/builder.hpp"
#include "driver/run_context.hpp"
#include "driver/sweep_executor.hpp"
#include "trace/chrome_export.hpp"
#include "workload/hpcc.hpp"
#include "workload/synthetic.hpp"

namespace {

using namespace ampom;

driver::Scenario cell(workload::HpccKernel kernel, std::uint64_t mib, driver::Scheme scheme) {
  return driver::ScenarioBuilder{}.scheme(scheme).hpcc_workload(kernel, mib).build();
}

// A small but representative matrix: every scheme, two kernels, a chaos run
// with the reliability stack (the configuration most sensitive to a stray
// RNG draw), a re-migration, and a traced run.
std::vector<driver::SweepExecutor::ScenarioFactory> representative_matrix() {
  std::vector<driver::SweepExecutor::ScenarioFactory> cases;
  for (const auto scheme :
       {driver::Scheme::OpenMosix, driver::Scheme::NoPrefetch, driver::Scheme::Ampom}) {
    cases.push_back([scheme] { return cell(workload::HpccKernel::Stream, 9, scheme); });
    cases.push_back([scheme] { return cell(workload::HpccKernel::RandomAccess, 9, scheme); });
  }
  cases.push_back([] {
    driver::FaultPlan plan;
    plan.seed = 17;
    plan.default_faults.drop_probability = 0.02;
    return driver::ScenarioBuilder{}
        .scheme(driver::Scheme::Ampom)
        .hpcc_workload(workload::HpccKernel::Stream, 9)
        .faults(plan)
        .reliable()
        .build();
  });
  cases.push_back([] {
    driver::Scenario s = cell(workload::HpccKernel::Dgemm, 9, driver::Scheme::Ampom);
    s.remigrate_after = sim::Time::from_ms(200);
    return s;
  });
  cases.push_back([] {
    return driver::ScenarioBuilder{}
        .scheme(driver::Scheme::Ampom)
        .hpcc_workload(workload::HpccKernel::Fft, 9)
        .tracing()
        .build();
  });
  return cases;
}

std::string export_json(const trace::TraceRecorder& recorder) {
  std::ostringstream out;
  trace::write_chrome_trace(recorder, out);
  return out.str();
}

TEST(SweepExecutor, ParallelIsBitIdenticalToSerial) {
  const auto cases = representative_matrix();
  driver::SweepExecutor serial{{.exec = {.jobs = 1}}};
  driver::SweepExecutor parallel{{.exec = {.jobs = 4}}};
  const auto a = serial.run_all(cases);
  const auto b = parallel.run_all(cases);
  ASSERT_EQ(a.size(), cases.size());
  ASSERT_EQ(b.size(), cases.size());
  for (std::size_t i = 0; i < cases.size(); ++i) {
    ASSERT_TRUE(a[i].ok()) << "serial case " << i;
    ASSERT_TRUE(b[i].ok()) << "parallel case " << i;
    // Field-for-field, including every counter and the trace summary.
    EXPECT_EQ(a[i].metrics, b[i].metrics) << "case " << i;
    // The exported trace must match byte for byte too.
    ASSERT_NE(a[i].context, nullptr);
    ASSERT_NE(b[i].context, nullptr);
    EXPECT_EQ(export_json(a[i].context->trace()), export_json(b[i].context->trace()))
        << "case " << i;
  }
}

TEST(SweepExecutor, ResultsComeBackInSubmissionOrder) {
  // Workloads of very different lengths: with 4 workers the short ones
  // finish long before the big one, but outcome i must stay cases[i].
  std::vector<driver::SweepExecutor::ScenarioFactory> cases;
  const std::uint64_t sizes[] = {33, 5, 9, 5, 17, 5};
  for (const std::uint64_t mib : sizes) {
    cases.push_back([mib] {
      return cell(workload::HpccKernel::Stream, mib, driver::Scheme::Ampom);
    });
  }
  driver::SweepExecutor pool{{.exec = {.jobs = 4}}};
  const auto outcomes = pool.run_all(cases);
  ASSERT_EQ(outcomes.size(), std::size(sizes));
  for (std::size_t i = 0; i < std::size(sizes); ++i) {
    ASSERT_TRUE(outcomes[i].ok());
    EXPECT_EQ(outcomes[i].metrics.memory_mib, sizes[i]) << "case " << i;
  }
}

TEST(SweepExecutor, MoreJobsThanCases) {
  std::vector<driver::SweepExecutor::ScenarioFactory> cases;
  cases.push_back([] { return cell(workload::HpccKernel::Stream, 5, driver::Scheme::Ampom); });
  cases.push_back(
      [] { return cell(workload::HpccKernel::Stream, 5, driver::Scheme::OpenMosix); });
  driver::SweepExecutor pool{{.exec = {.jobs = 16}}};
  const auto outcomes = pool.run_all(cases);
  ASSERT_EQ(outcomes.size(), 2u);
  EXPECT_TRUE(outcomes[0].ok());
  EXPECT_TRUE(outcomes[1].ok());
  EXPECT_EQ(outcomes[0].metrics.scheme, "AMPoM");
}

TEST(SweepExecutor, EmptyBatch) {
  driver::SweepExecutor pool{{.exec = {.jobs = 4}}};
  EXPECT_TRUE(pool.run_all({}).empty());
}

TEST(SweepExecutor, ThrowingFactoryMidBatchIsIsolated) {
  std::vector<driver::SweepExecutor::ScenarioFactory> cases;
  cases.push_back([] { return cell(workload::HpccKernel::Stream, 5, driver::Scheme::Ampom); });
  cases.push_back([]() -> driver::Scenario { throw std::runtime_error("bad scenario"); });
  cases.push_back([] { return cell(workload::HpccKernel::Stream, 5, driver::Scheme::Ampom); });
  driver::SweepExecutor pool{{.exec = {.jobs = 4}}};
  const auto outcomes = pool.run_all(cases);
  ASSERT_EQ(outcomes.size(), 3u);
  EXPECT_TRUE(outcomes[0].ok());
  EXPECT_FALSE(outcomes[1].ok());
  EXPECT_TRUE(outcomes[2].ok());
  // The failed case never got a context; the survivors are intact.
  EXPECT_EQ(outcomes[1].context, nullptr);
  EXPECT_GT(outcomes[0].metrics.refs_consumed, 0u);
  EXPECT_GT(outcomes[2].metrics.refs_consumed, 0u);
  // run_scenarios-style rethrow: the first error in submission order.
  try {
    std::rethrow_exception(outcomes[1].error);
    FAIL() << "expected an exception";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "bad scenario");
  }
}

TEST(SweepExecutor, RunScenariosThrowsFirstErrorInSubmissionOrder) {
  // An invalid scenario (no workload) fails inside build/run; the helper
  // must surface it even though other cases succeeded.
  std::vector<driver::Scenario> cases;
  cases.push_back(cell(workload::HpccKernel::Stream, 5, driver::Scheme::Ampom));
  driver::Scenario broken;
  broken.memory_mib = 5;  // no make_workload
  cases.push_back(broken);
  driver::SweepExecutor pool{{.exec = {.jobs = 2}}};
  EXPECT_THROW((void)pool.run_scenarios(cases), std::exception);

  cases.pop_back();
  const auto metrics = pool.run_scenarios(cases);
  ASSERT_EQ(metrics.size(), 1u);
  EXPECT_GT(metrics[0].refs_consumed, 0u);
}

TEST(SweepExecutor, CapturedLogsArePerRun) {
  std::vector<driver::SweepExecutor::ScenarioFactory> cases;
  cases.push_back([] { return cell(workload::HpccKernel::Stream, 5, driver::Scheme::Ampom); });
  cases.push_back([] { return cell(workload::HpccKernel::Dgemm, 9, driver::Scheme::Ampom); });
  driver::SweepExecutor pool{{.exec = {.jobs = 2}, .log_level = sim::LogLevel::Debug}};
  const auto outcomes = pool.run_all(cases);
  ASSERT_EQ(outcomes.size(), 2u);
  for (const auto& outcome : outcomes) {
    ASSERT_TRUE(outcome.ok());
    ASSERT_NE(outcome.context, nullptr);
    const std::string log = outcome.context->captured_log();
    EXPECT_NE(log.find("run start"), std::string::npos);
    EXPECT_NE(log.find("run finished"), std::string::npos);
  }
  // Each capture names only its own run.
  EXPECT_NE(outcomes[0].context->captured_log().find("STREAM"), std::string::npos);
  EXPECT_EQ(outcomes[0].context->captured_log().find("DGEMM"), std::string::npos);
  EXPECT_NE(outcomes[1].context->captured_log().find("DGEMM"), std::string::npos);
}

TEST(SweepExecutor, ParallelForCoversEveryIndexExactlyOnce) {
  for (const std::size_t jobs : {1u, 3u, 8u}) {
    std::vector<int> hits(100, 0);
    driver::SweepExecutor::parallel_for(jobs, hits.size(),
                                        [&hits](std::size_t i) { hits[i] += 1; });
    for (std::size_t i = 0; i < hits.size(); ++i) {
      EXPECT_EQ(hits[i], 1) << "index " << i << " jobs " << jobs;
    }
  }
}

}  // namespace
