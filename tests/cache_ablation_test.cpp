// The cache ablation's policy ordering, a correctness property of the
// placement scores (DESIGN.md §17): in the world bench/cache_ablation
// records, cache-aware placement charges strictly less warm-up than load and
// eq3 at every WSS point of the default grid, with the same number of
// migrations — it moves the migrant somewhere cheaper, not less often.

#include <gtest/gtest.h>

#include "bench/cache_ablation.hpp"

namespace ampom::bench {
namespace {

TEST(CacheAblation, CacheAwareChargesLessWarmupThanLoadAndEq3AtEveryPoint) {
  for (const std::uint64_t wss_kib : cache_ablation_grid(GridOptions{})) {
    const CacheCase point = run_cache_case(wss_kib);
    ASSERT_EQ(point.policies.size(), 3u);
    const PolicyRun& load = point.policies[0];
    const PolicyRun& eq3 = point.policies[1];
    const PolicyRun& cache = point.policies[2];
    ASSERT_EQ(load.policy, "load");
    ASSERT_EQ(eq3.policy, "eq3");
    ASSERT_EQ(cache.policy, "cache");
    EXPECT_LT(cache.warmup_charged_ms, load.warmup_charged_ms) << wss_kib << " KiB";
    EXPECT_LT(cache.warmup_charged_ms, eq3.warmup_charged_ms) << wss_kib << " KiB";
    EXPECT_EQ(cache.migrations, load.migrations) << wss_kib << " KiB";
    EXPECT_EQ(cache.migrations, eq3.migrations) << wss_kib << " KiB";
    EXPECT_GT(cache.migrations, 0u) << wss_kib << " KiB";  // the comparison is not vacuous
  }
}

}  // namespace
}  // namespace ampom::bench
