// Tests of the spatial-locality score and outstanding-stream detection,
// anchored on the paper's own worked examples (§3.2 and §3.4).

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <vector>

#include "core/locality.hpp"
#include "simcore/rng.hpp"

namespace ampom::core {
namespace {

using sim::Time;

LookbackWindow make_window(const std::vector<mem::PageId>& pages, std::size_t capacity = 0) {
  LookbackWindow w{capacity == 0 ? std::max<std::size_t>(pages.size(), 2) : capacity};
  std::int64_t t = 0;
  for (const mem::PageId p : pages) {
    w.record(p, Time::from_us(++t), 1.0);
  }
  return w;
}

TEST(Locality, PaperExampleStride2Count) {
  // §3.2: {1,99,2,45,3,78,4} contains three stride-2 references and
  // stride_2 = 4 (pages 1, 2, 3, 4).
  const LookbackWindow w = make_window({1, 99, 2, 45, 3, 78, 4});
  LocalityAnalyzer analyzer{4};
  const auto counts = analyzer.stride_counts(w);
  EXPECT_EQ(counts[0], 0u);  // stride-1
  EXPECT_EQ(counts[1], 4u);  // stride-2
  EXPECT_EQ(counts[2], 0u);
  EXPECT_EQ(counts[3], 0u);
}

TEST(Locality, PaperExampleScoreQuarter) {
  // §3.2: {10,99,11,34,12,85} -> stride_2 = 3, S = 3/(6*2) = 0.25.
  const LookbackWindow w = make_window({10, 99, 11, 34, 12, 85});
  LocalityAnalyzer analyzer{4};
  const auto counts = analyzer.stride_counts(w);
  EXPECT_EQ(counts[1], 3u);
  EXPECT_DOUBLE_EQ(analyzer.score(w), 0.25);
}

TEST(Locality, PureSequentialScoresOne) {
  // §3.2: a process doing only sequential access has S = 1.
  const LookbackWindow w = make_window({1, 2, 3, 4, 5, 6, 7, 8});
  LocalityAnalyzer analyzer{4};
  EXPECT_DOUBLE_EQ(analyzer.score(w), 1.0);
}

TEST(Locality, ScatteredPagesScoreZero) {
  const LookbackWindow w = make_window({100, 7, 912, 55, 3000, 42});
  LocalityAnalyzer analyzer{4};
  EXPECT_DOUBLE_EQ(analyzer.score(w), 0.0);
}

TEST(Locality, ScoreAlwaysWithinUnitInterval) {
  // Interleaved ascending runs can mark positions at several strides; the
  // score is clamped to 1.
  const LookbackWindow w = make_window({1, 2, 3, 4, 1, 2, 3, 4});
  LocalityAnalyzer analyzer{4};
  EXPECT_LE(analyzer.score(w), 1.0);
  EXPECT_GT(analyzer.score(w), 0.0);
}

TEST(Locality, StrideBeyondDmaxIgnored) {
  // Page+1 appears 5 positions later; with dmax = 4 it is invisible.
  const LookbackWindow w = make_window({10, 50, 51, 52, 53, 11});
  LocalityAnalyzer analyzer{4};
  const auto counts = analyzer.stride_counts(w);
  std::uint64_t stride10 = counts[0];
  EXPECT_EQ(stride10, 4u);  // the 50..53 run
  // Page 10 -> 11 at distance 5: not counted anywhere.
  double expected = 4.0 / (6.0 * 1.0);
  EXPECT_DOUBLE_EQ(analyzer.score(w), expected);
}

TEST(Locality, MinimumDistanceWins) {
  // Page 8 appears twice after 7; the stride is the minimum distance (1).
  const LookbackWindow w = make_window({7, 8, 99, 8});
  LocalityAnalyzer analyzer{4};
  const auto counts = analyzer.stride_counts(w);
  EXPECT_EQ(counts[0], 2u);  // {7,8} at stride 1
  EXPECT_EQ(counts[2], 0u);  // the second 8 is not the chosen link
}

TEST(Locality, InterleavedStreamsScoreByStride) {
  // Two interleaved sequential streams: a,b,a+1,b+1,... -> stride-2 links.
  const LookbackWindow w = make_window({100, 500, 101, 501, 102, 502});
  LocalityAnalyzer analyzer{4};
  const auto counts = analyzer.stride_counts(w);
  EXPECT_EQ(counts[1], 6u);  // every position participates
  EXPECT_DOUBLE_EQ(analyzer.score(w), 6.0 / (6.0 * 2.0));
}

TEST(Locality, PaperOutstandingStreamExample) {
  // §3.4: l = 10, pages {13,27,7,8,14,8,3,15,4,5}: outstanding streams are
  // {14,15} (stride-3, pivot 16), {3,4} (stride-2, pivot 5), {4,5}
  // (stride-1, pivot 6); {7,8} is not outstanding any more.
  const LookbackWindow w = make_window({13, 27, 7, 8, 14, 8, 3, 15, 4, 5});
  LocalityAnalyzer analyzer{4};
  const auto streams = analyzer.outstanding_streams(w);
  ASSERT_EQ(streams.size(), 3u);
  EXPECT_EQ(streams[0].d, 3u);
  EXPECT_EQ(streams[0].pivot, 16u);
  EXPECT_EQ(streams[1].d, 2u);
  EXPECT_EQ(streams[1].pivot, 5u);
  EXPECT_EQ(streams[2].d, 1u);
  EXPECT_EQ(streams[2].pivot, 6u);
}

TEST(Locality, SequentialTailIsOneOutstandingStream) {
  const LookbackWindow w = make_window({1, 2, 3, 4, 5});
  LocalityAnalyzer analyzer{4};
  const auto streams = analyzer.outstanding_streams(w);
  ASSERT_EQ(streams.size(), 1u);
  EXPECT_EQ(streams[0].d, 1u);
  EXPECT_EQ(streams[0].pivot, 6u);
}

TEST(Locality, StaleStreamIsNotOutstanding) {
  // The {1,2} run ended long ago relative to its stride.
  const LookbackWindow w = make_window({1, 2, 50, 60, 70, 80, 90, 95});
  LocalityAnalyzer analyzer{4};
  EXPECT_TRUE(analyzer.outstanding_streams(w).empty());
}

TEST(Locality, DuplicatePivotsAreMerged) {
  // Two links producing the same pivot yield one stream.
  const LookbackWindow w = make_window({5, 6, 5, 6});
  LocalityAnalyzer analyzer{4};
  const auto streams = analyzer.outstanding_streams(w);
  ASSERT_EQ(streams.size(), 1u);
  EXPECT_EQ(streams[0].pivot, 7u);
}

TEST(Locality, EmptyAndTinyWindows) {
  LookbackWindow w{4};
  LocalityAnalyzer analyzer{4};
  EXPECT_DOUBLE_EQ(analyzer.score(w), 0.0);
  EXPECT_TRUE(analyzer.outstanding_streams(w).empty());
  w.record(9, Time::from_us(1), 1.0);
  EXPECT_DOUBLE_EQ(analyzer.score(w), 0.0);
  EXPECT_TRUE(analyzer.outstanding_streams(w).empty());
}

TEST(Locality, DescendingSequenceScoresZero) {
  // Forward-stride analysis: reverse-sequential access is not prefetchable
  // by a +1 read-ahead and scores 0 (documented deviation from the paper's
  // ambiguous "absolute distance" wording).
  const LookbackWindow w = make_window({9, 8, 7, 6, 5});
  LocalityAnalyzer analyzer{4};
  EXPECT_DOUBLE_EQ(analyzer.score(w), 0.0);
}

TEST(Locality, PartiallyFilledWindowNormalizesByCurrentSize) {
  LookbackWindow w{20};
  std::int64_t t = 0;
  for (const mem::PageId p : {1u, 2u, 3u, 4u}) {
    w.record(p, Time::from_us(++t), 1.0);
  }
  LocalityAnalyzer analyzer{4};
  EXPECT_DOUBLE_EQ(analyzer.score(w), 1.0);  // 4/(4*1)
}

// The two-pass analysis analyze_window() replaced: score and streams each walk W
// through LookbackWindow::page(), recomputing every position's stride. Kept
// as the reference the single pass must match bit for bit.
struct ReferenceAnalyzer {
  std::size_t dmax;

  std::size_t stride_of(const LookbackWindow& w, std::size_t p) const {
    const mem::PageId wanted = w.page(p) + 1;
    const std::size_t limit = std::min(w.size() - 1 - p, dmax);
    for (std::size_t d = 1; d <= limit; ++d) {
      if (w.page(p + d) == wanted) {
        return d;
      }
    }
    return 0;
  }

  double score(const LookbackWindow& w) const {
    const std::size_t n = w.size();
    if (n < 2) {
      return 0.0;
    }
    std::vector<std::uint64_t> masks(dmax + 1, 0);
    for (std::size_t p = 0; p + 1 < n; ++p) {
      const std::size_t d = stride_of(w, p);
      if (d != 0) {
        masks[d] |= (std::uint64_t{1} << p) | (std::uint64_t{1} << (p + d));
      }
    }
    double s = 0.0;
    for (std::size_t d = 1; d <= dmax; ++d) {
      s += static_cast<double>(std::popcount(masks[d])) /
           (static_cast<double>(n) * static_cast<double>(d));
    }
    return s > 1.0 ? 1.0 : s;
  }

  std::vector<StrideStream> streams(const LookbackWindow& w) const {
    std::vector<StrideStream> out;
    const std::size_t n = w.size();
    for (std::size_t p = 0; p + 1 < n; ++p) {
      const std::size_t d = stride_of(w, p);
      if (d == 0 || p + 2 * d < n) {
        continue;
      }
      const mem::PageId pivot = w.page(p + d) + 1;
      if (std::none_of(out.begin(), out.end(),
                       [pivot](const StrideStream& s) { return s.pivot == pivot; })) {
        out.push_back(StrideStream{d, p + d, pivot});
      }
    }
    return out;
  }
};

// analyze_window() equals the two-pass reference exactly on random windows of
// every length, filled past capacity so the ring wraps, over dmax values
// below, at and beyond the window length.
TEST(Locality, AnalyzeWindowMatchesTwoPassReference) {
  sim::Rng rng{1996};
  std::vector<StrideStream> streams;
  std::uint64_t with_streams = 0;
  for (int c = 0; c < 4000; ++c) {
    const std::size_t capacity = 2 + rng.uniform(LookbackWindow::kMaxCapacity - 1);
    const std::size_t dmax = rng.bernoulli(0.1) ? 60 + rng.uniform(10) : rng.uniform(9);
    const std::uint64_t universe = 4 + rng.uniform(120);
    LookbackWindow w{capacity};
    const std::uint64_t records = rng.uniform(2 * capacity + 1);
    // 1-5 interleaved forward streams plus random jumps, so links of many
    // strides and several outstanding streams appear.
    std::vector<mem::PageId> cursors(1 + rng.uniform(5));
    for (mem::PageId& cursor : cursors) {
      cursor = rng.uniform(universe);
    }
    std::int64_t t = 0;
    for (std::uint64_t i = 0; i < records; ++i) {
      mem::PageId& cursor = cursors[rng.uniform(cursors.size())];
      cursor = rng.bernoulli(0.8) ? cursor + 1 : rng.uniform(universe);
      w.record(cursor, Time::from_us(++t), 1.0);
    }
    const LocalityAnalyzer analyzer{dmax};
    const ReferenceAnalyzer reference{dmax};
    const double s = analyzer.analyze_window(w, streams);
    EXPECT_EQ(s, reference.score(w)) << "case " << c;
    EXPECT_EQ(analyzer.score(w), s) << "case " << c;
    const std::vector<StrideStream> expected = reference.streams(w);
    ASSERT_EQ(streams.size(), expected.size()) << "case " << c;
    for (std::size_t i = 0; i < expected.size(); ++i) {
      EXPECT_EQ(streams[i].d, expected[i].d) << "case " << c << " stream " << i;
      EXPECT_EQ(streams[i].end_index, expected[i].end_index) << "case " << c << " stream " << i;
      EXPECT_EQ(streams[i].pivot, expected[i].pivot) << "case " << c << " stream " << i;
    }
    if (expected.size() > 1) {
      ++with_streams;
    }
  }
  EXPECT_GT(with_streams, 1000u);
}

}  // namespace
}  // namespace ampom::core
