#pragma once
// Spatial-locality analysis over the lookback window (paper §3.2 and §3.4).
//
// Stride construct: the stride of a reference r_p is the minimum forward
// distance d at which page r_p + 1 appears in W (d <= dmax). stride_d counts
// the window positions participating as endpoints of stride-d links — this
// reproduces both worked examples in §3.2:
//   {1,99,2,45,3,78,4}  -> stride_2 = 4 (pages 1,2,3,4)
//   {10,99,11,34,12,85} -> stride_2 = 3, S = 3/(6*2) = 0.25
// and a purely sequential window scores S = 1.
//
// Outstanding streams (§3.4): a stride-d stream ending at index e is
// outstanding when e + d >= l (its continuation would still land inside the
// window); its prefetch pivot is the page after the stream's end.

#include <cstdint>
#include <vector>

#include "core/lookback_window.hpp"

namespace ampom::core {

struct StrideStream {
  std::size_t d{0};          // stride of the stream
  std::size_t end_index{0};  // window index of the stream's last element
  mem::PageId pivot{mem::kInvalidPage};  // first page to prefetch
};

class LocalityAnalyzer {
 public:
  explicit LocalityAnalyzer(std::size_t dmax) : dmax_{dmax} {}

  [[nodiscard]] std::size_t dmax() const { return dmax_; }

  // The per-fault analysis in one pass over W: returns the spatial locality
  // score S (Eq. 1, in [0, 1]) and writes the outstanding stride streams to
  // `streams` (cleared first), ordered by end index (oldest first) and
  // de-duplicated by pivot. Allocates only when `streams` has to grow.
  double analyze_window(const LookbackWindow& w, std::vector<StrideStream>& streams) const;

  // stride_d for d = 1..dmax; index 0 of the result is stride_1.
  [[nodiscard]] std::vector<std::uint64_t> stride_counts(const LookbackWindow& w) const;

  // S alone, as analyze_window() computes it.
  [[nodiscard]] double score(const LookbackWindow& w) const;

  // The streams alone, as analyze_window() computes them.
  [[nodiscard]] std::vector<StrideStream> outstanding_streams(const LookbackWindow& w) const;

 private:
  std::size_t dmax_;
};

}  // namespace ampom::core
