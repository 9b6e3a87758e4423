#include "core/locality.hpp"

#include <algorithm>
#include <array>
#include <bit>

namespace ampom::core {

namespace {

constexpr std::size_t kMaxLength = LookbackWindow::kMaxCapacity;

// W copied out of its ring once, with every position's stride computed once:
// the minimum forward distance d <= dmax at which page + 1 appears (0 if
// none), and per stride d the mask of positions that are endpoints of a
// stride-d link.
struct StridePass {
  std::array<mem::PageId, kMaxLength> page{};
  std::array<std::size_t, kMaxLength> stride{};
  std::array<std::uint64_t, kMaxLength> mask{};  // indexed by d; a link spans < n <= 64
  std::size_t n{0};

  StridePass(const LookbackWindow& w, std::size_t dmax) : n{w.copy_pages(page)} {
    for (std::size_t p = 0; p + 1 < n; ++p) {
      const mem::PageId wanted = page[p] + 1;
      const std::size_t limit = std::min(n - 1 - p, dmax);
      for (std::size_t d = 1; d <= limit; ++d) {
        if (page[p + d] == wanted) {
          stride[p] = d;
          mask[d] |= (std::uint64_t{1} << p) | (std::uint64_t{1} << (p + d));
          break;
        }
      }
    }
  }

  [[nodiscard]] std::uint64_t count(std::size_t d) const {
    return d < n ? static_cast<std::uint64_t>(std::popcount(mask[d])) : 0;
  }

  [[nodiscard]] double score(std::size_t dmax) const {
    if (n < 2) {
      return 0.0;
    }
    // Strides d >= n have no links and would only add +0.0, so summing in
    // d order up to n - 1 gives the same S as summing up to dmax.
    const std::size_t top = std::min(dmax, n - 1);
    double s = 0.0;
    for (std::size_t d = 1; d <= top; ++d) {
      s += static_cast<double>(count(d)) / (static_cast<double>(n) * static_cast<double>(d));
    }
    return s > 1.0 ? 1.0 : s;
  }

  void streams(std::vector<StrideStream>& out) const {
    out.clear();
    for (std::size_t p = 0; p + 1 < n; ++p) {
      const std::size_t d = stride[p];
      if (d == 0) {
        continue;
      }
      const std::size_t end = p + d;
      if (end + d < n) {
        continue;  // not outstanding: the stream ended too long ago
      }
      const mem::PageId pivot = page[end] + 1;
      const auto same_pivot = [pivot](const StrideStream& s) { return s.pivot == pivot; };
      if (std::none_of(out.begin(), out.end(), same_pivot)) {
        out.push_back(StrideStream{d, end, pivot});
      }
    }
  }
};

}  // namespace

double LocalityAnalyzer::analyze_window(const LookbackWindow& w,
                                 std::vector<StrideStream>& streams) const {
  const StridePass pass{w, dmax_};
  pass.streams(streams);
  return pass.score(dmax_);
}

std::vector<std::uint64_t> LocalityAnalyzer::stride_counts(const LookbackWindow& w) const {
  const StridePass pass{w, dmax_};
  std::vector<std::uint64_t> counts(dmax_, 0);
  for (std::size_t d = 1; d <= dmax_; ++d) {
    counts[d - 1] = pass.count(d);
  }
  return counts;
}

double LocalityAnalyzer::score(const LookbackWindow& w) const {
  return StridePass{w, dmax_}.score(dmax_);
}

std::vector<StrideStream> LocalityAnalyzer::outstanding_streams(const LookbackWindow& w) const {
  std::vector<StrideStream> streams;
  StridePass{w, dmax_}.streams(streams);
  return streams;
}

}  // namespace ampom::core
