#include "core/dependent_zone.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <numeric>
#include <stdexcept>

namespace ampom::core {

std::uint64_t zone_size(const ZoneInputs& in, const AmpomConfig& config) {
  if (in.paging_rate_hz <= 0.0) {
    return std::min(config.fallback_zone, config.zone_cap);
  }
  const double c = in.cpu_mean <= 0.0 ? 0.01 : in.cpu_mean;
  const double c_ratio = in.cpu_next / c;
  const double round_trip_sec = (in.rtt_one_way * 2 + in.page_transfer).sec();
  // N = (c'/c) * S * (r*(2t0+td) + 1)
  const double n = c_ratio * in.locality_score * (in.paging_rate_hz * round_trip_sec + 1.0);
  const auto rounded = n <= 0.0 ? 0 : static_cast<std::uint64_t>(std::llround(n));
  // Floor: the Linux-style read-ahead baseline (§5.3); cap: burst bound.
  return std::min(std::max(rounded, config.min_zone), config.zone_cap);
}

namespace {

// The pages chosen so far as sorted, disjoint, non-adjacent runs [lo, hi).
// Each stream adds at most one new run (its first segment; every later
// segment starts where a run ends), so a window's worth of streams fits.
class ChosenRuns {
 public:
  // Appends to `zone` the first `quota` pages at or after `start` (and
  // below `total`) that no run holds yet, and records them. Pages already
  // chosen by another stream do not consume quota: the "saved quota"
  // extends this stream with further pages (§3.4).
  void take(mem::PageId start, std::uint64_t quota, std::uint64_t total,
            std::vector<mem::PageId>& zone) {
    mem::PageId page = start;
    std::size_t i = 0;  // first run ending after `page`
    while (i < count_ && runs_[i].hi <= page) {
      ++i;
    }
    while (quota > 0 && page < total) {
      if (i < count_ && runs_[i].lo <= page) {
        page = runs_[i].hi;  // skip a run another stream chose
        ++i;
        continue;
      }
      mem::PageId end = quota < total - page ? page + quota : total;
      if (i < count_) {
        end = std::min(end, runs_[i].lo);
      }
      const std::size_t at = zone.size();
      zone.resize(at + (end - page));
      std::iota(zone.begin() + static_cast<std::ptrdiff_t>(at), zone.end(), page);
      quota -= end - page;
      const bool joins_prev = i > 0 && runs_[i - 1].hi == page;
      const bool joins_next = i < count_ && runs_[i].lo == end;
      if (joins_prev && joins_next) {
        runs_[i - 1].hi = runs_[i].hi;
        std::copy(runs_.begin() + static_cast<std::ptrdiff_t>(i + 1),
                  runs_.begin() + static_cast<std::ptrdiff_t>(count_),
                  runs_.begin() + static_cast<std::ptrdiff_t>(i));
        --count_;
        page = runs_[i - 1].hi;
      } else if (joins_prev) {
        runs_[i - 1].hi = end;
        page = end;
      } else if (joins_next) {
        runs_[i].lo = page;
        page = runs_[i].hi;
        ++i;
      } else {
        std::copy_backward(runs_.begin() + static_cast<std::ptrdiff_t>(i),
                           runs_.begin() + static_cast<std::ptrdiff_t>(count_),
                           runs_.begin() + static_cast<std::ptrdiff_t>(count_ + 1));
        runs_[i] = Run{page, end};
        ++count_;
        page = end;
        ++i;
      }
    }
  }

 private:
  struct Run {
    mem::PageId lo{0};
    mem::PageId hi{0};
  };
  std::array<Run, LookbackWindow::kMaxCapacity> runs_{};
  std::size_t count_{0};
};

}  // namespace

void select_zone(const LookbackWindow& window, const std::vector<StrideStream>& streams,
                 std::uint64_t zone_pages, std::uint64_t total_pages,
                 std::vector<mem::PageId>& zone) {
  zone.clear();
  if (streams.size() > LookbackWindow::kMaxCapacity) {
    throw std::invalid_argument("select_zone: more streams than a lookback window holds");
  }
  if (zone_pages == 0 || window.size() == 0 || total_pages == 0) {
    return;
  }
  zone.reserve(zone_pages);
  ChosenRuns chosen;

  if (streams.empty()) {
    // Read-ahead after the most recent reference.
    chosen.take(window.last_page() + 1, zone_pages, total_pages, zone);
    return;
  }

  const auto m = static_cast<std::uint64_t>(streams.size());
  const std::uint64_t base = zone_pages / m;
  std::uint64_t remainder = zone_pages % m;
  for (const StrideStream& stream : streams) {
    std::uint64_t quota = base;
    if (remainder > 0) {
      ++quota;
      --remainder;
    }
    if (quota > 0) {
      chosen.take(stream.pivot, quota, total_pages, zone);
    }
  }
}

}  // namespace ampom::core
