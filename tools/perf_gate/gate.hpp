#pragma once
// perf_gate — the comparator behind every committed BENCH_*.json.
//
// Each gated bench (micro_simcore, scale_sweep, parallel_sweep,
// cache_ablation) writes the same schema-2 document (bench/common.hpp's
// MetricsDoc): a flat map of "<case>.<name>" metrics, each with a value, a
// `better` direction and an optional absolute limit. The run carries the
// rules and the baseline only its values, so this tool knows no bench. It
// knows the rule kinds:
//   - limit: lower must stay <= limit, higher >= limit;
//   - against the baseline: lower/higher may not regress by more than
//     kTolerance of the baseline value (one-sided), both must stay inside
//     that band on either side, info is never compared;
//   - case sets: a case the baseline lacks always fails (nothing gates it
//     until the baseline is refreshed); a baseline case missing from the
//     run fails unless allow_case_subset waives it (the quick grids are
//     subsets of the committed ones). Within a case both sides must carry
//     the same metrics.
// Cross-metric properties (bit-identity across worker counts, traffic
// spread, wall-time shape) arrive as derived metrics with limits; see
// bench/perf_metrics.hpp.

#include <map>
#include <optional>
#include <string>
#include <vector>

namespace ampom::perfgate {

struct JsonValue {
  enum class Kind { Null, Bool, Number, String, Array, Object };
  Kind kind{Kind::Null};
  bool boolean{false};
  double number{0.0};
  std::string string;
  std::vector<JsonValue> array;
  std::map<std::string, JsonValue> object;
  int line{0};  // where the value starts, for error messages

  // Object member lookup; nullptr when absent or not an object.
  [[nodiscard]] const JsonValue* find(const std::string& key) const;
};

// Parse a JSON document. On failure returns nullopt and, if `error` is
// non-null, a one-line description starting "line L, column C: ".
[[nodiscard]] std::optional<JsonValue> parse_json(const std::string& text,
                                                  std::string* error);

enum class Better { kLower, kHigher, kBoth, kInfo };

struct Metric {
  double value{0.0};
  Better better{Better::kInfo};
  std::optional<double> limit;  // only on lower/higher metrics
};

struct Document {
  std::string tool;
  double host_cpus{0.0};
  std::map<std::string, Metric> metrics;  // "<case>.<name>"
};

// Validate a parsed schema-2 document; errors name the offending line.
[[nodiscard]] std::optional<Document> load_document(const JsonValue& doc, std::string* error);

// The allowed fractional regression against the baseline. Wide enough to
// absorb runner noise on same-machine ratios; every deterministic quantity
// sits far inside it or is pinned exactly by a limit.
inline constexpr double kTolerance = 0.30;

struct GateResult {
  bool pass{true};
  std::vector<std::string> failures;
  std::vector<std::string> notes;  // waived baseline-only cases
};

// Gate `run`; `baseline` may be null (limits only, used when recording the
// first baseline).
[[nodiscard]] GateResult gate(const Document& run, const Document* baseline,
                              bool allow_case_subset);

}  // namespace ampom::perfgate
