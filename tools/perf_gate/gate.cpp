#include "perf_gate/gate.hpp"

#include <charconv>
#include <cmath>
#include <cstdlib>
#include <set>
#include <utility>

namespace ampom::perfgate {
namespace {

// ---------------------------------------------------------------------------
// JSON parsing: recursive descent over the subset the schema uses.
// ---------------------------------------------------------------------------

class Parser {
 public:
  Parser(const std::string& text, std::string* error) : text_(text), error_(error) {}

  std::optional<JsonValue> parse() {
    skip_ws();
    JsonValue value;
    if (!parse_value(value)) {
      return std::nullopt;
    }
    skip_ws();
    if (pos_ != text_.size()) {
      return fail("trailing characters after document");
    }
    return value;
  }

 private:
  std::optional<JsonValue> fail(const std::string& what) {
    if (error_ != nullptr && error_->empty()) {
      const int at_line = line();
      *error_ = "line " + std::to_string(at_line) + ", column " +
                std::to_string(pos_ - line_start_ + 1) + ": " + what;
    }
    return std::nullopt;
  }

  // The line of pos_, counted incrementally: pos_ only moves forward.
  int line() {
    for (; counted_ < pos_ && counted_ < text_.size(); ++counted_) {
      if (text_[counted_] == '\n') {
        ++line_;
        line_start_ = counted_ + 1;
      }
    }
    return line_;
  }

  void skip_ws() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') {
        break;
      }
      ++pos_;
    }
  }

  [[nodiscard]] bool at_end() const { return pos_ >= text_.size(); }
  [[nodiscard]] char peek() const { return text_[pos_]; }

  bool expect(char c) {
    if (at_end() || text_[pos_] != c) {
      fail(std::string("expected '") + c + "'");
      return false;
    }
    ++pos_;
    return true;
  }

  bool parse_value(JsonValue& out) {
    out.line = line();
    if (at_end()) {
      fail("unexpected end of input");
      return false;
    }
    switch (peek()) {
      case '{':
        return parse_object(out);
      case '[':
        return parse_array(out);
      case '"':
        out.kind = JsonValue::Kind::String;
        return parse_string(out.string);
      case 't':
      case 'f':
        return parse_bool(out);
      case 'n':
        return parse_literal("null") && (out.kind = JsonValue::Kind::Null, true);
      default:
        return parse_number(out);
    }
  }

  bool parse_literal(const char* word) {
    for (const char* p = word; *p != '\0'; ++p) {
      if (at_end() || text_[pos_] != *p) {
        fail(std::string("expected '") + word + "'");
        return false;
      }
      ++pos_;
    }
    return true;
  }

  bool parse_bool(JsonValue& out) {
    out.kind = JsonValue::Kind::Bool;
    if (peek() == 't') {
      out.boolean = true;
      return parse_literal("true");
    }
    out.boolean = false;
    return parse_literal("false");
  }

  bool parse_number(JsonValue& out) {
    const std::size_t start = pos_;
    while (!at_end()) {
      const char c = peek();
      const bool number_char = (c >= '0' && c <= '9') || c == '-' || c == '+' ||
                               c == '.' || c == 'e' || c == 'E';
      if (!number_char) {
        break;
      }
      ++pos_;
    }
    if (pos_ == start) {
      fail("expected a value");
      return false;
    }
    const std::string token = text_.substr(start, pos_ - start);
    char* end = nullptr;
    out.number = std::strtod(token.c_str(), &end);
    if (end == nullptr || *end != '\0') {
      fail("malformed number '" + token + "'");
      return false;
    }
    out.kind = JsonValue::Kind::Number;
    return true;
  }

  bool parse_string(std::string& out) {
    if (!expect('"')) {
      return false;
    }
    out.clear();
    while (!at_end()) {
      const char c = text_[pos_++];
      if (c == '"') {
        return true;
      }
      if (c != '\\') {
        out += c;
        continue;
      }
      if (at_end()) {
        break;
      }
      const char esc = text_[pos_++];
      switch (esc) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          // The schemas are ASCII; decode BMP escapes in range, '?' otherwise.
          if (pos_ + 4 > text_.size()) {
            fail("truncated \\u escape");
            return false;
          }
          const std::string hex = text_.substr(pos_, 4);
          pos_ += 4;
          char* end = nullptr;
          const long code = std::strtol(hex.c_str(), &end, 16);
          if (end == nullptr || *end != '\0') {
            fail("malformed \\u escape");
            return false;
          }
          out += (code >= 0x20 && code < 0x7F) ? static_cast<char>(code) : '?';
          break;
        }
        default:
          fail("unknown escape");
          return false;
      }
    }
    fail("unterminated string");
    return false;
  }

  bool parse_array(JsonValue& out) {
    out.kind = JsonValue::Kind::Array;
    if (!expect('[')) {
      return false;
    }
    skip_ws();
    if (!at_end() && peek() == ']') {
      ++pos_;
      return true;
    }
    while (true) {
      JsonValue element;
      skip_ws();
      if (!parse_value(element)) {
        return false;
      }
      out.array.push_back(std::move(element));
      skip_ws();
      if (at_end()) {
        fail("unterminated array");
        return false;
      }
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      return expect(']');
    }
  }

  bool parse_object(JsonValue& out) {
    out.kind = JsonValue::Kind::Object;
    if (!expect('{')) {
      return false;
    }
    skip_ws();
    if (!at_end() && peek() == '}') {
      ++pos_;
      return true;
    }
    while (true) {
      skip_ws();
      std::string key;
      if (!parse_string(key)) {
        return false;
      }
      skip_ws();
      if (!expect(':')) {
        return false;
      }
      skip_ws();
      JsonValue value;
      if (!parse_value(value)) {
        return false;
      }
      out.object.insert_or_assign(std::move(key), std::move(value));
      skip_ws();
      if (at_end()) {
        fail("unterminated object");
        return false;
      }
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      return expect('}');
    }
  }

  const std::string& text_;
  std::string* error_;
  std::size_t pos_{0};
  std::size_t counted_{0};
  std::size_t line_start_{0};
  int line_{1};
};

// Shortest text that reads back to the same double, so a one-event drift
// never prints as two identical numbers.
std::string fmt(double v) {
  char buf[32];
  const auto result = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, result.ptr);
}

std::optional<Better> better_of(const std::string& name) {
  if (name == "lower") {
    return Better::kLower;
  }
  if (name == "higher") {
    return Better::kHigher;
  }
  if (name == "both") {
    return Better::kBoth;
  }
  if (name == "info") {
    return Better::kInfo;
  }
  return std::nullopt;
}

std::string case_of(const std::string& metric) { return metric.substr(0, metric.find('.')); }

std::set<std::string> cases_of(const Document& doc) {
  std::set<std::string> cases;
  for (const auto& [name, metric] : doc.metrics) {
    (void)metric;
    cases.insert(case_of(name));
  }
  return cases;
}

}  // namespace

const JsonValue* JsonValue::find(const std::string& key) const {
  if (kind != Kind::Object) {
    return nullptr;
  }
  const auto it = object.find(key);
  return it == object.end() ? nullptr : &it->second;
}

std::optional<JsonValue> parse_json(const std::string& text, std::string* error) {
  if (error != nullptr) {
    error->clear();
  }
  return Parser{text, error}.parse();
}

std::optional<Document> load_document(const JsonValue& doc, std::string* error) {
  const auto fail = [error](const JsonValue& at, const std::string& what) {
    if (error != nullptr) {
      *error = "line " + std::to_string(at.line) + ": " + what;
    }
    return std::nullopt;
  };
  const auto member = [&doc](const char* key, JsonValue::Kind kind) {
    const JsonValue* v = doc.find(key);
    return v != nullptr && v->kind == kind ? v : nullptr;
  };
  const JsonValue* schema = member("schema", JsonValue::Kind::Number);
  if (schema == nullptr || schema->number != 2.0) {
    return fail(doc, "not a perf document: \"schema\": 2 is missing");
  }
  const JsonValue* tool = member("tool", JsonValue::Kind::String);
  const JsonValue* host_cpus = member("host_cpus", JsonValue::Kind::Number);
  const JsonValue* metrics = member("metrics", JsonValue::Kind::Object);
  if (tool == nullptr || host_cpus == nullptr || metrics == nullptr ||
      metrics->object.empty()) {
    return fail(doc, "a perf document needs \"tool\", \"host_cpus\" and a non-empty "
                     "\"metrics\" object");
  }
  Document out;
  out.tool = tool->string;
  out.host_cpus = host_cpus->number;
  for (const auto& [name, value] : metrics->object) {
    const JsonValue* number = value.find("value");
    const JsonValue* better = value.find("better");
    const JsonValue* limit = value.find("limit");
    Metric metric;
    if (name.find('.') == std::string::npos) {
      return fail(value, "metric '" + name + "' is not named <case>.<name>");
    }
    if (number == nullptr || number->kind != JsonValue::Kind::Number || better == nullptr ||
        better->kind != JsonValue::Kind::String || !better_of(better->string)) {
      return fail(value, "metric '" + name +
                             "' needs a numeric \"value\" and \"better\" of "
                             "lower/higher/both/info");
    }
    metric.value = number->number;
    metric.better = *better_of(better->string);
    if (limit != nullptr) {
      if (limit->kind != JsonValue::Kind::Number ||
          (metric.better != Better::kLower && metric.better != Better::kHigher)) {
        return fail(*limit, "metric '" + name + "': a limit must be numeric, on a lower or "
                                                "higher metric");
      }
      metric.limit = limit->number;
    }
    out.metrics.emplace(name, metric);
  }
  return out;
}

GateResult gate(const Document& run, const Document* baseline, bool allow_case_subset) {
  GateResult result;
  const auto fail = [&result](std::string message) {
    result.pass = false;
    result.failures.push_back(std::move(message));
  };

  for (const auto& [name, m] : run.metrics) {
    const bool lower = m.better == Better::kLower;
    if (m.limit && (lower ? m.value > *m.limit : m.value < *m.limit)) {
      fail(name + " = " + fmt(m.value) + " breaks its limit (" + (lower ? "<= " : ">= ") +
           fmt(*m.limit) + ")");
    }
  }
  if (baseline == nullptr) {
    return result;
  }
  if (baseline->tool != run.tool) {
    fail("the baseline is a '" + baseline->tool + "' document but the run is '" + run.tool +
         "'");
    return result;
  }

  const std::set<std::string> run_cases = cases_of(run);
  const std::set<std::string> base_cases = cases_of(*baseline);
  for (const std::string& c : run_cases) {
    if (!base_cases.contains(c)) {
      fail("case '" + c + "' is missing from the baseline — nothing gates it; refresh the "
           "committed baseline to cover it");
    }
  }
  for (const std::string& c : base_cases) {
    if (run_cases.contains(c)) {
      continue;
    }
    if (allow_case_subset) {
      result.notes.push_back("case '" + c + "' not run (waived by --allow-case-subset)");
    } else {
      fail("case '" + c + "' is in the baseline but was not run — pass --allow-case-subset "
           "if this quick grid is intentional");
    }
  }

  const std::string band = "% of baseline ";
  const std::string tolerance = std::to_string(std::lround(kTolerance * 100.0));
  for (const auto& [name, base] : baseline->metrics) {
    if (!run_cases.contains(case_of(name))) {
      continue;  // reported (or waived) with the case above
    }
    const auto it = run.metrics.find(name);
    if (it == run.metrics.end()) {
      fail(name + " is in the baseline but missing from this run");
      continue;
    }
    const double v = it->second.value;
    const double b = base.value;
    switch (it->second.better) {
      case Better::kLower:
        if (v > b * (1.0 + kTolerance)) {
          fail(name + " = " + fmt(v) + " regressed past +" + tolerance + band + fmt(b));
        }
        break;
      case Better::kHigher:
        if (v < b * (1.0 - kTolerance)) {
          fail(name + " = " + fmt(v) + " regressed past -" + tolerance + band + fmt(b));
        }
        break;
      case Better::kBoth:
        if (std::fabs(v - b) > kTolerance * std::fabs(b)) {
          fail(name + " = " + fmt(v) + " is outside ±" + tolerance + band + fmt(b));
        }
        break;
      case Better::kInfo:
        break;
    }
  }
  for (const auto& [name, m] : run.metrics) {
    (void)m;
    if (base_cases.contains(case_of(name)) && !baseline->metrics.contains(name)) {
      fail(name + " is not in the baseline — nothing gates it; refresh the committed "
           "baseline to cover it");
    }
  }
  return result;
}

}  // namespace ampom::perfgate
