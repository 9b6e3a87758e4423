// perf_gate CLI.
//
//   perf_gate --input=run.json [--baseline=BENCH_x.json] [--output=FILE]
//             [--allow-case-subset]
//
// Reads the schema-2 document a bench wrote with --json=FILE, checks every
// metric's limit and, with --baseline, the run against the committed
// baseline (rules in gate.hpp). --output=FILE copies a passing run to FILE:
// the way to re-baseline. --allow-case-subset waives baseline cases the run
// did not cover (the quick grids). Exit 0 on pass, 1 on gate failure, 2 on
// usage or parse errors.

#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>

#include "perf_gate/gate.hpp"

namespace {

using namespace ampom::perfgate;

struct Options {
  std::string input;
  std::string baseline;
  std::string output;
  bool allow_case_subset{false};
};

std::optional<Options> parse_args(int argc, char** argv, std::string& error) {
  Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--input=", 0) == 0) {
      options.input = arg.substr(8);
    } else if (arg.rfind("--baseline=", 0) == 0) {
      options.baseline = arg.substr(11);
    } else if (arg.rfind("--output=", 0) == 0) {
      options.output = arg.substr(9);
    } else if (arg == "--allow-case-subset") {
      options.allow_case_subset = true;
    } else {
      error = "unknown argument: " + arg;
      return std::nullopt;
    }
  }
  if (options.input.empty()) {
    error = "--input=FILE is required";
    return std::nullopt;
  }
  return options;
}

// Reads, parses and validates one document; `text` receives the raw bytes.
std::optional<Document> load_file(const std::string& path, std::string& text,
                                  std::string& error) {
  std::ifstream in{path, std::ios::binary};
  if (!in) {
    error = "cannot read " + path;
    return std::nullopt;
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  text = buffer.str();
  std::string detail;
  const auto json = parse_json(text, &detail);
  auto doc = json ? load_document(*json, &detail) : std::nullopt;
  if (!doc) {
    error = path + ": " + detail;
  }
  return doc;
}

}  // namespace

int main(int argc, char** argv) {
  std::string error;
  const auto options = parse_args(argc, argv, error);
  if (!options) {
    std::cerr << "perf_gate: " << error << "\n"
              << "usage: perf_gate --input=run.json [--baseline=BENCH_x.json]"
                 " [--output=FILE] [--allow-case-subset]\n";
    return 2;
  }
  std::string input_text;
  const auto run = load_file(options->input, input_text, error);
  std::optional<Document> baseline;
  if (run && !options->baseline.empty()) {
    std::string baseline_text;
    baseline = load_file(options->baseline, baseline_text, error);
  }
  if (!run || (!options->baseline.empty() && !baseline)) {
    std::cerr << "perf_gate: " << error << "\n";
    return 2;
  }

  const GateResult result =
      gate(*run, baseline ? &*baseline : nullptr, options->allow_case_subset);
  for (const std::string& note : result.notes) {
    std::cout << "perf_gate: " << note << "\n";
  }
  for (const std::string& failure : result.failures) {
    std::cout << "perf_gate: FAIL: " << failure << "\n";
  }
  if (!result.pass) {
    std::cout << "perf_gate: " << run->tool << " gate FAILED (" << result.failures.size()
              << " check" << (result.failures.size() == 1 ? "" : "s") << ")\n";
    return 1;
  }
  std::cout << "perf_gate: " << run->tool << " gate passed, " << run->metrics.size()
            << " metrics" << (baseline ? " (limits + baseline)" : " (limits only)") << "\n";
  if (!options->output.empty()) {
    std::ofstream out{options->output, std::ios::binary};
    if (!(out << input_text)) {
      std::cerr << "perf_gate: cannot write " << options->output << "\n";
      return 2;
    }
  }
  return 0;
}
