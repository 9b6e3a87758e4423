#include "driver/run_context.hpp"

#include <fstream>

#include "trace/chrome_export.hpp"

namespace ampom::driver {

RunContext::RunContext(const Scenario& scenario, Options options)
    : logger_{options.log_level,
              options.capture_log ? static_cast<std::ostream*>(&capture_) : options.log_sink},
      recorder_{std::make_unique<trace::TraceRecorder>(scenario.trace)} {
  if (!options.capture_log && options.log_sink == nullptr) {
    logger_ = sim::Logger{options.log_level};  // default sink: stderr
  }
  // A multi-zone world runs one partition per zone, possibly on several
  // threads; give the recorder one shard per zone up front so no two
  // partitions ever share a buffer (trace/trace.hpp).
  if (scenario.topology.set() && scenario.topology.zones >= 2) {
    recorder_->enable_partition_shards(scenario.topology.zones);
  }
}

bool RunContext::write_trace_json(const std::string& path) const {
  if (!recorder_->enabled()) {
    return false;
  }
  std::ofstream out{path};
  if (!out) {
    return false;
  }
  trace::write_chrome_trace(*recorder_, out);
  return out.good();
}

}  // namespace ampom::driver
