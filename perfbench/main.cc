// aces_perfbench: one run of one workload of the end-to-end benchmark.
//
//   aces_perfbench --workload=sim200|dist-inproc3|rt-ladder --seed=N
//                  --seconds=S --trace=0|1 [--spans=FILE]
//
// Prints a table of the metrics (name, value, unit, note) and, as the last
// line of standard output, one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// --trace=0 reports the end-to-end metrics, --trace=1 the per-layer ones.
// Exit status: 0 when the run completed (its correctness is in the JSON),
// 2 on a usage error, 1 when the run itself failed.
#include <cmath>
#include <cstdio>
#include <exception>
#include <iostream>
#include <string>

#include "bench.h"
#include "workloads.h"

namespace {

using perfbench::Outcome;

bool parse_flag(const std::string& arg, const char* name, std::string* out) {
  const std::string prefix = std::string("--") + name + "=";
  if (arg.rfind(prefix, 0) != 0) return false;
  *out = arg.substr(prefix.size());
  return true;
}

int usage(const char* msg) {
  std::cerr << "aces_perfbench: " << msg
            << "\nusage: aces_perfbench --workload=NAME --seed=N --seconds=S"
               " --trace=0|1 [--spans=FILE]\n";
  return 2;
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

void print(const Outcome& outcome) {
  std::size_t width = 0;
  for (const auto& m : outcome.metrics) width = std::max(width, m.name.size());
  for (const auto& m : outcome.metrics) {
    std::printf("%-*s %16.6g %-9s %s\n", static_cast<int>(width),
                m.name.c_str(), m.value, m.unit.c_str(), m.note.c_str());
  }
  for (const auto& d : outcome.diagnostics) std::printf("# %s\n", d.c_str());
  for (const auto& f : outcome.failures) std::printf("FAILED: %s\n", f.c_str());
  std::string json = "{\"correct\": ";
  json += outcome.failed == 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(outcome.attempted);
  json += ", \"failed\": " + std::to_string(outcome.failed);
  json += ", \"metrics\": {";
  bool first = true;
  for (const auto& m : outcome.metrics) {
    char value[64];
    std::snprintf(value, sizeof value, "%.17g", m.value);
    json += first ? "" : ", ";
    json += "\"" + json_escape(m.name) + "\": {\"value\": " + value +
            ", \"unit\": \"" + json_escape(m.unit) + "\"}";
    first = false;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  std::string seed = "1";
  std::string seconds = "10";
  std::string trace = "0";
  std::string spans_path;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (!parse_flag(arg, "workload", &workload) &&
        !parse_flag(arg, "seed", &seed) &&
        !parse_flag(arg, "seconds", &seconds) &&
        !parse_flag(arg, "trace", &trace) &&
        !parse_flag(arg, "spans", &spans_path)) {
      return usage(("unknown argument " + arg).c_str());
    }
  }
  perfbench::RunArgs args;
  try {
    args.seed = std::stoull(seed);
    args.seconds = std::stod(seconds);
  } catch (const std::exception&) {
    return usage("--seed and --seconds must be numbers");
  }
  if (!(args.seconds > 0.0) || (trace != "0" && trace != "1")) {
    return usage("--seconds must be positive and --trace 0 or 1");
  }
  args.trace = trace == "1";
  perfbench::SpanLog spans;
  // End-to-end numbers come from untraced runs only.
  args.spans = args.trace ? &spans : nullptr;

  Outcome outcome;
  try {
    if (workload == "sim200") {
      outcome = perfbench::run_sim200(args);
    } else if (workload == "dist-inproc3") {
      outcome = perfbench::run_dist_inproc3(args);
    } else if (workload == "rt-ladder") {
      outcome = perfbench::run_rt_ladder(args);
    } else {
      return usage(("unknown workload '" + workload + "'").c_str());
    }
  } catch (const std::exception& e) {
    std::cerr << "aces_perfbench: run failed: " << e.what() << '\n';
    return 1;
  }
  for (auto& m : outcome.metrics) {
    if (!std::isfinite(m.value)) {
      outcome.check(false, m.name + " is not finite");
      m.value = 0.0;
    }
  }
  if (!spans_path.empty() && !spans.write_jsonl(spans_path)) {
    std::cerr << "aces_perfbench: cannot write " << spans_path << '\n';
    return 1;
  }
  print(outcome);
  return 0;
}
