// The benchmark's three workloads. Each takes the workload seed, derives
// the topology and engine seeds from it, and fills an Outcome with either
// the end-to-end metrics (untraced run) or the per-layer metrics (traced
// run), plus the correctness checks it ran.
#pragma once

#include <cstdint>

#include "bench.h"

namespace perfbench {

struct RunArgs {
  std::uint64_t seed = 1;
  double seconds = 10.0;  ///< measuring time of the untraced run
  bool trace = false;
  SpanLog* spans = nullptr;
};

Outcome run_sim200(const RunArgs& args);
Outcome run_dist_inproc3(const RunArgs& args);
Outcome run_rt_ladder(const RunArgs& args);

}  // namespace perfbench
