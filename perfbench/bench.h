// Shared helpers of the end-to-end benchmark driver: clocks, process
// resource usage, order statistics, seed derivation, the benchmark's own
// span log, and the metric table a run prints.
//
// Everything here lives outside the program under test. Spans are recorded
// by the benchmark around calls into the modules' public functions; the
// program itself carries no tracing for this benchmark.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/// Seconds on the monotonic clock since the first call.
double now_s();

/// Process-wide resource usage (getrusage(RUSAGE_SELF)): every thread of
/// the process, which includes the in-process shards and runtime threads.
struct Usage {
  double cpu_s = 0.0;            ///< user + system CPU seconds
  std::int64_t vol_switches = 0; ///< voluntary context switches
  double max_rss_mb = 0.0;       ///< high-water resident set size
};
Usage usage_now();

/// Host CPU time taken from this VM's virtual CPUs (/proc/stat "steal")
/// and all CPU time, in clock ticks since boot; both 0 where the kernel
/// does not report them.
struct CpuTicks {
  double steal = 0.0;
  double total = 0.0;
};
CpuTicks cpu_ticks_now();

/// Median of `v` (0 for an empty vector).
double median(std::vector<double> v);
/// Linear-interpolated quantile of `v`, q in [0, 1].
double quantile(std::vector<double> v, double q);

/// Derives an independent 64-bit seed from the workload seed and a salt
/// (splitmix64 finalizer), so topology, simulator and probe randomness
/// all follow from the one --seed argument.
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t salt);

/// Benchmark-side spans: one record per call into a layer, kept in memory
/// and written out when the run ends. A layer's numbers are computed from
/// these records, so the per-layer table and the span file agree.
class SpanLog {
 public:
  struct Record {
    std::string name;
    double start = 0.0;  ///< now_s() at entry
    double end = 0.0;    ///< now_s() at exit
    int parent = -1;     ///< index of the enclosing span, -1 at top level
  };

  /// Opens a span; returns its index for close().
  int open(std::string name);
  void close(int index);
  /// Durations (seconds) of every closed span called `name`.
  [[nodiscard]] std::vector<double> durations(const std::string& name) const;
  /// Writes one JSON object per span. Returns false on an I/O error.
  bool write_jsonl(const std::string& path) const;

 private:
  std::vector<Record> records_;
  std::vector<int> stack_;
};

/// RAII span; a null log costs one branch.
class Span {
 public:
  Span(SpanLog* log, std::string name)
      : log_(log),
        index_(log_ != nullptr ? log_->open(std::move(name)) : -1) {}
  ~Span() {
    if (log_ != nullptr) log_->close(index_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  SpanLog* log_;
  int index_;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::string note;  ///< printed beside the value, e.g. a sample count
};

/// Everything one invocation reports.
struct Outcome {
  std::vector<Metric> metrics;
  std::uint64_t attempted = 0;  ///< engine runs plus correctness checks
  std::uint64_t failed = 0;
  std::vector<std::string> failures;
  /// `key=value` diagnostics printed as "# " lines (steadiness.py reads
  /// them): how each number was sampled.
  std::vector<std::string> diagnostics;

  void add(std::string name, double value, std::string unit,
           std::string note = {}) {
    metrics.push_back({std::move(name), value, std::move(unit),
                       std::move(note)});
  }
  /// Counts one check; a false `ok` is a failed operation.
  void check(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) {
      ++failed;
      failures.push_back(what);
    }
  }
};

}  // namespace perfbench
