// Arrival processes for external input streams.
//
// The paper's evaluation stresses "highly bursty workloads"; we provide three
// arrival models with a common interface so the simulator and the threaded
// runtime draw from identical distributions:
//   * CBR      — constant bit rate, zero burstiness
//   * Poisson  — memoryless arrivals
//   * On/Off   — Markov-modulated Poisson (MMPP): Poisson at a peak rate
//                while ON, silent while OFF; the classic bursty-source model
#pragma once

#include <functional>
#include <memory>

#include "common/rng.h"
#include "common/types.h"
#include "graph/descriptors.h"

namespace aces::workload {

/// Generator of successive inter-arrival gaps for one stream.
class ArrivalProcess {
 public:
  virtual ~ArrivalProcess() = default;
  /// Seconds until the next SDO arrives (strictly positive).
  virtual Seconds next_interarrival() = 0;
  /// Long-run average rate in SDOs per second.
  [[nodiscard]] virtual double mean_rate() const = 0;
};

/// Evenly spaced arrivals at exactly `rate` SDOs/sec.
class CbrArrivals final : public ArrivalProcess {
 public:
  explicit CbrArrivals(double rate);
  Seconds next_interarrival() override { return gap_; }
  [[nodiscard]] double mean_rate() const override { return 1.0 / gap_; }

 private:
  Seconds gap_;
};

/// Poisson arrivals at `rate` SDOs/sec.
class PoissonArrivals final : public ArrivalProcess {
 public:
  PoissonArrivals(double rate, Rng rng);
  Seconds next_interarrival() override;
  [[nodiscard]] double mean_rate() const override { return rate_; }

 private:
  double rate_;
  Rng rng_;
};

/// Markov-modulated Poisson: ON phases emit Poisson arrivals at
/// `mean_rate / on_fraction`; OFF phases emit nothing. Phase durations are
/// exponential with means `cycle_mean * on_fraction` / `cycle_mean *
/// (1 - on_fraction)`, preserving the requested long-run mean rate.
class OnOffArrivals final : public ArrivalProcess {
 public:
  OnOffArrivals(double mean_rate, double on_fraction, double cycle_mean,
                Rng rng);
  Seconds next_interarrival() override;
  [[nodiscard]] double mean_rate() const override { return mean_rate_; }
  [[nodiscard]] double peak_rate() const { return peak_rate_; }

 private:
  void toggle();

  double mean_rate_;
  double peak_rate_;
  double phase_mean_[2];  // [OFF, ON]
  Rng rng_;
  int phase_ = 1;  // start ON
  Seconds now_ = 0.0;
  Seconds switch_time_ = 0.0;
};

/// Maps a StreamDescriptor's (mean_rate, burstiness) to an arrival process:
/// burstiness 0 → CBR; otherwise MMPP with on-fraction 1 − 0.75·burstiness
/// (burstiness 1 → 4× peak-to-mean ratio) and a 1-second mean cycle.
std::unique_ptr<ArrivalProcess> make_arrival_process(
    const graph::StreamDescriptor& stream, Rng rng);

/// Workload hook an engine takes in place of make_arrival_process (trace
/// replay, custom distributions): builds the process of one stream from its
/// descriptor and the per-stream generator the engine derived from its seed.
using ArrivalFactory = std::function<std::unique_ptr<ArrivalProcess>(
    StreamId, const graph::StreamDescriptor&, Rng)>;

}  // namespace aces::workload
