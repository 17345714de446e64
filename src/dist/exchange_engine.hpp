#pragma once

// The sequential random-exchange model of Section VII: machines take turns
// initiating one pairwise balancing operation against a randomly selected
// peer. This is the simulator behind Figures 3, 4 and 5 (the paper's
// "number of exchanges per machine" is `exchanges / num_machines` here).

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/schedule.hpp"
#include "dist/exchange_loop.hpp"
#include "dist/peer_selector.hpp"
#include "pairwise/pair_kernel.hpp"
#include "stats/rng.hpp"

namespace dlb::dist {

/// The sequential engine sets nothing beyond the shared ExchangeOptions
/// (cap, stops, trace, obs, churn, checkpoint/halt/resume). Every round,
/// each live machine initiates once in a fresh random order — the closest
/// sequentialisation of "every machine runs the loop"; one engine epoch is
/// one such round. Its obs sinks: counters exchange.count / .changed /
/// .migrations; gauge exchange.cmax; tracer spans "exchange" on the
/// virtual axis of one microsecond per exchange. On resume, `rng` is
/// overwritten with the checkpointed generator state.
using EngineOptions = ExchangeOptions;

/// Per-exchange record captured when EngineOptions::record_trace is set.
struct ExchangeTracePoint {
  Cost makespan = 0.0;            ///< Cmax after the exchange.
  bool changed = false;           ///< Did the kernel move any job?
  std::uint64_t migrations = 0;   ///< Cumulative job moves within the run.

  friend bool operator==(const ExchangeTracePoint&,
                         const ExchangeTracePoint&) = default;
};

/// Shared fields live on the RunReport and ExchangeReport bases; the
/// per-exchange trace below is this engine's own.
struct RunResult : ExchangeReport {
  /// One point per exchange, filled when record_trace is set.
  std::vector<ExchangeTracePoint> exchange_trace;

  /// Exchanges per machine until the threshold (Figure 5's X axis);
  /// 0 for an empty machine set.
  [[nodiscard]] double normalized_threshold_time(
      std::size_t num_machines) const {
    if (num_machines == 0) return 0.0;
    return static_cast<double>(exchanges_to_threshold) /
           static_cast<double>(num_machines);
  }
};

class ExchangeEngine {
 public:
  /// Kernel and selector must outlive the engine.
  ExchangeEngine(const pairwise::PairKernel& kernel,
                 const PeerSelector& selector)
      : kernel_(&kernel), selector_(&selector) {}

  /// Runs the exchange loop on `schedule` in place.
  RunResult run(Schedule& schedule, const EngineOptions& options,
                stats::Rng& rng) const;

 private:
  const pairwise::PairKernel* kernel_;
  const PeerSelector* selector_;
};

}  // namespace dlb::dist
