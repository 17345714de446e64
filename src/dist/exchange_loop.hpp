#pragma once

// The epoch loop both exchange engines run on: the Section VII dynamic is
// one loop with two planners deciding who meets whom. ExchangeEngine's
// planner runs one exchange per step from a persistent Rng;
// ParallelExchangeEngine's runs one committed batch of disjoint sessions
// per step from per-session streams. The loop owns the rest: validation,
// fresh start and resume, churn at the epoch boundary, the stops after
// every step, the per-epoch flight sample, checkpoints and halts, and the
// final report. docs/parallelism.md walks through the split.

#include <cstddef>
#include <cstdint>
#include <optional>

#include "core/arena.hpp"
#include "core/schedule.hpp"
#include "dist/checkpoint.hpp"
#include "dist/churn.hpp"
#include "dist/run_report.hpp"
#include "obs/obs.hpp"
#include "pairwise/pair_kernel.hpp"

namespace dlb::dist {

/// Options both exchange engines share; ParallelEngineOptions adds its
/// thread pool.
struct ExchangeOptions {
  /// Hard cap on executed pairwise exchanges (parallel: sessions).
  std::size_t max_exchanges = 100'000;
  /// When set: stop after the first step with Cmax <= stop_threshold
  /// (Figure 5's metric). A step is one exchange (sequential) or one
  /// committed epoch (parallel).
  std::optional<Cost> stop_threshold;
  /// When set (must be >= 1): every this-many steps, certify stability by
  /// a full pair sweep on a copy; stop if stable (Theorem 7's
  /// precondition).
  std::optional<std::size_t> stability_check_interval;
  /// Record the planner's per-step trace.
  bool record_trace = false;
  /// Optional observability sinks (must outlive the run).
  const obs::Context* obs = nullptr;

  // ----- elasticity (src/dist/churn, src/dist/checkpoint) -----

  /// Optional churn plan (must outlive the run); one engine epoch is one
  /// plan epoch. Events apply at the epoch boundary, before any step.
  /// Null or trivial keeps the fixed-cluster behaviour byte-for-byte.
  const ChurnPlan* churn = nullptr;
  /// When nonzero: snapshot the run into *checkpoint_out every this-many
  /// epochs (at the epoch boundary) and emit a CHECKPOINT trace instant.
  std::uint64_t checkpoint_every = 0;
  Checkpoint* checkpoint_out = nullptr;
  /// When set: stop after this epoch completes (snapshotting into
  /// checkpoint_out if provided) with `halted` true.
  std::optional<std::uint64_t> halt_after_epoch;
  /// When set: continue the checkpointed run instead of starting fresh.
  /// `schedule` must come from Checkpoint::make_schedule. The finished run
  /// is bitwise identical to one that never stopped.
  const Checkpoint* resume = nullptr;
};

/// Result extras both exchange engines share, on top of RunReport.
struct ExchangeReport : RunReport {
  std::size_t changed_exchanges = 0;  ///< Exchanges that moved a job.
  std::uint64_t epochs = 0;           ///< Cumulative across resume.
  /// Stopped at halt_after_epoch; continue it from the checkpoint.
  bool halted = false;
  bool reached_threshold = false;
  std::size_t exchanges_to_threshold = 0;  ///< Valid iff reached_threshold.
};

/// Where the two planners' runs have always differed — pinned by the
/// byte-identity tests, so they are facts of a planner, not options.
struct PlannerTraits {
  const char* engine;         ///< Error-message prefix.
  const char* overflow_counter;  ///< Arena overflows (0 by design).
  Checkpoint::Engine checkpoint_kind;
  bool needs_two_machines;   ///< Throw below two machines.
  bool steps_are_exchanges;  ///< stability_check_interval clock (or epochs).
  bool flight_cmax_from_live_loads;  ///< Flight Cmax (or makespan()).
  /// Count the idle epoch (one live machine, churn exhausted) a run ends on.
  bool counts_final_idle_epoch;
};

/// One run of the loop. A planner derives from it and implements the
/// hooks; its engine's run() constructs it and calls run().
class ExchangeLoop {
 public:
  void run();

 protected:
  /// Validates the arguments. A resumed checkpoint must match `seed` when
  /// one is given; `plan_bytes` sizes the planner's share of the arena.
  ExchangeLoop(const PlannerTraits& traits, Schedule& schedule,
               const ExchangeOptions& options,
               const pairwise::PairKernel& kernel, ExchangeReport& report,
               std::optional<std::uint64_t> seed, std::size_t plan_bytes);

  /// Job moves within the whole logical run, resumed part included.
  [[nodiscard]] std::uint64_t run_migrations() const noexcept {
    return schedule_.migrations() + migration_offset_;
  }
  /// Planner obs handles, null when metrics are off.
  [[nodiscard]] obs::Counter* counter(const char* name) const {
    return metrics_ != nullptr ? &metrics_->counter(name) : nullptr;
  }
  [[nodiscard]] obs::Gauge* gauge(const char* name) const {
    return metrics_ != nullptr ? &metrics_->gauge(name) : nullptr;
  }

  // ----- planner hooks -----
  /// Planner state from / into a checkpoint (save fills obs_counters).
  virtual void restore(const Checkpoint& ck) = 0;
  virtual void save(Checkpoint& ck) const = 0;
  virtual void idle_epoch() {}  ///< Fewer than two live machines.
  virtual void begin_epoch(std::uint64_t epoch) = 0;
  /// Runs the epoch's next step and returns Cmax after it; nullopt once
  /// the epoch has no step left.
  virtual std::optional<Cost> step(std::uint64_t epoch) = 0;

  Schedule& schedule_;
  const pairwise::PairKernel& kernel_;
  const ExchangeOptions& options_;
  obs::Metrics* const metrics_;
  obs::Tracer* const tracer_;
  ChurnRuntime churn_;
  /// Epoch plan buffers, sized once from the machine count: ids are stable
  /// under churn, so the loop never allocates (core/arena.hpp).
  core::Arena arena_;
  /// The persistent initiator permutation each epoch reshuffles.
  core::FixedVec<MachineId> order_;

 private:
  void fill_checkpoint(Checkpoint& ck);

  const PlannerTraits& traits_;
  ExchangeReport& report_;
  const std::optional<std::uint64_t> seed_;
  std::uint64_t migration_offset_ = 0;  ///< Modulo 2^64.
};

}  // namespace dlb::dist
