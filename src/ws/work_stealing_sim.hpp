#pragma once

// Discrete-event simulation of Work Stealing (Algorithm 1) on arbitrary
// (possibly fully heterogeneous) machines. Each machine executes its local
// queue; when it idles it contacts a random victim and steals half of the
// victim's *pending* (non-running) jobs. Theorem 1: with an adversarial
// initial distribution the first steal can only happen after time n, so the
// makespan is unbounded relative to OPT — bench/table1 reproduces this.

#include <cstdint>
#include <limits>
#include <vector>

#include "core/assignment.hpp"
#include "core/instance.hpp"
#include "des/engine.hpp"
#include "dist/run_report.hpp"
#include "stats/rng.hpp"

namespace dlb::ws {

/// How many pending jobs a successful steal takes.
enum class StealAmount {
  kHalf,  ///< Algorithm 1: half of the victim's non-executed jobs.
  kOne,   ///< A single job (the "steal-one" variant).
};

/// How the thief picks its victim.
enum class VictimPolicy {
  kUniform,     ///< Algorithm 1: a uniformly random other machine.
  kMaxPending,  ///< Oracle ablation: the machine with the most pending jobs.
};

struct WsOptions {
  StealAmount steal_amount = StealAmount::kHalf;
  VictimPolicy victim_policy = VictimPolicy::kUniform;
  /// Time between a steal decision and the jobs arriving at the thief.
  des::SimTime steal_latency = 0.0;
  /// Back-off before an idle machine retries after finding an empty victim;
  /// must be > 0 (a zero delay could livelock simulated time).
  des::SimTime retry_delay = 0.01;
  std::uint64_t seed = 1;
};

/// Shared fields live on the RunReport base with this mapping:
///   * initial_makespan — the no-steal completion time of the initial
///     distribution (each machine runs only its own jobs);
///   * final_makespan / best_makespan — the simulated completion time
///     (when the last job finished);
///   * exchanges — steal attempts (the pairwise interactions);
///   * migrations — jobs actually stolen;
///   * converged — all jobs finished within the 50M-event safety cap.
struct WsResult : dist::RunReport {
  std::uint64_t successful_steals = 0;
  /// Time of the first steal attempt / first successful steal
  /// (infinity when none happened).
  des::SimTime first_steal_attempt =
      std::numeric_limits<des::SimTime>::infinity();
  des::SimTime first_successful_steal =
      std::numeric_limits<des::SimTime>::infinity();
  /// Completion time of each machine's last executed job.
  std::vector<des::SimTime> machine_finish;
};

/// Simulates work stealing from `initial` (must assign every job).
[[nodiscard]] WsResult simulate_work_stealing(const Instance& instance,
                                              const Assignment& initial,
                                              const WsOptions& options = {});

}  // namespace dlb::ws
