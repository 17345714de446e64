#pragma once

// Stability and convergence analysis (Section VII):
//   * sweep_all_pairs / is_stable — is any pairwise exchange still able to
//     change the schedule? (Theorem 7 applies exactly when none can.)
//   * explore_reachable — exhaustive closure of a small instance under all
//     pair operations; certifies Proposition 8 ("DLB2C does not converge")
//     when no stable state is reachable from the initial distribution.
//   * find_nonconvergent_case — seeded search for such a witness.

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <limits>
#include <optional>
#include <vector>

#include "core/assignment.hpp"
#include "core/schedule.hpp"
#include "obs/flight_recorder.hpp"
#include "pairwise/pair_kernel.hpp"

namespace dlb::dist {

/// Applies the kernel to every ordered pair (a, b), a != b, in a fixed
/// deterministic order; returns how many applications changed the schedule.
/// A return of 0 certifies the schedule is stable under the kernel.
std::size_t sweep_all_pairs(Schedule& schedule,
                            const pairwise::PairKernel& kernel);

/// Non-mutating stability check (sweeps a copy).
[[nodiscard]] bool is_stable(const Schedule& schedule,
                             const pairwise::PairKernel& kernel);

/// A flight-recorder sample of the load shape over `machines` (a range of
/// machine ids): Cmax — their largest load unless `cmax` is given —, the
/// imbalance against their least load, and the deepest queue. The caller
/// stamps the round and its own tallies.
template <typename Machines>
[[nodiscard]] obs::FlightSample load_sample(
    const Schedule& schedule, Machines&& machines,
    std::optional<Cost> cmax = std::nullopt) {
  Cost max_load = 0.0;
  Cost cmin = std::numeric_limits<Cost>::infinity();
  std::size_t queue_max = 0;
  for (const MachineId machine : machines) {
    const Cost load = schedule.load(machine);
    max_load = std::max(max_load, load);
    cmin = std::min(cmin, load);
    queue_max = std::max(queue_max, schedule.jobs_on(machine).size());
  }
  obs::FlightSample sample;
  sample.cmax = cmax.value_or(max_load);
  if (!std::isfinite(cmin)) cmin = sample.cmax;  // no machines
  sample.imbalance = sample.cmax - cmin;
  sample.queue_max = queue_max;
  return sample;
}

/// Live-set restricted variants for elastic runs (src/dist/churn): only
/// ordered pairs drawn from `machines` are swept, so dead machines —
/// which can neither give nor receive jobs — do not veto stability.
std::size_t sweep_all_pairs(Schedule& schedule,
                            const pairwise::PairKernel& kernel,
                            const std::vector<MachineId>& machines);
[[nodiscard]] bool is_stable(const Schedule& schedule,
                             const pairwise::PairKernel& kernel,
                             const std::vector<MachineId>& machines);

/// Runs deterministic sweeps until a sweep makes no change or `max_sweeps`
/// is hit. Returns true iff a stable state was reached.
bool run_to_stability(Schedule& schedule, const pairwise::PairKernel& kernel,
                      std::size_t max_sweeps);

struct ReachabilityResult {
  /// The closure was fully enumerated within `max_states`.
  bool exhausted = false;
  /// Some reachable state is stable (every pair application is a no-op).
  bool found_stable = false;
  std::size_t states_explored = 0;
  /// exhausted && !found_stable: the algorithm can never converge from the
  /// start state — a constructive Proposition 8 witness.
  [[nodiscard]] bool certified_nonconvergent() const {
    return exhausted && !found_stable;
  }
};

/// Breadth-first closure of `start` under every ordered-pair kernel
/// application. Exponential in principle; meant for tiny instances
/// (<= ~6 machines, ~8 jobs).
[[nodiscard]] ReachabilityResult explore_reachable(
    const Instance& instance, const Assignment& start,
    const pairwise::PairKernel& kernel, std::size_t max_states);

/// A certified non-convergence witness: from `initial`, no stable state is
/// reachable under the kernel.
struct NonconvergentCase {
  Instance instance;
  Assignment initial;
  std::size_t closure_size = 0;
};

/// Seeded search over small random two-cluster instances (m1 + m2 machines,
/// `jobs` jobs, integer costs in [1, cost_hi]) and random initial
/// distributions for a Proposition 8 witness under `kernel`. Returns the
/// first certified case, or nullopt if `attempts` seeds all converge.
[[nodiscard]] std::optional<NonconvergentCase> find_nonconvergent_case(
    const pairwise::PairKernel& kernel, std::size_t m1, std::size_t m2,
    std::size_t jobs, int cost_hi, std::size_t attempts, std::uint64_t seed,
    std::size_t max_states = 20'000);

}  // namespace dlb::dist
