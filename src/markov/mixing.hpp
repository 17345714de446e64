#pragma once

// Convergence-speed analysis of the Section VII-A chain, beyond the paper:
//   * the spectral gap 1 - |lambda_2| of the chain restricted to its sink
//     component (the asymptotic rate at which the makespan distribution
//     approaches Figure 2's stationary pdf), and
//   * expected hitting times of a "good" set of states (e.g. makespan
//     within 1.5 p_max of the floor) — the Markov-theory counterpart of
//     Figure 5's "exchanges per machine until 1.5 cent".
//
// One time step of the chain is one pairwise exchange; dividing by m gives
// the per-machine scale the paper plots.

#include <vector>

#include "markov/state_space.hpp"
#include "markov/transitions.hpp"

namespace dlb::markov {

struct SpectralGapResult {
  double lambda2 = 0.0;  ///< |subdominant eigenvalue| estimate.
  double gap = 0.0;      ///< 1 - lambda2.
  std::size_t iterations = 0;
  bool converged = false;

  /// Steps for the distance to stationarity to shrink by 1/e.
  [[nodiscard]] double relaxation_time() const { return 1.0 / gap; }
};

/// Power iteration on the sum-zero subspace (the dominant eigenvalue 1 has
/// right eigenvector 1, so deflation is projection onto sum(z) = 0).
/// Stops when the estimate's relative change drops below 1e-10 or after
/// 200k iterations. `support` must be a closed communicating class (the
/// sink component).
[[nodiscard]] SpectralGapResult spectral_gap(
    const TransitionMatrix& matrix, const std::vector<StateIndex>& support);

struct HittingTimeResult {
  /// h[s] = expected steps from s to the target set (0 inside it); only
  /// meaningful on states from which the target is reachable.
  std::vector<double> expected_steps;
  std::size_t iterations = 0;
  bool converged = false;

  /// Largest finite expected hitting time over `support`.
  [[nodiscard]] double worst(const std::vector<StateIndex>& support) const;
};

/// Solves h = 1 + P h on the complement of `target` (Gauss-Seidel),
/// restricted to `support`, until no entry moves by 1e-10 or after 1M
/// sweeps. Every state of `support` must reach `target` with probability 1
/// (true when support is the sink component and target is non-empty
/// inside it).
[[nodiscard]] HittingTimeResult expected_hitting_time(
    const TransitionMatrix& matrix, const std::vector<StateIndex>& support,
    const std::vector<char>& in_target);

/// Total-variation distance to the stationary distribution after each of
/// `steps` chain steps, starting from the point mass on `start`. This is
/// the exact "how converged is the system after t exchanges" curve that
/// Figures 4/5 estimate by simulation.
[[nodiscard]] std::vector<double> tv_distance_curve(
    const TransitionMatrix& matrix, const std::vector<double>& stationary,
    StateIndex start, std::size_t steps);

/// Convenience: expected exchanges (chain steps) from the perfectly
/// balanced state's component until the makespan first drops to
/// `threshold` or below, maximised over sink states; plus the spectral gap.
struct ConvergenceAnalysis {
  double gap = 0.0;
  double relaxation_steps = 0.0;        ///< 1 / gap, in exchanges.
  double worst_hitting_steps = 0.0;     ///< to {Cmax <= threshold}.
  Load threshold = 0;
  std::size_t target_size = 0;
};

[[nodiscard]] ConvergenceAnalysis analyze_convergence(int num_machines,
                                                      Load p_max,
                                                      double threshold_factor);

}  // namespace dlb::markov
