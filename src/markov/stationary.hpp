#pragma once

// Stationary distribution of the lumped chain, computed by power iteration
// — "numerically computed ... using an iterative method", exactly as the
// paper does. The chain restricted to the sink component is irreducible
// (single SCC) and aperiodic (self-loops exist: d can reproduce the current
// split), so the iteration converges to the unique stationary vector.

#include <cstddef>
#include <vector>

#include "markov/transitions.hpp"

namespace dlb::markov {

struct StationaryResult {
  /// Probability per state (0 outside the starting support's closure).
  std::vector<double> pi;
  std::size_t iterations = 0;
  double residual = 0.0;  ///< Final L1 change.
  bool converged = false;
};

/// Power iteration x <- xP starting uniform on `support` (typically the
/// sink states), until the L1 change between successive iterates drops
/// below 1e-12 or 100k iterations. The support must be closed under the
/// chain for the result to be a distribution on it.
[[nodiscard]] StationaryResult stationary_distribution(
    const TransitionMatrix& matrix, const std::vector<StateIndex>& support);

}  // namespace dlb::markov
