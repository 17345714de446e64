#include "markov/stationary.hpp"

#include <cmath>
#include <stdexcept>

namespace dlb::markov {

namespace {

constexpr std::size_t kMaxIterations = 100'000;
/// Stop when the L1 change between successive iterates drops below this.
constexpr double kTolerance = 1e-12;

}  // namespace

StationaryResult stationary_distribution(
    const TransitionMatrix& matrix, const std::vector<StateIndex>& support) {
  if (support.empty()) {
    throw std::invalid_argument("stationary_distribution: empty support");
  }
  const std::size_t n = matrix.num_states();
  StationaryResult result;
  result.pi.assign(n, 0.0);
  for (StateIndex s : support) {
    result.pi[s] = 1.0 / static_cast<double>(support.size());
  }

  std::vector<double> next(n, 0.0);
  for (std::size_t it = 0; it < kMaxIterations; ++it) {
    std::fill(next.begin(), next.end(), 0.0);
    for (StateIndex v = 0; v < n; ++v) {
      const double mass = result.pi[v];
      if (mass == 0.0) continue;
      for (std::size_t e = matrix.row_begin[v]; e < matrix.row_begin[v + 1];
           ++e) {
        next[matrix.col[e]] += mass * matrix.prob[e];
      }
    }
    double diff = 0.0;
    for (std::size_t s = 0; s < n; ++s) {
      diff += std::abs(next[s] - result.pi[s]);
    }
    result.pi.swap(next);
    result.iterations = it + 1;
    result.residual = diff;
    if (diff < kTolerance) {
      result.converged = true;
      break;
    }
  }
  return result;
}

}  // namespace dlb::markov
