#include "markov/mixing.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "markov/scc.hpp"
#include "stats/rng.hpp"

namespace dlb::markov {

namespace {

constexpr std::size_t kGapMaxIterations = 200'000;
constexpr double kGapTolerance = 1e-10;
constexpr std::size_t kHittingMaxIterations = 1'000'000;
constexpr double kHittingTolerance = 1e-10;

}  // namespace

SpectralGapResult spectral_gap(const TransitionMatrix& matrix,
                               const std::vector<StateIndex>& support) {
  if (support.size() < 2) {
    throw std::invalid_argument("spectral_gap: need >= 2 support states");
  }
  const std::size_t n = matrix.num_states();

  // Left power iteration z <- z P on the sum-zero subspace. sum(zP) =
  // sum(z) for a stochastic P, so projecting the start vector suffices;
  // we re-project each step anyway to fight round-off.
  stats::Rng rng(0xC0FFEE);
  std::vector<double> z(n, 0.0);
  for (StateIndex s : support) z[s] = rng.uniform() - 0.5;

  std::vector<double> next(n, 0.0);
  auto project_and_normalize = [&](std::vector<double>& v) {
    double sum = 0.0;
    for (StateIndex s : support) sum += v[s];
    const double shift = sum / static_cast<double>(support.size());
    double norm = 0.0;
    for (StateIndex s : support) {
      v[s] -= shift;
      norm += v[s] * v[s];
    }
    norm = std::sqrt(norm);
    if (norm > 0.0) {
      for (StateIndex s : support) v[s] /= norm;
    }
    return norm;
  };
  project_and_normalize(z);

  SpectralGapResult result;
  double previous = 0.0;
  for (std::size_t it = 0; it < kGapMaxIterations; ++it) {
    std::fill(next.begin(), next.end(), 0.0);
    for (StateIndex v = 0; v < n; ++v) {
      const double mass = z[v];
      if (mass == 0.0) continue;
      for (std::size_t e = matrix.row_begin[v]; e < matrix.row_begin[v + 1];
           ++e) {
        next[matrix.col[e]] += mass * matrix.prob[e];
      }
    }
    const double norm = project_and_normalize(next);
    z.swap(next);
    result.iterations = it + 1;
    result.lambda2 = norm;
    // The growth factor settles once the subdominant mode dominates. Use a
    // relative change criterion on the estimate.
    if (it > 10 && std::abs(norm - previous) <
                       kGapTolerance * std::max(1.0, norm)) {
      result.converged = true;
      break;
    }
    previous = norm;
  }
  result.gap = 1.0 - result.lambda2;
  return result;
}

double HittingTimeResult::worst(
    const std::vector<StateIndex>& support) const {
  double worst_value = 0.0;
  for (StateIndex s : support) {
    worst_value = std::max(worst_value, expected_steps[s]);
  }
  return worst_value;
}

HittingTimeResult expected_hitting_time(const TransitionMatrix& matrix,
                                        const std::vector<StateIndex>& support,
                                        const std::vector<char>& in_target) {
  if (in_target.size() != matrix.num_states()) {
    throw std::invalid_argument("expected_hitting_time: target size mismatch");
  }
  bool any_target = false;
  for (StateIndex s : support) any_target |= in_target[s] != 0;
  if (!any_target) {
    throw std::invalid_argument(
        "expected_hitting_time: target empty on support");
  }

  HittingTimeResult result;
  result.expected_steps.assign(matrix.num_states(), 0.0);
  // Gauss-Seidel on h = 1 + P h over non-target support states. Self-loops
  // are handled by solving the diagonal term explicitly:
  //   h_s = (1 + sum_{t != s} p_st h_t) / (1 - p_ss).
  for (std::size_t it = 0; it < kHittingMaxIterations; ++it) {
    double max_change = 0.0;
    for (StateIndex s : support) {
      if (in_target[s]) continue;
      double sum = 0.0;
      double self = 0.0;
      for (std::size_t e = matrix.row_begin[s]; e < matrix.row_begin[s + 1];
           ++e) {
        const StateIndex t = matrix.col[e];
        if (t == s) {
          self += matrix.prob[e];
        } else if (!in_target[t]) {
          sum += matrix.prob[e] * result.expected_steps[t];
        }
      }
      const double updated = (1.0 + sum) / (1.0 - self);
      max_change = std::max(max_change,
                            std::abs(updated - result.expected_steps[s]));
      result.expected_steps[s] = updated;
    }
    result.iterations = it + 1;
    if (max_change < kHittingTolerance) {
      result.converged = true;
      break;
    }
  }
  return result;
}

std::vector<double> tv_distance_curve(const TransitionMatrix& matrix,
                                      const std::vector<double>& stationary,
                                      StateIndex start, std::size_t steps) {
  if (stationary.size() != matrix.num_states()) {
    throw std::invalid_argument("tv_distance_curve: stationary size mismatch");
  }
  const std::size_t n = matrix.num_states();
  std::vector<double> distribution(n, 0.0);
  distribution[start] = 1.0;
  std::vector<double> next(n, 0.0);
  std::vector<double> curve;
  curve.reserve(steps);
  for (std::size_t t = 0; t < steps; ++t) {
    std::fill(next.begin(), next.end(), 0.0);
    for (StateIndex v = 0; v < n; ++v) {
      const double mass = distribution[v];
      if (mass == 0.0) continue;
      for (std::size_t e = matrix.row_begin[v]; e < matrix.row_begin[v + 1];
           ++e) {
        next[matrix.col[e]] += mass * matrix.prob[e];
      }
    }
    distribution.swap(next);
    double tv = 0.0;
    for (std::size_t s = 0; s < n; ++s) {
      tv += std::abs(distribution[s] - stationary[s]);
    }
    curve.push_back(0.5 * tv);
  }
  return curve;
}

ConvergenceAnalysis analyze_convergence(int num_machines, Load p_max,
                                        double threshold_factor) {
  const Load total = p_max * num_machines * (num_machines - 1) / 2;
  const StateSpace space = StateSpace::enumerate(num_machines, total);
  const TransitionMatrix matrix = TransitionMatrix::build(space, p_max);
  const SccResult scc = strongly_connected_components(matrix);
  const std::vector<StateIndex> sink = sink_states(matrix, scc);

  ConvergenceAnalysis out;
  const Load floor = (total + num_machines - 1) / num_machines;
  out.threshold = static_cast<Load>(
      std::floor(static_cast<double>(floor) +
                 threshold_factor * static_cast<double>(p_max) + 1e-9));
  std::vector<char> in_target(space.size(), 0);
  for (StateIndex s : sink) {
    if (space.makespan(s) <= out.threshold) {
      in_target[s] = 1;
      ++out.target_size;
    }
  }
  const SpectralGapResult gap = spectral_gap(matrix, sink);
  out.gap = gap.gap;
  out.relaxation_steps = gap.relaxation_time();
  const HittingTimeResult hitting =
      expected_hitting_time(matrix, sink, in_target);
  out.worst_hitting_steps = hitting.worst(sink);
  return out;
}

}  // namespace dlb::markov
