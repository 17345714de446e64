#pragma once

// Schedule-level evaluation of the stochastic cost model: risk-adjusted
// surrogate instances (what risk-aware kernels balance on), normal-
// approximation quantile loads (the oracle value the quantile-monotonicity
// check reasons about), and paired realization sampling (the empirical
// ground truth of the realization-consistency check). See
// docs/stochastic.md for the definitions and their guarantees.

#include <span>
#include <vector>

#include "core/cost_model.hpp"
#include "core/instance.hpp"
#include "core/schedule.hpp"
#include "core/types.hpp"
#include "stats/rng.hpp"

namespace dlb::cost {

/// How a risk-aware kernel/selector inflates the predicted costs.
enum class RiskMode {
  kQuantile,       ///< p'(i,j) = p(i,j) * risk_factor(dist_j, q)
  kEffectiveSize,  ///< p'(i,j) = p(i,j) * effective_factor(dist_j)
};

/// The registry-suffix quantile of the `*_q95` kernel/selector family.
inline constexpr double kRiskQuantile = 0.95;

/// Builds the surrogate instance a risk-aware kernel reasons about: every
/// cost column j is scaled by the job's (mean-normalised) risk factor.
/// Groups, scales and job types are preserved; the surrogate carries no
/// cost model of its own. Without a model (or with an all-degenerate one)
/// every factor is exactly 1.0, so the surrogate costs are bitwise equal
/// to the original's. Throws std::invalid_argument ("risk_adjusted_instance:
/// ...") when the scaled costs fail Instance's checks (a load overflow).
[[nodiscard]] Instance risk_adjusted_instance(const Instance& instance,
                                              RiskMode mode,
                                              double q = kRiskQuantile);

/// Variance of machine i's completion time under the model: sum over
/// resident jobs of p(i,j)^2 * Var[F_j]. Exactly 0.0 without a model or
/// with only point masses.
[[nodiscard]] double load_variance(const Schedule& schedule, MachineId i);
[[nodiscard]] double load_stddev(const Schedule& schedule, MachineId i);

/// Normal-approximation q-quantile of machine i's completion time:
/// load(i) + z_q * stddev(i). Bitwise equal to load(i) when the variance
/// is zero (z_q is finite and z_0.5 is exactly 0).
[[nodiscard]] double quantile_load(const Schedule& schedule, MachineId i,
                                   double q);

/// max_i quantile_load(i, q) -- monotone non-decreasing in q, and equal to
/// makespan() at q = 0.5 or under zero variance (the two theorems the
/// quantile-monotonicity oracle checks).
[[nodiscard]] double quantile_makespan(const Schedule& schedule, double q);

/// Effective completion time of machine i, load(i) plus the per-job
/// effective-size margins sum p(i,j) * (eff_factor(j) - 1) -- bitwise
/// equal to load(i) when every resident job is degenerate.
[[nodiscard]] double effective_load(const Schedule& schedule, MachineId i);

/// One size-factor realization: exactly one uniform draw per job (even for
/// jobs with point masses), so two schedules of the same instance can be
/// compared under identical realizations.
[[nodiscard]] std::vector<double> sample_factors(const CostModel& model,
                                                 stats::Rng& rng);

/// Cmax of the schedule under realized sizes p(i,j) * factors[j].
[[nodiscard]] double realized_makespan(const Schedule& schedule,
                                       std::span<const double> factors);

}  // namespace dlb::cost
