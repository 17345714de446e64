#include "core/risk.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>
#include <vector>

namespace dlb::cost {

Instance risk_adjusted_instance(const Instance& instance, RiskMode mode,
                                double q) {
  const std::size_t n = instance.num_jobs();
  std::vector<double> factor(n, 1.0);
  if (instance.has_cost_model()) {
    const CostModel& model = instance.cost_model();
    for (JobId j = 0; j < n; ++j) {
      factor[j] = mode == RiskMode::kQuantile
                      ? risk_factor(model.dist(j), q)
                      : effective_factor(model.dist(j));
    }
  }
  std::vector<std::vector<Cost>> rows(instance.num_groups(),
                                      std::vector<Cost>(n));
  for (GroupId g = 0; g < instance.num_groups(); ++g) {
    for (JobId j = 0; j < n; ++j) {
      rows[g][j] = instance.group_cost(g, j) * factor[j];
    }
  }
  std::vector<GroupId> group_of(instance.num_machines());
  std::vector<double> scales(instance.num_machines());
  for (MachineId i = 0; i < instance.num_machines(); ++i) {
    group_of[i] = instance.group_of(i);
    scales[i] = instance.scale(i);
  }
  // Factors above 1 can push finite costs past the instance's load bound;
  // say that the surrogate, not the caller's instance, overflowed.
  try {
    Instance adjusted(std::move(rows), std::move(group_of), std::move(scales));
    if (instance.has_job_types()) {
      std::vector<JobTypeId> types(n);
      for (JobId j = 0; j < n; ++j) types[j] = instance.job_type(j);
      adjusted.set_job_types(std::move(types));
    }
    return adjusted;
  } catch (const std::invalid_argument& e) {
    throw std::invalid_argument(
        "risk_adjusted_instance: the risk-scaled surrogate is invalid: " +
        std::string(e.what()));
  }
}

double load_variance(const Schedule& schedule, MachineId i) {
  const Instance& instance = schedule.instance();
  if (!instance.has_cost_model()) return 0.0;
  const CostModel& model = instance.cost_model();
  // Sum in job-id order, NOT jobs_on(i) order: jobs_on is move-history
  // dependent, and these aggregates must be bitwise reproducible across
  // checkpoint/restore and any other path that rebuilds the same
  // assignment in a different order.
  std::vector<JobId> jobs;
  schedule.sorted_jobs_into(i, jobs);
  double variance = 0.0;
  for (const JobId j : jobs) {
    const double p = instance.cost(i, j);
    variance += p * p * dist_variance(model.dist(j));
  }
  return variance;
}

double load_stddev(const Schedule& schedule, MachineId i) {
  return std::sqrt(load_variance(schedule, i));
}

double quantile_load(const Schedule& schedule, MachineId i, double q) {
  return schedule.load(i) + inverse_normal_cdf(q) * load_stddev(schedule, i);
}

double quantile_makespan(const Schedule& schedule, double q) {
  double worst = 0.0;
  for (MachineId i = 0; i < schedule.num_machines(); ++i) {
    worst = std::max(worst, quantile_load(schedule, i, q));
  }
  return worst;
}

double effective_load(const Schedule& schedule, MachineId i) {
  const Instance& instance = schedule.instance();
  if (!instance.has_cost_model()) return schedule.load(i);
  const CostModel& model = instance.cost_model();
  // Additive-margin form, load(i) + sum p_j (factor_j - 1), NOT a
  // recomputed sum of p_j * factor_j: the margin is exactly +0.0 per job
  // under a degenerate distribution (factor is literally 1.0), so the
  // result is bitwise the mean accumulator's load -- the zero-variance
  // anchor for the max-load_effsize selector. Job-id order: see
  // load_variance.
  std::vector<JobId> jobs;
  schedule.sorted_jobs_into(i, jobs);
  double margin = 0.0;
  for (const JobId j : jobs) {
    margin += instance.cost(i, j) * (effective_factor(model.dist(j)) - 1.0);
  }
  return schedule.load(i) + margin;
}

std::vector<double> sample_factors(const CostModel& model, stats::Rng& rng) {
  std::vector<double> factors(model.num_jobs());
  for (double& f : factors) f = rng.uniform();
  for (JobId j = 0; j < model.num_jobs(); ++j) {
    factors[j] = sample_factor(model.dist(j), factors[j]);
  }
  return factors;
}

double realized_makespan(const Schedule& schedule,
                         std::span<const double> factors) {
  const Instance& instance = schedule.instance();
  std::vector<double> loads(schedule.num_machines(), 0.0);
  for (JobId j = 0; j < schedule.num_jobs(); ++j) {  // Job-id order.
    const MachineId i = schedule.machine_of(j);
    if (i == kUnassigned) continue;
    loads[i] += instance.cost(i, j) * factors[j];
  }
  return *std::max_element(loads.begin(), loads.end());
}

}  // namespace dlb::cost
