#include "centralized/lenstra.hpp"

#include <algorithm>
#include <cstdint>
#include <optional>
#include <stdexcept>

#include "centralized/ect.hpp"
#include "core/lower_bounds.hpp"
#include "lp/simplex.hpp"

namespace dlb::centralized {

namespace {

/// Relative precision of the binary search on tau.
constexpr double kTolerance = 1e-4;
constexpr std::size_t kMaxLpIterations = 200'000;

/// Sparse variable index for the deadline LP at a given tau: one variable
/// per (machine, job) pair with p(i, j) <= tau.
struct DeadlineLp {
  std::vector<std::pair<MachineId, JobId>> vars;
  lp::Problem problem;
};

std::optional<DeadlineLp> build_deadline_lp(const Instance& instance,
                                            Cost tau) {
  DeadlineLp out;
  const std::size_t m = instance.num_machines();
  const std::size_t n = instance.num_jobs();
  std::vector<std::vector<std::size_t>> vars_of_job(n);
  std::vector<std::vector<std::size_t>> vars_of_machine(m);
  for (MachineId i = 0; i < m; ++i) {
    for (JobId j = 0; j < n; ++j) {
      if (instance.cost(i, j) <= tau) {
        vars_of_job[j].push_back(out.vars.size());
        vars_of_machine[i].push_back(out.vars.size());
        out.vars.emplace_back(i, j);
      }
    }
  }
  for (JobId j = 0; j < n; ++j) {
    if (vars_of_job[j].empty()) return std::nullopt;  // tau below min cost
  }
  out.problem.num_vars = out.vars.size();
  out.problem.objective.assign(out.vars.size(), 0.0);  // pure feasibility
  // Assignment constraints: sum_i x_ij = 1.
  for (JobId j = 0; j < n; ++j) {
    lp::Constraint c;
    c.coeffs.assign(out.vars.size(), 0.0);
    for (std::size_t v : vars_of_job[j]) c.coeffs[v] = 1.0;
    c.relation = lp::Relation::kEq;
    c.rhs = 1.0;
    out.problem.constraints.push_back(std::move(c));
  }
  // Load constraints: sum_j p_ij x_ij <= tau.
  for (MachineId i = 0; i < m; ++i) {
    lp::Constraint c;
    c.coeffs.assign(out.vars.size(), 0.0);
    for (std::size_t v : vars_of_machine[i]) {
      c.coeffs[v] = instance.cost(i, out.vars[v].second);
    }
    c.relation = lp::Relation::kLe;
    c.rhs = tau;
    out.problem.constraints.push_back(std::move(c));
  }
  return out;
}

struct FeasibleSolution {
  std::vector<std::pair<MachineId, JobId>> vars;
  std::vector<double> x;
};

std::optional<FeasibleSolution> solve_deadline(const Instance& instance,
                                               Cost tau) {
  auto built = build_deadline_lp(instance, tau);
  if (!built) return std::nullopt;
  const lp::Solution solution = lp::solve(built->problem, kMaxLpIterations);
  if (solution.status != lp::Status::kOptimal) return std::nullopt;
  return FeasibleSolution{std::move(built->vars), solution.x};
}

}  // namespace

Cost lp_lower_bound(const Instance& instance) {
  Cost lo = std::max(max_min_cost_bound(instance), min_work_bound(instance));
  Cost hi = ect_schedule(instance).makespan();
  if (solve_deadline(instance, lo)) return lo;
  // Invariant: lo infeasible, hi feasible.
  while (hi - lo > kTolerance * std::max(1.0, lo)) {
    const Cost mid = 0.5 * (lo + hi);
    if (solve_deadline(instance, mid)) {
      hi = mid;
    } else {
      lo = mid;
    }
  }
  return hi;
}

LenstraResult lenstra_schedule(const Instance& instance) {
  const Cost tau = lp_lower_bound(instance);
  auto feasible = solve_deadline(instance, tau);
  if (!feasible) {
    // Numerical edge: re-solve with a hair of slack.
    feasible = solve_deadline(instance, tau * (1.0 + 1e-9) + 1e-9);
  }
  if (!feasible) {
    throw std::runtime_error("lenstra_schedule: LP resolve failed");
  }

  LenstraResult result{Schedule(instance), tau, true};
  constexpr double kIntegral = 1.0 - 1e-6;
  const std::size_t m = instance.num_machines();
  const std::size_t n = instance.num_jobs();

  // Integral part: x_ij ~ 1 -> commit.
  std::vector<char> placed(n, 0);
  std::vector<std::vector<std::pair<MachineId, double>>> fractional_of(n);
  for (std::size_t v = 0; v < feasible->vars.size(); ++v) {
    const auto [i, j] = feasible->vars[v];
    const double value = feasible->x[v];
    if (value >= kIntegral) {
      result.schedule.assign(j, i);
      placed[j] = 1;
    } else if (value > 1e-6) {
      fractional_of[j].emplace_back(i, value);
    }
  }

  // Fractional part: for a vertex solution the bipartite graph of
  // fractional edges is a pseudoforest, so every fractional job can be
  // matched to a distinct machine. Greedy augmenting-path matching.
  std::vector<JobId> fractional_jobs;
  for (JobId j = 0; j < n; ++j) {
    if (!placed[j]) fractional_jobs.push_back(j);
  }
  std::vector<std::int64_t> machine_match(m, -1);  // machine -> job
  std::vector<std::int64_t> job_match(n, -1);      // job -> machine

  std::vector<char> visited(m, 0);
  auto augment = [&](auto&& self, JobId j) -> bool {
    for (const auto& [i, value] : fractional_of[j]) {
      (void)value;
      if (visited[i]) continue;
      visited[i] = 1;
      if (machine_match[i] < 0 ||
          self(self, static_cast<JobId>(machine_match[i]))) {
        machine_match[i] = j;
        job_match[j] = i;
        return true;
      }
    }
    return false;
  };
  for (JobId j : fractional_jobs) {
    std::fill(visited.begin(), visited.end(), 0);
    if (!augment(augment, j)) result.matched_all = false;
  }

  for (JobId j : fractional_jobs) {
    if (job_match[j] >= 0) {
      result.schedule.assign(j, static_cast<MachineId>(job_match[j]));
      continue;
    }
    // Degenerate fallback: cheapest allowed machine.
    MachineId best = fractional_of[j].empty()
                         ? 0
                         : fractional_of[j].front().first;
    for (const auto& [i, value] : fractional_of[j]) {
      (void)value;
      if (instance.cost(i, j) < instance.cost(best, j)) best = i;
    }
    result.schedule.assign(j, best);
  }
  return result;
}

}  // namespace dlb::centralized
