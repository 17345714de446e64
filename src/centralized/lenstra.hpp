#pragma once

// The paper's centralized reference [20]: Lenstra, Shmoys & Tardos's
// deadline LP for R||Cmax.
//
//   feasible(tau):  exists x >= 0 with
//       sum_i x_ij = 1                 for every job j,
//       sum_j p_ij x_ij <= tau         for every machine i,
//       x_ij = 0 whenever p_ij > tau.
//
// Binary search on tau over feasibility gives a lower bound on OPT that is
// usually far tighter than the combinatorial bounds, and rounding a vertex
// solution at the smallest feasible tau gives a schedule of makespan
// <= 2 tau <= 2 OPT (each machine receives at most one extra fractional
// job, each of cost <= tau).
//
// Dense simplex underneath: intended for small/medium instances
// (m x n up to a few thousand LP variables).

#include "core/schedule.hpp"

namespace dlb::centralized {

/// The deadline-LP lower bound on OPT: the smallest feasible tau, to a
/// relative precision of 1e-4.
[[nodiscard]] Cost lp_lower_bound(const Instance& instance);

struct LenstraResult {
  Schedule schedule;      ///< Rounded schedule (complete).
  Cost tau = 0.0;         ///< Smallest feasible deadline found (LB on OPT).
  bool matched_all = true;  ///< Fractional jobs all placed via matching.
};

/// Full Lenstra-Shmoys-Tardos pipeline: binary search, vertex LP solution,
/// forest matching of fractional jobs. The result satisfies
/// makespan <= 2 * tau whenever `matched_all` (always observed for vertex
/// solutions; a greedy fallback covers degenerate cases).
[[nodiscard]] LenstraResult lenstra_schedule(const Instance& instance);

}  // namespace dlb::centralized
