#include "pairwise/pairwise_optimal.hpp"

#include <gtest/gtest.h>

#include "core/generators.hpp"
#include "dist/convergence.hpp"
#include "pairwise/basic_greedy.hpp"

namespace dlb::pairwise {
namespace {

TEST(PairwiseOptimal, FindsTheExactPairOptimum) {
  // Jobs {3, 3, 2, 2, 2} on two identical machines: optimum is 6.
  const Instance inst = Instance::identical(2, {3.0, 3.0, 2.0, 2.0, 2.0});
  Schedule s(inst, Assignment::all_on(5, 0));
  const PairwiseOptimalKernel kernel;
  EXPECT_TRUE(kernel.balance(s, 0, 1));
  EXPECT_DOUBLE_EQ(s.makespan(), 6.0);
}

TEST(PairwiseOptimal, KeepsCurrentSplitWhenAlreadyOptimal) {
  const Instance inst = Instance::identical(2, {2.0, 2.0});
  Schedule s(inst);
  s.assign(0, 0);
  s.assign(1, 1);
  const PairwiseOptimalKernel kernel;
  EXPECT_FALSE(kernel.balance(s, 0, 1));
  EXPECT_EQ(s.machine_of(0), 0u);
  EXPECT_EQ(s.machine_of(1), 1u);
}

TEST(PairwiseOptimal, NeverWorseThanBasicGreedy) {
  for (std::uint64_t seed = 0; seed < 15; ++seed) {
    const Instance inst = gen::uniform_unrelated(2, 10, 1.0, 10.0, seed);
    Schedule greedy(inst, Assignment::all_on(10, 0));
    Schedule optimal(inst, Assignment::all_on(10, 0));
    BasicGreedyKernel{}.balance(greedy, 0, 1);
    PairwiseOptimalKernel{}.balance(optimal, 0, 1);
    EXPECT_LE(optimal.makespan(), greedy.makespan() + 1e-9);
  }
}

TEST(PairwiseOptimal, RejectsOversizedPools) {
  const Instance inst = Instance::identical(2, std::vector<Cost>(30, 1.0));
  Schedule s(inst, Assignment::all_on(30, 0));
  const PairwiseOptimalKernel kernel(/*max_pool=*/22);
  EXPECT_THROW(kernel.balance(s, 0, 1), std::invalid_argument);
}

TEST(PairwiseOptimal, OptimalPairMakespanMatchesKernelResult) {
  const Instance inst = gen::uniform_unrelated(2, 8, 1.0, 9.0, 50);
  Schedule s(inst, gen::random_assignment(inst, 51));
  std::vector<JobId> pool;
  pooled_jobs_into(s, 0, 1, pool);
  const Cost expected = optimal_pair_makespan(inst, 0, 1, pool);
  PairwiseOptimalKernel{}.balance(s, 0, 1);
  EXPECT_NEAR(std::max(s.load(0), s.load(1)), expected, 1e-9);
}

// ---- Proposition 2: pairwise-optimal balancing is globally unbounded ----

class Table2Sweep : public ::testing::TestWithParam<double> {};

TEST_P(Table2Sweep, TrapIsStableYetNTimesWorseThanOpt) {
  const double n = GetParam();
  const auto trap = gen::table2_pairwise_trap(n);
  Schedule s(trap.instance, trap.initial);
  ASSERT_DOUBLE_EQ(s.makespan(), n);

  // The circled distribution is pairwise-optimal: the exhaustive kernel
  // refuses to change any pair, so the schedule is stable.
  const PairwiseOptimalKernel kernel;
  EXPECT_TRUE(dist::is_stable(s, kernel));
  EXPECT_DOUBLE_EQ(s.makespan(), n);
  // ... while the optimum is 1: the gap n is unbounded in n.
  EXPECT_DOUBLE_EQ(trap.optimal_makespan, 1.0);
}

INSTANTIATE_TEST_SUITE_P(GrowingN, Table2Sweep,
                         ::testing::Values(5.0, 50.0, 500.0, 5000.0));

}  // namespace
}  // namespace dlb::pairwise
