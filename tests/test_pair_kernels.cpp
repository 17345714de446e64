// Tests for the two-cluster pair kernels: Greedy Load Balancing
// (Algorithm 6) and pair CLB2C (Algorithm 5 on {m}, {i}).

#include "pairwise/greedy_pair_balance.hpp"
#include "pairwise/pair_clb2c.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <numeric>

#include "core/generators.hpp"
#include "pairwise/pairwise_optimal.hpp"

namespace dlb::pairwise {
namespace {

Instance small_two_cluster(std::uint64_t seed, std::size_t jobs = 10) {
  return gen::two_cluster_uniform(2, 2, jobs, 1.0, 10.0, seed);
}

TEST(SortByGroupRatio, OrdersByRatio) {
  // Ratios p0/p1: job0 = 0.1, job1 = 10, job2 = 1.
  const Instance inst =
      Instance::clustered({1, 1}, {{1.0, 10.0, 5.0}, {10.0, 1.0, 5.0}});
  std::vector<JobId> pool = {0, 1, 2};
  sort_by_group_ratio(inst, 0, 1, pool);
  EXPECT_EQ(pool, (std::vector<JobId>{0, 2, 1}));
  sort_by_group_ratio(inst, 1, 0, pool);
  EXPECT_EQ(pool, (std::vector<JobId>{1, 2, 0}));
}

TEST(SortByGroupRatio, TieBreaksByJobId) {
  const Instance inst =
      Instance::clustered({1, 1}, {{2.0, 2.0, 2.0}, {3.0, 3.0, 3.0}});
  std::vector<JobId> pool = {2, 0, 1};
  sort_by_group_ratio(inst, 0, 1, pool);
  EXPECT_EQ(pool, (std::vector<JobId>{0, 1, 2}));
}

TEST(GreedyPairBalance, BalancesIdenticalPairEvenly) {
  const Instance inst = Instance::clustered(
      {2, 1}, {{2.0, 2.0, 2.0, 2.0}, {9.0, 9.0, 9.0, 9.0}});
  Schedule s(inst, Assignment::all_on(4, 0));
  const GreedyPairBalanceKernel kernel;
  EXPECT_TRUE(kernel.balance(s, 0, 1));
  EXPECT_DOUBLE_EQ(s.load(0), 4.0);
  EXPECT_DOUBLE_EQ(s.load(1), 4.0);
}

TEST(GreedyPairBalance, LoadsDifferByAtMostOneJob) {
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    const Instance inst = small_two_cluster(seed, 15);
    Schedule s(inst, Assignment::all_on(15, 0));
    const GreedyPairBalanceKernel kernel;
    kernel.balance(s, 0, 1);
    // Greedy dealing keeps |C(a) - C(b)| below the largest pooled job.
    EXPECT_LE(std::abs(s.load(0) - s.load(1)), inst.max_cost() + 1e-9);
  }
}

TEST(GreedyPairBalance, RejectsCrossClusterPair) {
  const Instance inst = small_two_cluster(1);
  Schedule s(inst, gen::random_assignment(inst, 2));
  const GreedyPairBalanceKernel kernel;
  EXPECT_THROW(kernel.balance(s, 0, 2), std::invalid_argument);
}

TEST(GreedyPairBalance, RejectsNonTwoClusterInstance) {
  const Instance inst = Instance::identical(3, {1.0, 2.0});
  Schedule s(inst, Assignment::all_on(2, 0));
  const GreedyPairBalanceKernel kernel;
  EXPECT_THROW(kernel.balance(s, 0, 1), std::invalid_argument);
}

TEST(GreedyPairBalance, IsIdempotentPerPair) {
  const Instance inst = small_two_cluster(3, 12);
  Schedule s(inst, gen::random_assignment(inst, 4));
  const GreedyPairBalanceKernel kernel;
  kernel.balance(s, 2, 3);  // machines 2,3 are cluster 2
  EXPECT_FALSE(kernel.balance(s, 2, 3));
}

TEST(PairClb2c, SpecialisedJobsGoHome) {
  // Job 0 loves cluster 1, job 1 loves cluster 2.
  const Instance inst =
      Instance::clustered({1, 1}, {{1.0, 9.0}, {9.0, 1.0}});
  Schedule s(inst, Assignment::all_on(2, 0));
  const PairClb2cKernel kernel;
  kernel.balance(s, 0, 1);
  EXPECT_EQ(s.machine_of(0), 0u);
  EXPECT_EQ(s.machine_of(1), 1u);
  EXPECT_DOUBLE_EQ(s.makespan(), 1.0);
}

TEST(PairClb2c, RolesFollowClustersNotArgumentOrder) {
  const Instance inst =
      Instance::clustered({1, 1}, {{1.0, 9.0}, {9.0, 1.0}});
  // Initiate from the cluster-2 machine: same final placement.
  Schedule s(inst, Assignment::all_on(2, 1));
  const PairClb2cKernel kernel;
  kernel.balance(s, 1, 0);
  EXPECT_EQ(s.machine_of(0), 0u);
  EXPECT_EQ(s.machine_of(1), 1u);
}

TEST(PairClb2c, RejectsSameClusterPair) {
  const Instance inst = small_two_cluster(5);
  Schedule s(inst, gen::random_assignment(inst, 6));
  const PairClb2cKernel kernel;
  EXPECT_THROW(kernel.balance(s, 0, 1), std::invalid_argument);
}

TEST(PairClb2c, IsIdempotentPerPair) {
  const Instance inst = small_two_cluster(7, 14);
  Schedule s(inst, gen::random_assignment(inst, 8));
  const PairClb2cKernel kernel;
  kernel.balance(s, 1, 2);
  EXPECT_FALSE(kernel.balance(s, 1, 2));
}

TEST(PairClb2c, PairMakespanWithin2xOfPairOptimal) {
  // Theorem 6 restricted to a pair: CLB2C's split is a 2-approximation of
  // the exhaustive pair optimum whenever job costs don't dominate.
  for (std::uint64_t seed = 0; seed < 15; ++seed) {
    const Instance inst = gen::two_cluster_uniform(1, 1, 12, 1.0, 5.0, seed);
    Schedule s(inst, Assignment::all_on(12, 0));
    const PairClb2cKernel kernel;
    kernel.balance(s, 0, 1);
    std::vector<JobId> pool(12);
    std::iota(pool.begin(), pool.end(), 0);
    const Cost optimal = optimal_pair_makespan(inst, 0, 1, pool);
    const Cost reference = std::max(optimal, inst.max_cost());
    EXPECT_LE(s.makespan(), 2.0 * reference + 1e-9) << "seed=" << seed;
  }
}

TEST(PairClb2cSplit, SplitsFromEmptyLoads) {
  // Both first picks complete at 3: the tie goes to machine a, and the
  // split ignores where the jobs started.
  const Instance inst =
      Instance::clustered({1, 1}, {{3.0, 4.0}, {4.0, 3.0}});
  Schedule s(inst, Assignment::all_on(2, 1));
  EXPECT_TRUE(PairClb2cKernel().balance(s, 0, 1));
  EXPECT_EQ(s.machine_of(0), 0u);
  EXPECT_EQ(s.machine_of(1), 1u);
  EXPECT_DOUBLE_EQ(s.makespan(), 3.0);
}

}  // namespace
}  // namespace dlb::pairwise
