#include "core/assignment.hpp"
#include "core/schedule.hpp"
#include "core/validation.hpp"

#include <gtest/gtest.h>

#include <cstring>

#include "core/generators.hpp"
#include "core/numa.hpp"
#include "stats/rng.hpp"

namespace dlb {
namespace {

TEST(Assignment, StartsUnassigned) {
  Assignment a(3);
  EXPECT_EQ(a.num_jobs(), 3u);
  EXPECT_FALSE(a.is_complete());
  for (JobId j = 0; j < 3; ++j) {
    EXPECT_EQ(a.machine_of(j), kUnassigned);
    EXPECT_FALSE(a.is_assigned(j));
  }
}

TEST(Assignment, AssignUnassignRoundTrip) {
  Assignment a(2);
  a.assign(0, 1);
  EXPECT_TRUE(a.is_assigned(0));
  EXPECT_EQ(a.machine_of(0), 1u);
  a.unassign(0);
  EXPECT_FALSE(a.is_assigned(0));
}

TEST(Assignment, RoundRobinCoversAllMachines) {
  const Assignment a = Assignment::round_robin(7, 3);
  EXPECT_TRUE(a.is_complete());
  EXPECT_EQ(a.machine_of(0), 0u);
  EXPECT_EQ(a.machine_of(3), 0u);
  EXPECT_EQ(a.machine_of(5), 2u);
  EXPECT_EQ(a.jobs_of(0).size(), 3u);
  EXPECT_EQ(a.jobs_of(1).size(), 2u);
}

TEST(Assignment, AllOnPilesEverything) {
  const Assignment a = Assignment::all_on(4, 2);
  EXPECT_EQ(a.jobs_of(2).size(), 4u);
  EXPECT_TRUE(a.jobs_of(0).empty());
}

TEST(Assignment, EqualityIsStructural) {
  Assignment a = Assignment::round_robin(4, 2);
  Assignment b = Assignment::round_robin(4, 2);
  EXPECT_EQ(a, b);
  b.assign(0, 1);
  EXPECT_NE(a, b);
}

class ScheduleTest : public ::testing::Test {
 protected:
  // 2 machines, 3 jobs, unrelated.
  Instance inst_ = Instance::unrelated({{1.0, 2.0, 3.0}, {4.0, 5.0, 6.0}});
};

TEST_F(ScheduleTest, EmptyScheduleHasZeroLoads) {
  Schedule s(inst_);
  EXPECT_DOUBLE_EQ(s.load(0), 0.0);
  EXPECT_DOUBLE_EQ(s.load(1), 0.0);
  EXPECT_DOUBLE_EQ(s.makespan(), 0.0);
}

TEST_F(ScheduleTest, AssignUpdatesLoadAndMakespan) {
  Schedule s(inst_);
  s.assign(0, 0);
  s.assign(1, 1);
  EXPECT_DOUBLE_EQ(s.load(0), 1.0);
  EXPECT_DOUBLE_EQ(s.load(1), 5.0);
  EXPECT_DOUBLE_EQ(s.makespan(), 5.0);
  EXPECT_EQ(s.argmax_load(), 1u);
}

TEST_F(ScheduleTest, MoveTransfersLoad) {
  Schedule s(inst_, Assignment::all_on(3, 0));
  EXPECT_DOUBLE_EQ(s.load(0), 6.0);
  s.move(2, 1);
  EXPECT_DOUBLE_EQ(s.load(0), 3.0);
  EXPECT_DOUBLE_EQ(s.load(1), 6.0);
  EXPECT_EQ(s.machine_of(2), 1u);
  EXPECT_TRUE(s.check_consistency());
}

TEST_F(ScheduleTest, MoveToSameMachineIsNoop) {
  Schedule s(inst_, Assignment::all_on(3, 0));
  const Cost before = s.load(0);
  s.move(1, 0);
  EXPECT_DOUBLE_EQ(s.load(0), before);
  EXPECT_TRUE(s.check_consistency());
}

TEST_F(ScheduleTest, UnassignRemovesLoad) {
  Schedule s(inst_, Assignment::all_on(3, 1));
  s.unassign(0);
  EXPECT_DOUBLE_EQ(s.load(1), 11.0);
  EXPECT_EQ(s.machine_of(0), kUnassigned);
  EXPECT_TRUE(s.check_consistency());
}

TEST_F(ScheduleTest, DoubleAssignThrows) {
  Schedule s(inst_);
  s.assign(0, 0);
  EXPECT_THROW(s.assign(0, 1), std::logic_error);
}

TEST_F(ScheduleTest, JobsOnTracksMembership) {
  Schedule s(inst_, Assignment::round_robin(3, 2));
  EXPECT_EQ(s.jobs_on(0).size(), 2u);
  EXPECT_EQ(s.jobs_on(1).size(), 1u);
  s.move(0, 1);
  EXPECT_EQ(s.jobs_on(0).size(), 1u);
  EXPECT_EQ(s.jobs_on(1).size(), 2u);
}

TEST_F(ScheduleTest, FingerprintDetectsChanges) {
  Schedule s1(inst_, Assignment::round_robin(3, 2));
  Schedule s2(inst_, Assignment::round_robin(3, 2));
  EXPECT_EQ(s1.fingerprint(), s2.fingerprint());
  s2.move(0, 1);
  EXPECT_NE(s1.fingerprint(), s2.fingerprint());
  s2.move(0, 0);  // back to the original assignment
  EXPECT_EQ(s1.fingerprint(), s2.fingerprint());
}

TEST_F(ScheduleTest, MigrationsCountOnlyEffectiveMoves) {
  Schedule s(inst_, Assignment::all_on(3, 0));
  EXPECT_EQ(s.migrations(), 0u);
  s.move(0, 0);  // no-op
  EXPECT_EQ(s.migrations(), 0u);
  s.move(0, 1);
  EXPECT_EQ(s.migrations(), 1u);
  s.move(0, 0);
  EXPECT_EQ(s.migrations(), 2u);
  s.unassign(1);           // not a migration
  s.move(1, 1);            // assignment of an unassigned job: not a migration
  EXPECT_EQ(s.migrations(), 2u);
}

TEST_F(ScheduleTest, TotalLoadSumsMachines) {
  Schedule s(inst_, Assignment::round_robin(3, 2));
  EXPECT_DOUBLE_EQ(s.total_load(), s.load(0) + s.load(1));
}

TEST_F(ScheduleTest, RejectsMismatchedAssignment) {
  EXPECT_THROW(Schedule(inst_, Assignment(5)), std::invalid_argument);
  Assignment bad(3);
  bad.assign(0, 9);  // machine out of range
  EXPECT_THROW(Schedule(inst_, bad), std::invalid_argument);
}

TEST_F(ScheduleTest, ValidationHelpers) {
  Schedule complete(inst_, Assignment::all_on(3, 0));
  EXPECT_NO_THROW(validate_complete(complete));
  EXPECT_TRUE(is_complete_partition(complete));

  Schedule partial(inst_);
  std::string why;
  EXPECT_FALSE(is_complete_partition(partial, &why));
  EXPECT_FALSE(why.empty());
  EXPECT_THROW(validate_complete(partial), std::runtime_error);
}

TEST_F(ScheduleTest, ApproximationFactor) {
  Schedule s(inst_, Assignment::all_on(3, 0));
  EXPECT_DOUBLE_EQ(approximation_factor(s, 3.0), 2.0);
  EXPECT_THROW((void)approximation_factor(s, 0.0), std::invalid_argument);
}

TEST(ScheduleProperty, RandomMoveSequencePreservesConsistency) {
  const Instance inst =
      gen::uniform_unrelated(5, 20, 1.0, 100.0, /*seed=*/77);
  Schedule s(inst, gen::random_assignment(inst, 78));
  stats::Rng rng(79);
  for (int step = 0; step < 500; ++step) {
    const auto j = static_cast<JobId>(rng.below(inst.num_jobs()));
    const auto to = static_cast<MachineId>(rng.below(inst.num_machines()));
    s.move(j, to);
  }
  EXPECT_TRUE(s.check_consistency());
  // Makespan equals the max recomputed load.
  Cost max_load = 0.0;
  for (MachineId i = 0; i < inst.num_machines(); ++i) {
    max_load = std::max(max_load, s.load(i));
  }
  EXPECT_DOUBLE_EQ(s.makespan(), max_load);
}

TEST(Numa, ShardedFirstTouchZeroFillsEveryByte) {
  // Five pages and a partial sixth over four shards: two pages per shard,
  // the third shard ends mid-page and the fourth has nothing to fill.
  constexpr std::size_t kBytes = 5 * core::numa::kPageSize + 123;
  constexpr std::size_t kGuard = 64;
  const core::numa::Slab slab = core::numa::alloc_slab(kBytes + kGuard);
  std::memset(slab.get(), 0xAB, kBytes + kGuard);
  core::numa::first_touch(slab.get(), kBytes, 4);
  for (std::size_t k = 0; k < kBytes; ++k) {
    ASSERT_EQ(slab[k], std::byte{0}) << "byte " << k;
  }
  for (std::size_t k = kBytes; k < kBytes + kGuard; ++k) {
    ASSERT_EQ(slab[k], std::byte{0xAB}) << "guard byte " << k;
  }
}

}  // namespace
}  // namespace dlb
