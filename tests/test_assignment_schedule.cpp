#include "core/assignment.hpp"
#include "core/schedule.hpp"
#include "core/validation.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <numeric>
#include <vector>

#include "core/generators.hpp"
#include "core/winner_tree.hpp"
#include "parallel/thread_pool.hpp"
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
  EXPECT_EQ(std::count(a.raw().begin(), a.raw().end(), 0u), 3);
  EXPECT_EQ(std::count(a.raw().begin(), a.raw().end(), 1u), 2);
}

TEST(Assignment, AllOnPilesEverything) {
  const Assignment a = Assignment::all_on(4, 2);
  EXPECT_EQ(std::count(a.raw().begin(), a.raw().end(), 2u), 4);
  EXPECT_EQ(std::count(a.raw().begin(), a.raw().end(), 0u), 0);
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

// makespan() and argmax_load() against a from-scratch std::max_element:
// the same machine and the same load bits (a -0.0 first beats a later
// 0.0).
void expect_scan_pick(const Schedule& s) {
  std::vector<Cost> loads(s.num_machines());
  for (MachineId i = 0; i < loads.size(); ++i) loads[i] = s.load(i);
  const auto it = std::max_element(loads.begin(), loads.end());
  ASSERT_EQ(s.argmax_load(), static_cast<MachineId>(it - loads.begin()));
  ASSERT_EQ(std::bit_cast<std::uint64_t>(s.makespan()),
            std::bit_cast<std::uint64_t>(*it));
}

// sorted_jobs_into against the list view sorted from scratch, on every
// machine; the reused buffer starts dirty to prove it is overwritten.
void expect_sorted_gather(const Schedule& s) {
  std::vector<JobId> gathered = {kUnassigned};
  for (MachineId i = 0; i < s.num_machines(); ++i) {
    std::vector<JobId> expected;
    for (const JobId j : s.jobs_on(i)) expected.push_back(j);
    std::sort(expected.begin(), expected.end());
    s.sorted_jobs_into(i, gathered);
    ASSERT_EQ(gathered, expected) << "machine " << i;
  }
}

TEST(ScheduleProperty, MakespanTreeMatchesMaxElementUnderRandomEdits) {
  // Identical machines with costs 1..3 tie loads all the time; restored
  // loads add signed zeros. Machine counts straddle the tree's blocks.
  const std::vector<Cost> restore_values = {-0.0, 0.0, 1.0, 2.0, 3.0};
  for (const std::size_t m : {1u, 2u, 63u, 64u, 65u, 130u, 300u}) {
    stats::Rng rng(1000 + m);
    std::vector<Cost> costs(4 * m);
    for (Cost& c : costs) c = static_cast<Cost>(1 + rng.below(3));
    const Instance inst = Instance::identical(m, costs);
    Schedule s(inst, gen::random_assignment(inst, 7 + m));
    expect_scan_pick(s);
    for (int step = 0; step < 3000; ++step) {
      const auto j = static_cast<JobId>(rng.below(inst.num_jobs()));
      const auto i = static_cast<MachineId>(rng.below(m));
      switch (rng.below(20)) {
        case 0: {
          std::vector<Cost> loads(m);
          for (Cost& l : loads) {
            l = restore_values[rng.below(restore_values.size())];
          }
          s.restore_loads(loads);
          break;
        }
        case 1: {
          Schedule copy(s);  // Mutating the copy must leave s's tree alone.
          copy.move(j, i);
          expect_scan_pick(copy);
          expect_scan_pick(s);
          s = copy;
          break;
        }
        case 2: {
          Schedule other(inst);
          (void)other.makespan();
          other = s;
          s.unassign(j);
          expect_scan_pick(other);
          s = other;
          break;
        }
        case 3:
        case 4:
          s.unassign(j);
          break;
        case 5:
          s.restore_load(i, restore_values[rng.below(restore_values.size())]);
          break;
        default:
          if (s.machine_of(j) == kUnassigned) {
            s.assign(j, i);
          } else {
            s.move(j, i);
          }
      }
      // Let several edits pile up between reads now and then.
      if (rng.below(3) == 0) {
        expect_scan_pick(s);
        expect_sorted_gather(s);
      }
    }
    expect_scan_pick(s);
    expect_sorted_gather(s);
  }
}

TEST(WinnerTree, MatchesStrictMinScanWithEmptySlots) {
  // A min-tree over a sparse row, kept eagerly (update) and lazily
  // (mark + repair) side by side; both must name the strict-< scan's
  // pick, ties and signed zeros included.
  const std::vector<double> pool = {-0.0, 0.0, 1.0, 1.0, 2.0};
  for (const std::size_t n : {1u, 5u, 8u, 37u}) {
    stats::Rng rng(n);
    std::vector<double> key(n, 0.0);
    std::vector<bool> present(n, false);
    const auto earlier = [&](std::uint32_t right, std::uint32_t left) {
      return key[right] < key[left];
    };
    const auto leaf = [&](std::size_t slot) {
      return present[slot] ? static_cast<std::uint32_t>(slot)
                           : WinnerTree::kNone;
    };
    WinnerTree eager(n);
    WinnerTree lazy(n);
    for (int step = 0; step < 2000; ++step) {
      const std::size_t slot = rng.below(n);
      present[slot] = rng.below(4) != 0;
      key[slot] = pool[rng.below(pool.size())];
      eager.update(slot, leaf(slot), earlier);
      lazy.mark(slot);
      if (rng.below(2) == 0) continue;
      lazy.repair(leaf, earlier);
      std::uint32_t expected = WinnerTree::kNone;
      for (std::uint32_t k = 0; k < n; ++k) {
        if (present[k] && (expected == WinnerTree::kNone ||
                           key[k] < key[expected])) {
          expected = k;
        }
      }
      ASSERT_EQ(eager.winner(), expected);
      ASSERT_EQ(lazy.winner(), expected);
    }
  }
}

TEST(ScheduleConcurrency, DisjointPairMovesKeepTheMakespanExact) {
  // Pool threads swap jobs inside disjoint machine pairs (the parallel
  // engine's session shape), marking tree blocks concurrently; the next
  // whole-schedule read must still equal the scan.
  constexpr std::size_t kMachines = 260;
  stats::Rng rng(5);
  std::vector<Cost> costs(8 * kMachines);
  for (Cost& c : costs) c = static_cast<Cost>(1 + rng.below(4));
  const Instance inst = Instance::identical(kMachines, costs);
  Schedule s(inst, gen::random_assignment(inst, 6));
  parallel::ThreadPool pool(4);
  std::vector<MachineId> order(kMachines);
  std::iota(order.begin(), order.end(), MachineId{0});
  for (int round = 0; round < 40; ++round) {
    stats::shuffle(order.begin(), order.end(), rng);
    parallel::parallel_for(
        pool, kMachines / 2, [&](std::size_t begin, std::size_t end) {
          for (std::size_t p = begin; p < end; ++p) {
            const MachineId a = order[2 * p];
            const MachineId b = order[2 * p + 1];
            std::vector<JobId> on_a;
            std::vector<JobId> on_b;
            for (const JobId j : s.jobs_on(a)) on_a.push_back(j);
            for (const JobId j : s.jobs_on(b)) on_b.push_back(j);
            for (const JobId j : on_a) {
              if ((j + round) % 3 == 0) s.move(j, b);
            }
            for (const JobId j : on_b) {
              if ((j + round) % 2 == 0) s.move(j, a);
            }
          }
        });
    expect_scan_pick(s);
  }
  EXPECT_TRUE(s.check_consistency());
}

}  // namespace
}  // namespace dlb
