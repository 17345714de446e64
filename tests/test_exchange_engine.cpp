#include "dist/exchange_engine.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "core/generators.hpp"
#include "pairwise/basic_greedy.hpp"
#include "pairwise/pairwise_optimal.hpp"

namespace dlb::dist {
namespace {

EngineOptions capped(std::size_t exchanges) {
  EngineOptions options;
  options.max_exchanges = exchanges;
  return options;
}

TEST(ExchangeEngine, RespectsExchangeCap) {
  const Instance inst = gen::identical_uniform(4, 20, 1.0, 10.0, 1);
  Schedule s(inst, gen::random_assignment(inst, 2));
  const pairwise::BasicGreedyKernel kernel;
  const UniformPeerSelector selector;
  stats::Rng rng(3);
  const RunResult result =
      ExchangeEngine(kernel, selector).run(s, capped(17), rng);
  EXPECT_EQ(result.exchanges, 17u);
}

TEST(ExchangeEngine, TraceRecordsEveryExchange) {
  const Instance inst = gen::identical_uniform(4, 20, 1.0, 10.0, 4);
  Schedule s(inst, gen::random_assignment(inst, 5));
  const pairwise::BasicGreedyKernel kernel;
  const UniformPeerSelector selector;
  stats::Rng rng(6);
  EngineOptions options = capped(25);
  options.record_trace = true;
  const RunResult result =
      ExchangeEngine(kernel, selector).run(s, options, rng);
  ASSERT_EQ(result.exchange_trace.size(), 25u);
  EXPECT_DOUBLE_EQ(result.exchange_trace.back().makespan,
                   result.final_makespan);
  // best_makespan is the running minimum over the initial value + trace.
  Cost best = result.initial_makespan;
  for (const ExchangeTracePoint& point : result.exchange_trace) {
    best = std::min(best, point.makespan);
  }
  EXPECT_DOUBLE_EQ(result.best_makespan, best);
}

TEST(ExchangeEngine, ThresholdStopsEarly) {
  const Instance inst = gen::identical_uniform(8, 80, 1.0, 10.0, 7);
  Schedule s(inst, Assignment::all_on(80, 0));
  const Cost initial = s.makespan();
  const pairwise::BasicGreedyKernel kernel;
  const UniformPeerSelector selector;
  stats::Rng rng(8);
  EngineOptions options = capped(100'000);
  options.stop_threshold = initial / 2.0;
  const RunResult result =
      ExchangeEngine(kernel, selector).run(s, options, rng);
  EXPECT_TRUE(result.reached_threshold);
  EXPECT_LE(result.final_makespan, initial / 2.0);
  EXPECT_EQ(result.exchanges_to_threshold, result.exchanges);
}

TEST(ExchangeEngine, ThresholdAlreadyMetMeansZeroExchanges) {
  const Instance inst = gen::identical_uniform(4, 8, 1.0, 2.0, 9);
  Schedule s(inst, gen::random_assignment(inst, 10));
  const pairwise::BasicGreedyKernel kernel;
  const UniformPeerSelector selector;
  stats::Rng rng(11);
  EngineOptions options = capped(100);
  options.stop_threshold = s.makespan() * 2.0;
  const RunResult result =
      ExchangeEngine(kernel, selector).run(s, options, rng);
  EXPECT_TRUE(result.reached_threshold);
  EXPECT_EQ(result.exchanges, 0u);
}

TEST(ExchangeEngine, StabilityCheckCertifiesConvergence) {
  // Single job type: OJTB provably converges (Lemma 4), so the stability
  // check must fire well before the cap.
  const Instance inst = Instance::identical(3, std::vector<Cost>(9, 2.0));
  Schedule s(inst, gen::random_assignment(inst, 13));
  const pairwise::BasicGreedyKernel kernel;
  const UniformPeerSelector selector;
  stats::Rng rng(14);
  EngineOptions options = capped(100'000);
  options.stability_check_interval = 50;
  const RunResult result =
      ExchangeEngine(kernel, selector).run(s, options, rng);
  EXPECT_TRUE(result.converged);
  EXPECT_LT(result.exchanges, 100'000u);
}

TEST(ExchangeEngine, RejectsZeroStabilityInterval) {
  const Instance inst = gen::identical_uniform(4, 20, 1.0, 10.0, 1);
  Schedule s(inst, gen::random_assignment(inst, 2));
  const pairwise::BasicGreedyKernel kernel;
  const UniformPeerSelector selector;
  stats::Rng rng(3);
  EngineOptions options = capped(10);
  options.stability_check_interval = 0;
  try {
    (void)ExchangeEngine(kernel, selector).run(s, options, rng);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(),
                 "ExchangeEngine: stability_check_interval must be >= 1 "
                 "when set");
  }
  EXPECT_EQ(s.migrations(), 0u);  // rejected before touching the schedule
}

TEST(ExchangeEngine, DeterministicGivenSeed) {
  const Instance inst = gen::identical_uniform(5, 30, 1.0, 10.0, 15);
  const pairwise::BasicGreedyKernel kernel;
  const UniformPeerSelector selector;

  Schedule s1(inst, gen::random_assignment(inst, 16));
  Schedule s2(inst, gen::random_assignment(inst, 16));
  stats::Rng rng1(17);
  stats::Rng rng2(17);
  const RunResult r1 =
      ExchangeEngine(kernel, selector).run(s1, capped(200), rng1);
  const RunResult r2 =
      ExchangeEngine(kernel, selector).run(s2, capped(200), rng2);
  EXPECT_EQ(s1.assignment(), s2.assignment());
  EXPECT_DOUBLE_EQ(r1.final_makespan, r2.final_makespan);
  EXPECT_EQ(r1.changed_exchanges, r2.changed_exchanges);
}

TEST(ExchangeEngine, RoundRobinTouchesEveryInitiatorPerRound) {
  // With the round-robin policy and m machines, after exactly m exchanges
  // every machine has initiated exactly once. We verify via a counting
  // kernel (a PairKernel that never changes the schedule).
  class CountingKernel final : public pairwise::PairKernel {
   public:
    bool balance(Schedule&, MachineId a, MachineId) const override {
      ++counts[a];
      return false;
    }
    std::string_view name() const noexcept override { return "count"; }
    mutable std::vector<int> counts = std::vector<int>(6, 0);
  };
  const Instance inst = gen::identical_uniform(6, 6, 1.0, 2.0, 18);
  Schedule s(inst, gen::random_assignment(inst, 19));
  CountingKernel kernel;
  const UniformPeerSelector selector;
  stats::Rng rng(20);
  ExchangeEngine(kernel, selector).run(s, capped(12), rng);
  for (int c : kernel.counts) EXPECT_EQ(c, 2);  // two full rounds
}

TEST(ExchangeEngine, ReportsMigrations) {
  const Instance inst = gen::identical_uniform(4, 24, 1.0, 10.0, 23);
  Schedule s(inst, Assignment::all_on(24, 0));
  const pairwise::BasicGreedyKernel kernel;
  const UniformPeerSelector selector;
  stats::Rng rng(24);
  const RunResult result =
      ExchangeEngine(kernel, selector).run(s, capped(100), rng);
  EXPECT_GT(result.migrations, 0u);
  EXPECT_EQ(result.migrations, s.migrations());
}

// ----- no-op paths -----
//
// When no exchange can improve anything, the kernels must take the no-op
// path: not merely "end near where they started" but leave the LoadTable
// bitwise untouched — a remove-then-re-add of the same job would
// accumulate floating-point drift that the exactly-zero checks below
// would catch.

std::vector<Cost> loads_of(const Schedule& s) {
  std::vector<Cost> loads(s.num_machines());
  for (MachineId i = 0; i < s.num_machines(); ++i) loads[i] = s.load(i);
  return loads;
}

TEST(ExchangeEngine, EqualLoadsAreABitwiseNoOp) {
  // 4 identical machines, one job of cost 2 each: perfectly balanced.
  const Instance inst = Instance::identical(4, {2.0, 2.0, 2.0, 2.0});
  Schedule s(inst);
  for (JobId j = 0; j < 4; ++j) s.assign(j, j);
  const std::vector<Cost> before = loads_of(s);
  const pairwise::BasicGreedyKernel kernel;
  const UniformPeerSelector selector;
  stats::Rng rng(25);
  const RunResult result =
      ExchangeEngine(kernel, selector).run(s, capped(50), rng);
  EXPECT_EQ(result.migrations, 0u);
  EXPECT_EQ(result.changed_exchanges, 0u);
  const std::vector<Cost> after = loads_of(s);
  for (MachineId i = 0; i < 4; ++i) {
    EXPECT_EQ(after[i], before[i]);  // Exact, not approximate.
  }
}

TEST(ExchangeEngine, SingleJobMachinesAreABitwiseNoOp) {
  // One job per machine, each strictly cheapest on its host (no ties, so
  // Basic Greedy's tie-to-initiator rule never fires): every ordered pair
  // must refuse to touch the schedule.
  const Instance inst({{1.0, 9.0, 9.0}, {9.0, 1.0, 9.0}, {9.0, 9.0, 1.0}},
                      {0, 1, 2}, {1.0, 1.0, 1.0});
  Schedule s(inst);
  for (JobId j = 0; j < 3; ++j) s.assign(j, j);
  const std::vector<Cost> before = loads_of(s);
  const pairwise::BasicGreedyKernel greedy;
  const pairwise::PairwiseOptimalKernel optimal;
  for (const pairwise::PairKernel* kernel :
       {static_cast<const pairwise::PairKernel*>(&greedy),
        static_cast<const pairwise::PairKernel*>(&optimal)}) {
    for (MachineId a = 0; a < 3; ++a) {
      for (MachineId b = 0; b < 3; ++b) {
        if (a == b) continue;
        EXPECT_FALSE(kernel->balance(s, a, b)) << kernel->name();
      }
    }
    const std::vector<Cost> after = loads_of(s);
    for (MachineId i = 0; i < 3; ++i) {
      EXPECT_EQ(after[i], before[i]) << kernel->name();
    }
  }
  EXPECT_EQ(s.migrations(), 0u);
}

TEST(ExchangeEngine, NormalizedThresholdTime) {
  RunResult result;
  result.reached_threshold = true;
  result.exchanges_to_threshold = 96;
  EXPECT_DOUBLE_EQ(result.normalized_threshold_time(32), 3.0);
}

}  // namespace
}  // namespace dlb::dist
