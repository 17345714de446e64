#include "core/cost_model.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/generators.hpp"
#include "core/risk.hpp"
#include "core/schedule.hpp"
#include "stats/rng.hpp"

namespace dlb::cost {
namespace {

// ---------------------------------------------------------------- parsing

TEST(CostModelParse, RoundTripsEveryKindBitExactly) {
  const std::vector<std::string> specs = {
      "det:1", "det:2.5", "normal:0.25", "lognormal:0.69999999999999996",
      "pareto:1.6609298370937524,0.92514016203069904,12.401811931637829"};
  for (const std::string& spec : specs) {
    const Dist dist = parse_dist(spec);
    const Dist again = parse_dist(dist_spec(dist));
    EXPECT_EQ(dist, again) << spec;
  }
}

TEST(CostModelParse, UnknownKindListsTheValidSet) {
  try {
    static_cast<void>(parse_dist("gamma:2"));
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("unknown distribution 'gamma'"), std::string::npos)
        << what;
    EXPECT_NE(what.find("det, normal, lognormal, pareto"), std::string::npos)
        << what;
  }
}

TEST(CostModelParse, WrongArityNamesTheParameters) {
  try {
    static_cast<void>(parse_dist("pareto:2,1"));
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("pareto expects 3 parameters alpha,lo,hi"),
              std::string::npos)
        << what;
  }
}

TEST(CostModelParse, MalformedNumberNamesTheToken) {
  EXPECT_THROW(static_cast<void>(parse_dist("normal:abc")),
               std::invalid_argument);
  EXPECT_THROW(static_cast<void>(parse_dist("det:1.5x")),
               std::invalid_argument);
}

TEST(CostModelParse, ValidatorNamesTheOffendingField) {
  const std::vector<std::pair<std::string, std::string>> bad = {
      {"det:-1", "det.value"},
      {"normal:-0.5", "normal.sigma"},
      {"lognormal:-2", "lognormal.sigma"},
      {"pareto:-1,1,2", "pareto.alpha"},
      {"pareto:2,0,2", "pareto.lo"},
      {"pareto:2,3,2", "pareto.hi"}};
  for (const auto& [spec, field] : bad) {
    try {
      static_cast<void>(parse_dist(spec));
      FAIL() << spec << ": expected std::invalid_argument";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(field), std::string::npos)
          << spec << " -> " << e.what();
    }
  }
}

// ------------------------------------------------------ degenerate anchors

TEST(CostModelAnchors, DegenerateShapesYieldFactorExactlyOne) {
  const std::vector<std::string> degenerate = {
      "det:1", "det:2.5", "normal:0", "lognormal:0", "pareto:2,1.75,1.75"};
  for (const std::string& spec : degenerate) {
    const Dist dist = parse_dist(spec);
    EXPECT_TRUE(dist_degenerate(dist)) << spec;
    EXPECT_EQ(risk_factor(dist, 0.95), 1.0) << spec;      // Bitwise.
    EXPECT_EQ(effective_factor(dist), 1.0) << spec;       // Bitwise.
    EXPECT_EQ(dist_variance(dist), 0.0) << spec;          // Bitwise.
  }
  // The degenerate Pareto's normalized quantile is lo/lo, exactly 1.0.
  EXPECT_EQ(dist_quantile(parse_dist("pareto:2,1.75,1.75"), 0.3), 1.0);
}

TEST(CostModelAnchors, MedianRiskFactorIsExactlyOneForNormal) {
  // Acklam's central branch maps p = 0.5 to z = 0.0 exactly, so the
  // normal median factor is 1 + sigma * 0 == 1.0 bitwise.
  EXPECT_EQ(inverse_normal_cdf(0.5), 0.0);
  EXPECT_EQ(risk_factor(parse_dist("normal:0.4"), 0.5), 1.0);
}

// -------------------------------------------------------------- moments

TEST(CostModelMoments, StochasticKindsAreMeanOneNormalized) {
  // E[sample_factor] == 1 for every stochastic kind: the prediction is
  // unbiased and the distribution only carries its noise. Average the
  // inverse CDF over a uniform grid (the exact mean, up to quadrature).
  const std::vector<std::string> stochastic = {
      "normal:0.3", "lognormal:0.5", "pareto:2.5,0.5,8"};
  constexpr int kGrid = 200'000;
  for (const std::string& spec : stochastic) {
    const Dist dist = parse_dist(spec);
    double sum = 0.0;
    for (int k = 0; k < kGrid; ++k) {
      sum += sample_factor(dist, (k + 0.5) / kGrid);
    }
    EXPECT_NEAR(sum / kGrid, 1.0, 5e-3) << spec;
  }
}

TEST(CostModelMoments, VarianceMatchesTheQuadratureOfTheNormalizedFactor) {
  const std::vector<std::string> stochastic = {"lognormal:0.4",
                                               "pareto:2.8,0.6,4"};
  constexpr int kGrid = 400'000;
  for (const std::string& spec : stochastic) {
    const Dist dist = parse_dist(spec);
    double sq = 0.0;
    for (int k = 0; k < kGrid; ++k) {
      const double f = sample_factor(dist, (k + 0.5) / kGrid);
      sq += (f - 1.0) * (f - 1.0);
    }
    EXPECT_NEAR(sq / kGrid, dist_variance(dist), 2e-2) << spec;
  }
}

TEST(CostModelMoments, QuantileFactorIsMonotoneInQ) {
  const Dist dist = parse_dist("pareto:1.8,0.5,10");
  double previous = 0.0;
  for (const double q : {0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99}) {
    const double factor = risk_factor(dist, q);
    EXPECT_GE(factor, previous) << "q=" << q;
    previous = factor;
  }
}

TEST(CostModelMoments, EffectiveFactorIsOnePlusNormalizedStddev) {
  const Dist dist = parse_dist("lognormal:0.6");
  EXPECT_DOUBLE_EQ(effective_factor(dist), 1.0 + dist_stddev(dist));
}

// ------------------------------------------------------------- CostModel

TEST(CostModelClass, CountsStochasticJobs) {
  const CostModel model({parse_dist("det:1"), parse_dist("normal:0.2"),
                         parse_dist("normal:0"), parse_dist("pareto:2,1,3")});
  EXPECT_EQ(model.num_jobs(), 4u);
  EXPECT_EQ(model.num_stochastic_jobs(), 2u);
  EXPECT_FALSE(model.all_degenerate());
  const CostModel flat({parse_dist("det:3"), parse_dist("lognormal:0")});
  EXPECT_TRUE(flat.all_degenerate());
  EXPECT_EQ(flat.num_stochastic_jobs(), 0u);
}

TEST(CostModelClass, ConstructorValidatesEveryDistribution) {
  Dist bad;
  bad.kind = DistKind::kPareto;
  bad.alpha = -2.0;
  EXPECT_THROW(CostModel({Dist{}, bad}), std::invalid_argument);
}

// ------------------------------------------------------------- risk views

TEST(RiskViews, AdjustedInstanceScalesCostsByTheRiskFactor) {
  Instance instance = gen::uniform_unrelated(3, 6, 1.0, 10.0, 7);
  std::vector<Dist> dists(instance.num_jobs());
  dists[2] = parse_dist("lognormal:0.5");
  instance.set_cost_model(CostModel(dists));

  const Instance q95 = risk_adjusted_instance(instance, RiskMode::kQuantile,
                                              kRiskQuantile);
  const double factor = risk_factor(dists[2], kRiskQuantile);
  for (MachineId i = 0; i < instance.num_machines(); ++i) {
    EXPECT_EQ(q95.cost(i, 0), instance.cost(i, 0));  // det:1 untouched.
    EXPECT_DOUBLE_EQ(q95.cost(i, 2), instance.cost(i, 2) * factor);
  }
}

TEST(RiskViews, AdjustedInstanceNamesASurrogateThatOverflows) {
  // The base costs' per-job maxima sum to 1.5e308, which is finite, but a
  // q95 factor above 1.2 pushes the surrogate's sum past DBL_MAX.
  Instance instance = Instance::identical(2, {5e307, 5e307, 5e307});
  instance.set_cost_model(CostModel(std::vector<Dist>(
      instance.num_jobs(), parse_dist("normal:0.2"))));
  try {
    (void)risk_adjusted_instance(instance, RiskMode::kQuantile,
                                 kRiskQuantile);
    ADD_FAILURE() << "the overflowing surrogate was built";
  } catch (const std::invalid_argument& e) {
    EXPECT_EQ(std::string(e.what()).rfind(
                  "risk_adjusted_instance: the risk-scaled surrogate is "
                  "invalid: Instance: costs: the jobs' largest costs sum past",
                  0),
              0u)
        << e.what();
  }
}

TEST(RiskViews, EffectiveLoadIsBitwiseLoadWhenDegenerate) {
  Instance instance = gen::uniform_unrelated(3, 8, 1.0, 100.0, 11);
  instance.set_cost_model(
      CostModel(std::vector<Dist>(instance.num_jobs(), parse_dist("det:1"))));
  Schedule schedule(instance,
                    Assignment::round_robin(instance.num_jobs(),
                                            instance.num_machines()));
  for (MachineId i = 0; i < instance.num_machines(); ++i) {
    EXPECT_EQ(effective_load(schedule, i), schedule.load(i));    // Bitwise.
    EXPECT_EQ(quantile_load(schedule, i, 0.95), schedule.load(i));
    EXPECT_EQ(load_variance(schedule, i), 0.0);
  }
  EXPECT_EQ(quantile_makespan(schedule, 0.95), schedule.makespan());
}

TEST(RiskViews, RiskAggregatesAreMoveHistoryIndependent) {
  // Two schedules reaching the same assignment by different move orders
  // must report identical risk sums: the aggregates run in job-id order,
  // never in jobs_on() (arrival) order. load_variance is a from-scratch
  // sum, so it is bitwise history-independent; effective_load adds the
  // margin onto load(i), whose incremental accumulator legitimately
  // carries move-history ulp drift, so it only matches to rounding.
  Instance instance = gen::uniform_unrelated(3, 10, 1.0, 50.0, 23);
  std::vector<Dist> dists(instance.num_jobs(), parse_dist("lognormal:0.4"));
  instance.set_cost_model(CostModel(dists));

  Schedule direct(instance, Assignment::round_robin(instance.num_jobs(),
                                                    instance.num_machines()));
  Schedule detour(instance, Assignment::round_robin(instance.num_jobs(),
                                                    instance.num_machines()));
  for (JobId j = 0; j < instance.num_jobs(); ++j) {
    detour.move(j, 0);  // Pile everything on machine 0...
  }
  for (JobId j = static_cast<JobId>(instance.num_jobs()); j-- > 0;) {
    detour.move(j, direct.machine_of(j));  // ...then rebuild in reverse.
  }
  for (MachineId i = 0; i < instance.num_machines(); ++i) {
    EXPECT_EQ(load_variance(direct, i), load_variance(detour, i));  // Bitwise.
    EXPECT_DOUBLE_EQ(effective_load(direct, i), effective_load(detour, i));
  }
}

TEST(RiskViews, PerMachineSumsMatchAFullJobScanBitwise) {
  // The per-machine risk sums read only the scored machine's residents;
  // the reference below scans every job id and keeps those on machine i,
  // the same ascending-id order, so every sum must agree to the bit.
  Instance instance = gen::uniform_unrelated(7, 90, 1.0, 40.0, 41);
  const std::vector<std::string> specs = {"normal:0.3", "lognormal:0.5",
                                          "pareto:2,0.5,6", "det:1",
                                          "det:1.25"};
  std::vector<Dist> dists;
  for (JobId j = 0; j < instance.num_jobs(); ++j) {
    dists.push_back(parse_dist(specs[(j * 7) % specs.size()]));
  }
  instance.set_cost_model(CostModel(dists));
  const CostModel& model = instance.cost_model();
  Schedule schedule(instance, gen::random_assignment(instance, 42));

  const auto scan_variance = [&](MachineId i) {
    double variance = 0.0;
    for (JobId j = 0; j < schedule.num_jobs(); ++j) {
      if (schedule.machine_of(j) != i) continue;
      const double p = instance.cost(i, j);
      variance += p * p * dist_variance(model.dist(j));
    }
    return variance;
  };
  const auto scan_effective = [&](MachineId i) {
    double margin = 0.0;
    for (JobId j = 0; j < schedule.num_jobs(); ++j) {
      if (schedule.machine_of(j) != i) continue;
      margin += instance.cost(i, j) * (effective_factor(model.dist(j)) - 1.0);
    }
    return schedule.load(i) + margin;
  };
  const auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };

  stats::Rng rng(43);
  for (int batch = 0; batch < 40; ++batch) {
    for (int step = 0; step < 25; ++step) {
      schedule.move(static_cast<JobId>(rng.below(instance.num_jobs())),
                    static_cast<MachineId>(rng.below(7)));
    }
    double worst = 0.0;
    for (MachineId i = 0; i < instance.num_machines(); ++i) {
      ASSERT_EQ(bits(load_variance(schedule, i)), bits(scan_variance(i)))
          << "batch " << batch << " machine " << i;
      ASSERT_EQ(bits(effective_load(schedule, i)), bits(scan_effective(i)))
          << "batch " << batch << " machine " << i;
      const double q95 = schedule.load(i) + inverse_normal_cdf(0.95) *
                                                std::sqrt(scan_variance(i));
      worst = std::max(worst, q95);
    }
    ASSERT_EQ(bits(quantile_makespan(schedule, 0.95)), bits(worst))
        << "batch " << batch;
  }
}

TEST(RiskViews, PairedRealizationsPriceBothSchedulesWithTheSameDraws) {
  Instance instance = gen::identical_uniform(4, 12, 1.0, 20.0, 31);
  std::vector<Dist> dists(instance.num_jobs(), parse_dist("pareto:2,0.5,6"));
  instance.set_cost_model(CostModel(dists));
  stats::Rng sample_rng(99);
  const std::vector<double> factors =
      sample_factors(instance.cost_model(), sample_rng);
  ASSERT_EQ(factors.size(), instance.num_jobs());
  Schedule schedule(instance,
                    Assignment::round_robin(instance.num_jobs(),
                                            instance.num_machines()));
  const double realized = realized_makespan(schedule, factors);
  EXPECT_GT(realized, 0.0);
  // Recomputing with the same factors is exact: sampling happened outside.
  EXPECT_EQ(realized, realized_makespan(schedule, factors));
}

}  // namespace
}  // namespace dlb::cost
