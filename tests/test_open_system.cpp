// The open-system service workload, locked down end to end: ArrivalPlan
// validation and byte-exact persistence, placement-policy parity with the
// centralized baselines, the engine's pinned arrival order, closed-mode
// delegation byte-identity (the zero-arrival oracle as a ctest), repair
// thread-invariance at 1/4/8 workers, halt/checkpoint/resume equivalence
// (report JSON + metrics snapshot + trace suffix), and the heap-vs-mapped
// InstanceStore leg. See docs/open-system.md for the determinism contract.

#include "dist/open_system/open_engine.hpp"

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdint>
#include <filesystem>
#include <sstream>
#include <string>
#include <vector>

#include "centralized/two_choices.hpp"
#include "check/case_gen.hpp"
#include "core/generators.hpp"
#include "core/instance_store.hpp"
#include "obs/obs.hpp"
#include "pairwise/kernel_registry.hpp"
#include "parallel/thread_pool.hpp"
#include "rejected_corpus.hpp"
#include "stats/rng.hpp"

namespace dlb::dist {
namespace {

constexpr std::uint64_t kSeed = 20260808;

// ----- ArrivalPlan -----

TEST(ArrivalPlan, ValidationNamesTheOffendingField) {
  try {
    (void)ArrivalPlan::poisson(0.0, 1);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(),
                 "ArrivalPlan: invalid rate: must be > 0 and finite, got 0");
  }
  try {
    (void)ArrivalPlan::bursty(1.0, -0.5, 1.0, 1.0, 1);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(
        e.what(),
        "ArrivalPlan: invalid off_rate: must be >= 0 and finite, got -0.5");
  }
  try {
    (void)ArrivalPlan::diurnal({0.0, 0.0}, 1.0, 1);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(),
                 "ArrivalPlan: invalid trace: every bin has rate 0, so no "
                 "job would ever arrive");
  }
  try {
    (void)ArrivalPlan::diurnal({1.0}, 0.0, 1);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(
        e.what(),
        "ArrivalPlan: invalid bin_duration: must be > 0 and finite, got 0");
  }
}

TEST(ArrivalPlan, UnknownKindNameListsTheOptions) {
  try {
    (void)arrival_kind_by_name("weekly");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(),
                 "unknown arrival kind: weekly (expected none, poisson, "
                 "bursty, or diurnal)");
  }
}

TEST(ArrivalPlan, PersistenceRoundTripIsByteExact) {
  const ArrivalPlan plan =
      ArrivalPlan::bursty(0.7, 0.01, 33.25, 12.125, 0xFEEDULL);
  std::stringstream first;
  plan.save(first);
  const ArrivalPlan loaded = ArrivalPlan::load(first);
  EXPECT_EQ(plan, loaded);
  std::stringstream second;
  loaded.save(second);
  EXPECT_EQ(first.str(), second.str());

  const ArrivalPlan diurnal =
      ArrivalPlan::diurnal({0.0, 0.3, 1.75, 0.0}, 41.5, 99);
  std::stringstream bytes;
  diurnal.save(bytes);
  EXPECT_EQ(diurnal, ArrivalPlan::load(bytes));
}

TEST(ArrivalPlan, ArrivalTimesArePureAndNonDecreasing) {
  for (const ArrivalPlan& plan :
       {ArrivalPlan::poisson(0.05, 7),
        ArrivalPlan::bursty(0.2, 0.0, 50.0, 25.0, 7),
        ArrivalPlan::diurnal({0.1, 0.0, 0.4}, 30.0, 7)}) {
    const std::vector<double> times = plan.arrival_times(64);
    EXPECT_EQ(times, plan.arrival_times(64));
    // Pure per index: a shorter request is a prefix of a longer one.
    const std::vector<double> prefix = plan.arrival_times(16);
    for (std::size_t k = 0; k < prefix.size(); ++k) {
      EXPECT_EQ(prefix[k], times[k]) << "arrival " << k;
    }
    for (std::size_t k = 1; k < times.size(); ++k) {
      EXPECT_LE(times[k - 1], times[k]) << "arrival " << k;
    }
  }
}

TEST(ArrivalPlan, TrivialPlanRefusesToEmitTimes) {
  EXPECT_THROW((void)ArrivalPlan{}.arrival_times(1), std::invalid_argument);
}

// ----- placement policies -----

/// A minimal view over a schedule under construction: work is the
/// committed load, every machine is a target.
class ScheduleView final : public PlacementView {
 public:
  explicit ScheduleView(const Schedule& schedule) : schedule_(&schedule) {}
  [[nodiscard]] std::size_t num_targets() const override {
    return schedule_->num_machines();
  }
  [[nodiscard]] MachineId target(std::size_t k) const override {
    return static_cast<MachineId>(k);
  }
  [[nodiscard]] Cost work(MachineId i) const override {
    return schedule_->load(i);
  }
  [[nodiscard]] Cost cost(MachineId i, JobId j) const override {
    return schedule_->instance().cost(i, j);
  }

 private:
  const Schedule* schedule_;
};

TEST(Placement, TwoChoicesMatchesTheCentralizedScheduleDrawForDraw) {
  const Instance instance = gen::uniform_unrelated(5, 24, 1.0, 100.0, 3);
  stats::Rng reference_rng(11);
  const Schedule expected =
      centralized::two_choices_schedule(instance, 2, reference_rng);

  const TwoChoicesPlacement policy(2);
  Schedule actual(instance);
  const ScheduleView view(actual);
  stats::Rng rng(11);
  const auto jobs = static_cast<JobId>(instance.num_jobs());
  for (JobId j = 0; j < jobs; ++j) {
    actual.assign(j, policy.place(view, j, rng));
  }
  EXPECT_EQ(expected.fingerprint(), actual.fingerprint());
}

TEST(Placement, MakePlacementParsesSpecsAndRejectsBadOnes) {
  EXPECT_EQ(make_placement("two_choices:3")->name(), "two_choices:3");
  EXPECT_EQ(make_placement("2choices:4")->name(), "two_choices:4");
  EXPECT_EQ(make_placement("random")->name(), "random");
  EXPECT_EQ(make_placement("ect")->name(), "ect");
  EXPECT_EQ(make_placement("2choices")->name(), "two_choices:2");
  try {
    (void)make_placement("two_choices:zero");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(),
                 "make_placement: invalid probe count 'zero' in "
                 "'two_choices:zero' (want an integer >= 1)");
  }
  EXPECT_THROW((void)make_placement("best_fit"), std::invalid_argument);
  EXPECT_THROW(TwoChoicesPlacement(0), std::invalid_argument);
}

// ----- run outcomes as comparable bytes -----

struct Outcome {
  std::string report_json;
  std::uint64_t fingerprint = 0;
  std::string metrics_json;
  std::vector<obs::TraceEvent> trace;
  std::vector<Cost> makespan_trace;
};

bool same_event(const obs::TraceEvent& a, const obs::TraceEvent& b) {
  return a.ts_us == b.ts_us && a.tid == b.tid && a.phase == b.phase &&
         a.name == b.name && a.category == b.category && a.args == b.args;
}

void expect_identical(const Outcome& a, const Outcome& b) {
  EXPECT_EQ(a.report_json, b.report_json);
  EXPECT_EQ(a.fingerprint, b.fingerprint);
  EXPECT_EQ(a.metrics_json, b.metrics_json);
  EXPECT_EQ(a.makespan_trace, b.makespan_trace);
  ASSERT_EQ(a.trace.size(), b.trace.size());
  for (std::size_t k = 0; k < a.trace.size(); ++k) {
    EXPECT_TRUE(same_event(a.trace[k], b.trace[k]))
        << "trace event " << k << " differs";
  }
}

OpenSystemOptions open_options(const ArrivalPlan& plan) {
  OpenSystemOptions options;
  options.arrivals = &plan;
  options.repair_every = 20.0;
  options.repair_budget = 6;
  options.record_trace = true;
  return options;
}

Outcome run_open(const Instance& instance, OpenSystemOptions options,
                 std::uint64_t seed) {
  obs::Metrics metrics;
  obs::Tracer tracer;
  const obs::Context context{&metrics, &tracer};
  options.obs = &context;
  const UniformPeerSelector selector;
  const OpenSystemEngine engine(
      pairwise::kernel_registry().get("basic-greedy"), selector);
  Schedule schedule(instance);
  const OpenRunReport report = engine.run(schedule, options, seed);
  return {report.to_json().dump(), schedule.fingerprint(),
          metrics.snapshot().dump(), tracer.events(),
          report.makespan_trace};
}

// ----- closed runs are rejected -----

TEST(OpenSystemEngine, ClosedModeRejectsOpenCheckpointOptions) {
  const Instance instance = gen::identical_uniform(2, 8, 1.0, 10.0, 1);
  const UniformPeerSelector selector;
  const OpenSystemEngine engine(
      pairwise::kernel_registry().get("basic-greedy"), selector);
  const ArrivalPlan trivial_plan;  // kind == kNone.
  for (const ArrivalPlan* plan : {static_cast<const ArrivalPlan*>(nullptr),
                                  &trivial_plan}) {
    OpenSystemOptions options;
    options.arrivals = plan;
    options.halt_after_events = 5;
    Schedule schedule(instance, gen::random_assignment(instance, 1));
    try {
      (void)engine.run(schedule, options, kSeed);
      FAIL() << "expected std::invalid_argument";
    } catch (const std::invalid_argument& e) {
      EXPECT_STREQ(e.what(),
                   "OpenSystemEngine: invalid OpenSystemOptions.arrivals: "
                   "needs a non-trivial arrival plan (closed runs use "
                   "ExchangeEngine / ParallelExchangeEngine)");
    }
  }
}

// ----- open mode: conservation, preconditions, report shape -----

TEST(OpenSystemEngine, DrainsEveryArrivalAndReportsPercentiles) {
  const Instance instance = gen::two_cluster_uniform(3, 2, 30, 1.0, 100.0, 8);
  const ArrivalPlan plan = ArrivalPlan::poisson(0.04, 13);
  const Outcome outcome = run_open(instance, open_options(plan), kSeed);

  const UniformPeerSelector selector;
  const OpenSystemEngine engine(
      pairwise::kernel_registry().get("basic-greedy"), selector);
  Schedule schedule(instance);
  const OpenRunReport report =
      engine.run(schedule, open_options(plan), kSeed);
  EXPECT_EQ(report.jobs_submitted, 30u);
  EXPECT_EQ(report.jobs_completed, 30u);
  EXPECT_EQ(report.jobs_in_service, 0u);
  EXPECT_EQ(report.jobs_waiting, 0u);
  EXPECT_TRUE(report.converged);
  EXPECT_FALSE(report.halted);
  EXPECT_GT(report.end_time, 0.0);
  EXPECT_GT(report.response_mean, 0.0);
  EXPECT_LE(report.response_p50, report.response_p95);
  EXPECT_LE(report.response_p95, report.response_p99);
  EXPECT_GE(report.events, 60u);  // 30 arrivals + 30 completions.
  // Same seed, same bytes.
  EXPECT_EQ(report.to_json().dump(), outcome.report_json);
  // The open keys ride behind the full base schema.
  EXPECT_NE(outcome.report_json.find("\"open_jobs_submitted\""),
            std::string::npos);
  EXPECT_NE(outcome.report_json.find("\"risk_jobs\""), std::string::npos);
}

TEST(OpenSystemEngine, NumArrivalsCapsTheAdmittedJobs) {
  const Instance instance = gen::identical_uniform(3, 20, 1.0, 50.0, 4);
  const ArrivalPlan plan = ArrivalPlan::poisson(0.1, 5);
  OpenSystemOptions options = open_options(plan);
  options.num_arrivals = 5;
  const UniformPeerSelector selector;
  const OpenSystemEngine engine(
      pairwise::kernel_registry().get("basic-greedy"), selector);
  Schedule schedule(instance);
  const OpenRunReport report = engine.run(schedule, options, kSeed);
  EXPECT_EQ(report.jobs_submitted, 5u);
  EXPECT_EQ(report.jobs_completed, 5u);

  options.num_arrivals = 21;
  Schedule rejected(instance);
  EXPECT_THROW(engine.run(rejected, options, kSeed), std::invalid_argument);
}

/// Places every job on machine 0 and records the order it was asked in.
class RecordingPlacement final : public PlacementPolicy {
 public:
  [[nodiscard]] std::string name() const override { return "recording"; }
  [[nodiscard]] MachineId place(const PlacementView& /*view*/, JobId job,
                                stats::Rng& /*rng*/) const override {
    order.push_back(job);
    return 0;
  }
  mutable std::vector<JobId> order;
};

TEST(OpenSystemEngine, ArrivalOrderIsTheSeededShuffle) {
  // Arrival k admits the k-th job of a seeded shuffle of the pool. The
  // order is pinned: a shuffle that drew differently would move every
  // open-system byte.
  const Instance instance = gen::identical_uniform(3, 12, 1.0, 10.0, 4);
  const ArrivalPlan plan = ArrivalPlan::poisson(0.5, 5);
  const UniformPeerSelector selector;
  const OpenSystemEngine engine(
      pairwise::kernel_registry().get("basic-greedy"), selector);
  const std::vector<JobId> expected = {1, 4, 6, 7, 10, 0, 2, 9, 11, 3, 8, 5};
  for (const std::size_t arrivals : {std::size_t{0}, std::size_t{5}}) {
    RecordingPlacement recording;
    OpenSystemOptions options;
    options.arrivals = &plan;
    options.num_arrivals = arrivals;
    options.placement = &recording;
    Schedule schedule(instance);
    (void)engine.run(schedule, options, kSeed);
    const std::size_t admitted = arrivals == 0 ? expected.size() : arrivals;
    EXPECT_EQ(recording.order,
              std::vector<JobId>(expected.begin(),
                                 expected.begin() + admitted));
  }
}

TEST(OpenSystemEngine, OpenModeRequiresAnEmptySchedule) {
  const Instance instance = gen::identical_uniform(2, 6, 1.0, 10.0, 9);
  const ArrivalPlan plan = ArrivalPlan::poisson(0.1, 2);
  const UniformPeerSelector selector;
  const OpenSystemEngine engine(
      pairwise::kernel_registry().get("basic-greedy"), selector);
  Schedule loaded(instance, gen::random_assignment(instance, 3));
  try {
    engine.run(loaded, open_options(plan), kSeed);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("starts on an empty schedule"),
              std::string::npos);
  }
}

// ----- completion order on busy_until ties -----

TEST(OpenSystemEngine, TiedCompletionsFinishSmallestMachineFirst) {
  // Halt a run with every machine serving, tie machines 4, 2 and 1 at the
  // current clock, resume, and step one event at a time: the ties must
  // complete in ascending machine id, ahead of every later horizon.
  const Instance instance = gen::identical_uniform(5, 60, 1.0, 10.0, 6);
  const ArrivalPlan plan = ArrivalPlan::poisson(4.0, 21);
  const UniformPeerSelector selector;
  const OpenSystemEngine engine(
      pairwise::kernel_registry().get("basic-greedy"), selector);
  OpenSystemOptions options;
  options.arrivals = &plan;
  options.halt_after_events = 40;
  OpenCheckpoint ck;
  options.checkpoint_out = &ck;
  Schedule first(instance);
  ASSERT_TRUE(engine.run(first, options, kSeed).halted);
  for (MachineId i = 0; i < 5; ++i) ASSERT_NE(ck.in_service[i], kNoJob);

  for (const MachineId i : {0u, 3u}) ck.busy_until[i] = ck.now + 1000.0;
  for (const MachineId i : {4u, 2u, 1u}) ck.busy_until[i] = ck.now;
  std::uint64_t events = ck.events;
  for (const MachineId expected : {1u, 2u, 4u}) {
    const JobId job = ck.in_service[expected];
    OpenSystemOptions step;
    step.arrivals = &plan;
    step.resume = &ck;
    step.halt_after_events = ++events;
    OpenCheckpoint next;
    step.checkpoint_out = &next;
    Schedule schedule = ck.make_schedule(instance);
    ASSERT_TRUE(engine.run(schedule, step, kSeed).halted);
    EXPECT_EQ(next.completion_time[job], ck.now) << "machine " << expected;
    for (const MachineId other : {1u, 2u, 4u}) {
      if (other > expected) {
        EXPECT_LT(ck.completion_time[ck.in_service[other]], 0.0);
        EXPECT_LT(next.completion_time[ck.in_service[other]], 0.0);
      }
    }
    ck = next;
  }
}

// ----- differential: repair thread invariance at 1/4/8 workers -----

TEST(OpenSystemEngine, ParallelRepairIsThreadCountInvariantAcrossRegimes) {
  for (const check::Regime regime :
       {check::Regime::kOpenPoisson, check::Regime::kOpenBursty}) {
    for (const std::uint64_t index : {0ULL, 1ULL, 2ULL}) {
      const check::GeneratedCase test_case =
          check::make_case(kSeed, index, regime);
      ASSERT_FALSE(test_case.arrivals.trivial());
      OpenSystemOptions options = open_options(test_case.arrivals);
      options.parallel_repair = true;
      options.realize_service = test_case.instance.has_cost_model();

      const Outcome inline_run = run_open(test_case.instance, options, kSeed);
      for (const std::size_t threads :
           {std::size_t{1}, std::size_t{4}, std::size_t{8}}) {
        parallel::ThreadPool pool(threads);
        OpenSystemOptions pooled = options;
        pooled.pool = &pool;
        const Outcome pooled_run =
            run_open(test_case.instance, pooled, kSeed);
        expect_identical(inline_run, pooled_run);
      }
    }
  }
}

// ----- differential: halt / checkpoint / resume -----

TEST(OpenSystemEngine, HaltResumeReproducesTheUninterruptedRunByteForByte) {
  const check::GeneratedCase test_case =
      check::make_case(kSeed, 4, check::Regime::kOpenPoisson);
  const Instance& instance = test_case.instance;
  OpenSystemOptions options = open_options(test_case.arrivals);
  options.placement = nullptr;

  const UniformPeerSelector selector;
  const OpenSystemEngine engine(
      pairwise::kernel_registry().get("basic-greedy"), selector);
  const Outcome uninterrupted = run_open(instance, options, kSeed);

  Schedule probe(instance);
  const OpenRunReport full = engine.run(probe, options, kSeed);
  ASSERT_GT(full.events, 3u);

  for (const std::uint64_t halt_at :
       {std::uint64_t{1}, full.events / 3, full.events / 2,
        full.events - 1}) {
    OpenCheckpoint checkpoint;
    OpenSystemOptions halt_options = options;
    halt_options.halt_after_events = halt_at;
    halt_options.checkpoint_out = &checkpoint;
    Schedule halted(instance);
    const OpenRunReport partial =
        engine.run(halted, halt_options, kSeed);
    ASSERT_TRUE(partial.halted);
    ASSERT_FALSE(partial.converged);

    // Through the text format: restore must be ulp-exact.
    std::stringstream bytes;
    checkpoint.save(bytes);
    const OpenCheckpoint restored = OpenCheckpoint::load(bytes);
    std::stringstream again;
    restored.save(again);
    EXPECT_EQ(bytes.str(), again.str());

    obs::Metrics metrics;
    obs::Tracer tracer;
    const obs::Context context{&metrics, &tracer};
    OpenSystemOptions resume_options = options;
    resume_options.resume = &restored;
    resume_options.obs = &context;
    Schedule resumed = restored.make_schedule(instance);
    const OpenRunReport finished =
        engine.run(resumed, resume_options, kSeed);

    EXPECT_EQ(finished.to_json().dump(), uninterrupted.report_json)
        << "halted at event " << halt_at;
    EXPECT_EQ(resumed.fingerprint(), uninterrupted.fingerprint);
    // Cumulative end-of-run totals: a fresh registry after resume lands
    // exactly the uninterrupted run's snapshot.
    EXPECT_EQ(metrics.snapshot().dump(), uninterrupted.metrics_json);
    // The resumed trace is the uninterrupted trace's suffix.
    ASSERT_LE(tracer.events().size(), uninterrupted.trace.size());
    const std::size_t offset =
        uninterrupted.trace.size() - tracer.events().size();
    for (std::size_t k = 0; k < tracer.events().size(); ++k) {
      EXPECT_TRUE(
          same_event(tracer.events()[k], uninterrupted.trace[offset + k]))
          << "suffix event " << k << " after halting at " << halt_at;
    }
  }
}

TEST(OpenSystemEngine, ResumeRejectsSeedAndShapeMismatches) {
  const Instance instance = gen::identical_uniform(2, 10, 1.0, 10.0, 3);
  const ArrivalPlan plan = ArrivalPlan::poisson(0.1, 1);
  const UniformPeerSelector selector;
  const OpenSystemEngine engine(
      pairwise::kernel_registry().get("basic-greedy"), selector);

  OpenCheckpoint checkpoint;
  OpenSystemOptions halt_options = open_options(plan);
  halt_options.halt_after_events = 2;
  halt_options.checkpoint_out = &checkpoint;
  Schedule halted(instance);
  ASSERT_TRUE(engine.run(halted, halt_options, kSeed).halted);

  OpenSystemOptions resume_options = open_options(plan);
  resume_options.resume = &checkpoint;
  Schedule resumed = checkpoint.make_schedule(instance);
  try {
    engine.run(resumed, resume_options, kSeed + 1);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("checkpoint was taken under seed"),
              std::string::npos);
  }

  const Instance other = gen::identical_uniform(3, 10, 1.0, 10.0, 3);
  EXPECT_THROW((void)checkpoint.make_schedule(other), std::invalid_argument);
}

// ----- heap vs mmap-backed InstanceStore -----

TEST(OpenSystemEngine, RunIsBackingInvariantOverTheMappedStore) {
  const Instance heap = gen::two_cluster_uniform(4, 2, 48, 1.0, 100.0, 12);
  const std::string path =
      (std::filesystem::temp_directory_path() /
       ("dlb_test_open_" + std::to_string(::getpid()) + ".dlbi"))
          .string();
  core::save_dlbi(heap, path);
  const ArrivalPlan plan = ArrivalPlan::bursty(0.15, 0.01, 60.0, 30.0, 21);
  {
    const core::InstanceStore store = core::InstanceStore::open_mapped(path);
    ASSERT_TRUE(store.instance().is_view());
    expect_identical(run_open(heap, open_options(plan), kSeed),
                     run_open(store.instance(), open_options(plan), kSeed));
  }
  std::error_code ec;
  std::filesystem::remove(path, ec);
}

// ----- checkpoint parse errors -----

TEST(OpenCheckpoint, LoadRejectsCorruptHeaders) {
  std::stringstream bad("dlb-open-checkpoint v2\n");
  EXPECT_THROW((void)OpenCheckpoint::load(bad), std::runtime_error);
  std::stringstream truncated("dlb-open-checkpoint v1\nseed 1\nmachines");
  EXPECT_THROW((void)OpenCheckpoint::load(truncated), std::runtime_error);

  // Section counts are untrusted: a count past the header's job count is a
  // named error, and one the header allows grows as entries arrive.
  OpenCheckpoint small;
  small.num_machines = 2;
  small.num_jobs = 3;
  std::stringstream saved;
  small.save(saved);
  const auto load_error = [](std::string text) -> std::string {
    std::stringstream in(text);
    try {
      (void)OpenCheckpoint::load(in);
    } catch (const std::runtime_error& e) {
      return e.what();
    }
    return "(loaded)";
  };
  std::string huge = saved.str();
  huge.replace(huge.find("assignment 0"), 12,
               "assignment 4611686018427387904");
  EXPECT_EQ(load_error(huge),
            "OpenCheckpoint::load: assignment count 4611686018427387904 "
            "exceeds the header's jobs (3)");
  std::string huge_shape = huge;
  huge_shape.replace(huge_shape.find("jobs 3"), 6,
                     "jobs 4611686018427387904");
  EXPECT_EQ(load_error(huge_shape),
            "OpenCheckpoint::load: bad assignment entry \"loads\"");

  // Shrunk reproducer: it crashed `dlbsim serve --resume` before ids were
  // bounded by the header.
  EXPECT_EQ(load_error(corpus::read_rejected(
                "open_checkpoint_in_service_out_of_range.ckpt")),
            "OpenCheckpoint::load: in_service entry 3000000000 is out of range "
            "for the header's jobs (6)");
  std::string off_machine = corpus::read_rejected(
      "open_checkpoint_in_service_out_of_range.ckpt");
  off_machine.replace(off_machine.find("1 - 3000000000"), 14, "1 - 2");
  EXPECT_EQ(load_error(off_machine), "(loaded)");
  off_machine.replace(off_machine.find("- - - - - -"), 11, "- 3 - - - -");
  EXPECT_EQ(load_error(off_machine),
            "OpenCheckpoint::load: assignment entry 3 is out of range for "
            "the header's machines (3)");

  // Shrunk reproducers: resume read the arrival stream past its end, or
  // reported more completions than arrivals.
  const std::string progress =
      "OpenCheckpoint::load: progress counters must satisfy completed <= "
      "submitted <= total_arrivals <= jobs, got ";
  EXPECT_EQ(load_error(corpus::read_rejected(
                "open_checkpoint_submitted_past_arrivals.ckpt")),
            progress + "0, 5, 4, 6");
  const std::string completed_past = corpus::read_rejected(
      "open_checkpoint_completed_past_submitted.ckpt");
  EXPECT_EQ(load_error(completed_past), progress + "5, 3, 4, 6");
  std::string arrivals_past = completed_past;
  arrivals_past.replace(arrivals_past.find("completed 5"), 11, "completed 0");
  EXPECT_EQ(load_error(arrivals_past), "(loaded)");
  arrivals_past.replace(arrivals_past.find("total_arrivals 4"), 16,
                        "total_arrivals 7");
  EXPECT_EQ(load_error(arrivals_past), progress + "0, 3, 7, 6");
}

TEST(OpenCheckpoint, LoadRejectsProgressPastTheArrivals) {
  // Resume takes the next arrival at index `submitted` of the pool's
  // shuffle: a cursor at the end of a drawn stream (every job admitted)
  // loads, and one step past the arrivals or the pool is refused.
  const auto load_progress = [](std::size_t completed, std::size_t submitted,
                                std::size_t total_arrivals) -> std::string {
    OpenCheckpoint ck;
    ck.num_machines = 2;
    ck.num_jobs = 2;
    ck.total_arrivals = total_arrivals;
    ck.submitted = submitted;
    ck.completed = completed;
    std::stringstream saved;
    ck.save(saved);
    try {
      (void)OpenCheckpoint::load(saved);
    } catch (const std::runtime_error& e) {
      return e.what();
    }
    return "(loaded)";
  };
  const std::string progress =
      "OpenCheckpoint::load: progress counters must satisfy completed <= "
      "submitted <= total_arrivals <= jobs, got ";
  EXPECT_EQ(load_progress(2, 2, 2), "(loaded)");
  EXPECT_EQ(load_progress(0, 1, 2), "(loaded)");
  EXPECT_EQ(load_progress(0, 3, 2), progress + "0, 3, 2, 2");
  EXPECT_EQ(load_progress(0, 2, 3), progress + "0, 2, 3, 2");
  EXPECT_EQ(load_progress(2, 1, 2), progress + "2, 1, 2, 2");
}

TEST(ArrivalPlan, LoadRejectsHugeTraceCount) {
  std::stringstream saved;
  ArrivalPlan::diurnal({1.0, 2.0}, 5.0, 7).save(saved);
  std::string huge = saved.str();
  huge.replace(huge.find("trace 2"), 7, "trace 4611686018427387904");
  std::stringstream in(huge);
  try {
    (void)ArrivalPlan::load(in);
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "ArrivalPlan::load: truncated trace");
  }
}

}  // namespace
}  // namespace dlb::dist
