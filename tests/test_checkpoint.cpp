#include "dist/checkpoint.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/generators.hpp"
#include "dist/churn.hpp"
#include "dist/exchange_engine.hpp"
#include "dist/parallel_exchange_engine.hpp"
#include "obs/obs.hpp"
#include "pairwise/basic_greedy.hpp"
#include "rejected_corpus.hpp"

namespace dlb::dist {
namespace {

bool same_event(const obs::TraceEvent& a, const obs::TraceEvent& b) {
  return a.ts_us == b.ts_us && a.tid == b.tid && a.phase == b.phase &&
         a.name == b.name && a.category == b.category && a.args == b.args;
}

/// The resumed run's trace must be exactly the uninterrupted run's events
/// from the halt point on (timestamps continue, nothing repeated).
void expect_trace_suffix(const obs::Tracer& full, const obs::Tracer& tail) {
  const std::vector<obs::TraceEvent> all = full.events();
  const std::vector<obs::TraceEvent> suffix = tail.events();
  ASSERT_LE(suffix.size(), all.size());
  const std::size_t offset = all.size() - suffix.size();
  for (std::size_t k = 0; k < suffix.size(); ++k) {
    EXPECT_TRUE(same_event(all[offset + k], suffix[k]))
        << "trace event " << k << " of the resumed run differs from "
        << "uninterrupted event " << offset + k;
  }
}

TEST(Checkpoint, SaveLoadRoundTripsEveryFieldBitExactly) {
  Checkpoint ck;
  ck.engine = Checkpoint::Engine::kParallel;
  ck.seed = 0xDEADBEEFULL;
  ck.num_machines = 3;
  ck.num_jobs = 5;
  ck.rng_state = {1, 2, 3, 0xFFFFFFFFFFFFFFFFULL};
  ck.order = {2, 0, 1};
  ck.epochs = 17;
  ck.next_session = 42;
  ck.initial_makespan = 0.1;  // not exactly representable: bit test
  ck.best_makespan = 1.0 / 3.0;
  ck.exchanges = 7;
  ck.changed_exchanges = 4;
  ck.migrations = 9;
  ck.conflicts = 2;
  ck.peer_retries = 5;
  ck.live = {1, 0, 1};
  ck.assignment = {0, kUnassigned, 2, 0, 2};
  ck.loads = {0.1 + 0.2, 0.0, 12.75};
  ck.churn_cursor = 3;
  ck.churn_queue = {1};
  ck.churn = {1, 2, 3, 4, 3};
  ck.obs_counters = {{"churn.crashes", 3}, {"parexchange.sessions", 7}};

  std::stringstream bytes;
  ck.save(bytes);
  const Checkpoint loaded = Checkpoint::load(bytes);

  EXPECT_EQ(loaded.engine, ck.engine);
  EXPECT_EQ(loaded.seed, ck.seed);
  EXPECT_EQ(loaded.num_machines, ck.num_machines);
  EXPECT_EQ(loaded.num_jobs, ck.num_jobs);
  EXPECT_EQ(loaded.rng_state, ck.rng_state);
  EXPECT_EQ(loaded.order, ck.order);
  EXPECT_EQ(loaded.epochs, ck.epochs);
  EXPECT_EQ(loaded.next_session, ck.next_session);
  EXPECT_EQ(loaded.initial_makespan, ck.initial_makespan);
  EXPECT_EQ(loaded.best_makespan, ck.best_makespan);
  EXPECT_EQ(loaded.exchanges, ck.exchanges);
  EXPECT_EQ(loaded.changed_exchanges, ck.changed_exchanges);
  EXPECT_EQ(loaded.migrations, ck.migrations);
  EXPECT_EQ(loaded.conflicts, ck.conflicts);
  EXPECT_EQ(loaded.peer_retries, ck.peer_retries);
  EXPECT_EQ(loaded.live, ck.live);
  EXPECT_EQ(loaded.assignment, ck.assignment);
  EXPECT_EQ(loaded.loads, ck.loads);
  EXPECT_EQ(loaded.churn_cursor, ck.churn_cursor);
  EXPECT_EQ(loaded.churn_queue, ck.churn_queue);
  EXPECT_EQ(loaded.churn.joins, ck.churn.joins);
  EXPECT_EQ(loaded.churn.redispatched, ck.churn.redispatched);
  EXPECT_EQ(loaded.obs_counters, ck.obs_counters);

  // Byte-determinism of the format itself: re-saving reproduces the bytes.
  std::stringstream again;
  loaded.save(again);
  std::stringstream original;
  ck.save(original);
  EXPECT_EQ(again.str(), original.str());
}

TEST(Checkpoint, LoadRejectsWrongHeader) {
  std::stringstream bytes("dlb-instance v1\n");
  EXPECT_THROW((void)Checkpoint::load(bytes), std::runtime_error);

  // Section counts are untrusted: a count past the header's machine count
  // is a named error, and one the header allows grows as entries arrive
  // (so a lying count hits end-of-input instead of allocating).
  Checkpoint small;
  small.num_machines = 3;
  small.num_jobs = 5;
  std::stringstream saved;
  small.save(saved);
  const auto load_error = [](std::string text) -> std::string {
    std::stringstream in(text);
    try {
      (void)Checkpoint::load(in);
    } catch (const std::runtime_error& e) {
      return e.what();
    }
    return "(loaded)";
  };
  std::string huge = saved.str();
  huge.replace(huge.find("order 0"), 7, "order 4611686018427387904");
  EXPECT_EQ(load_error(huge),
            "Checkpoint::load: order count 4611686018427387904 exceeds the "
            "header's machines (3)");
  std::string huge_shape = huge;
  huge_shape.replace(huge_shape.find("machines 3"), 10,
                     "machines 4611686018427387904");
  EXPECT_EQ(load_error(huge_shape),
            "Checkpoint::load: truncated order permutation");
  // An id past the id type's range is rejected, not truncated.
  std::string wide = saved.str();
  wide.replace(wide.find("assignment 0"), 12, "assignment 1\n4294967296");
  EXPECT_EQ(load_error(wide),
            "Checkpoint::load: bad assignment entry \"4294967296\"");

  // Shrunk reproducers: each crashed `dlbsim balance --resume` before ids
  // were bounded by the header.
  const std::vector<std::pair<std::string, std::string>> reproducers = {
      {"checkpoint_seq_order_out_of_range.ckpt",
       "Checkpoint::load: order permutation entry 4000000000 is out of "
       "range for the header's machines (3)"},
      {"checkpoint_parallel_order_out_of_range.ckpt",
       "Checkpoint::load: order permutation entry 4000000000 is out of "
       "range for the header's machines (3)"},
  };
  for (const auto& [file, expected] : reproducers) {
    EXPECT_EQ(load_error(corpus::read_rejected(file)), expected) << file;
  }
  // Repeated order entries and out-of-range ids in the other id rows are
  // named too.
  const std::string seq =
      corpus::read_rejected("checkpoint_seq_order_out_of_range.ckpt");
  std::string repeated = seq;
  repeated.replace(repeated.find("1 2 4000000000"), 14, "1 2 1");
  EXPECT_EQ(load_error(repeated),
            "Checkpoint::load: order permutation repeats entry 1");
  std::string off_machine = seq;
  off_machine.replace(off_machine.find("1 2 4000000000"), 14, "1 2 0");
  off_machine.replace(off_machine.find("2 1 0 1 0 2"), 11, "2 1 0 1 3 2");
  EXPECT_EQ(load_error(off_machine),
            "Checkpoint::load: assignment entry 3 is out of range for the "
            "header's machines (3)");
  std::string off_job = seq;
  off_job.replace(off_job.find("1 2 4000000000"), 14, "1 2 0");
  off_job.replace(off_job.find("churn_queue 0"), 13, "churn_queue 1\n6");
  EXPECT_EQ(load_error(off_job),
            "Checkpoint::load: churn queue entry 6 is out of range for the "
            "header's jobs (6)");
  std::string parallel = corpus::read_rejected(
      "checkpoint_parallel_order_out_of_range.ckpt");
  parallel.replace(parallel.find("2 1 4000000000"), 14, "2 1 0");
  EXPECT_EQ(load_error(parallel), "(loaded)");
}

TEST(Checkpoint, MakeScheduleRejectsShapeMismatch) {
  Checkpoint ck;
  ck.num_machines = 3;
  ck.num_jobs = 5;
  const Instance inst = gen::identical_uniform(4, 5, 1.0, 2.0, 1);
  EXPECT_THROW((void)ck.make_schedule(inst), std::invalid_argument);
}

TEST(Checkpoint, ObsCounterHelperSortsAndOmitsZeros) {
  ChurnCounters churn;
  churn.crashes = 2;
  churn.orphaned = 5;
  const auto counters = checkpoint_obs_counters(
      {{"z.last", 1}, {"a.first", 0}, {"m.mid", 3}}, churn);
  const std::vector<std::pair<std::string, std::uint64_t>> expected = {
      {"churn.crashes", 2}, {"churn.orphaned", 5}, {"m.mid", 3},
      {"z.last", 1}};
  EXPECT_EQ(counters, expected);
}

// ----- restore equivalence: the tentpole contract -----
//
// checkpoint at epoch k + restore + run to completion == one uninterrupted
// run, bitwise: report JSON, final schedule fingerprint, obs counters and
// the post-k trace events — at any thread count.

struct SeqRun {
  RunResult result;
  std::uint64_t fingerprint = 0;
  obs::Metrics metrics;
  obs::Tracer tracer;
};

void run_seq(SeqRun& run, const Instance& inst, const ChurnPlan& plan,
             const Checkpoint* resume, std::optional<std::uint64_t> halt,
             Checkpoint* out) {
  const pairwise::BasicGreedyKernel kernel;
  const UniformPeerSelector selector;
  EngineOptions options;
  options.max_exchanges = 150;
  options.churn = &plan;
  options.resume = resume;
  options.halt_after_epoch = halt;
  options.checkpoint_out = out;
  const obs::Context context{&run.metrics, &run.tracer};
  options.obs = &context;
  Schedule schedule = resume != nullptr
                          ? resume->make_schedule(inst)
                          : Schedule(inst, gen::random_assignment(inst, 2));
  stats::Rng rng(3);
  run.result = ExchangeEngine(kernel, selector).run(schedule, options, rng);
  run.fingerprint = schedule.fingerprint();
}

TEST(CheckpointRestore, SequentialRunResumesBitwiseIdentically) {
  const Instance inst = gen::identical_uniform(5, 30, 1.0, 10.0, 1);
  ChurnPlan plan;
  plan.seed = 4;
  plan.events = {{2, ChurnKind::kCrash, 4},
                 {4, ChurnKind::kDrain, 3},
                 {6, ChurnKind::kJoin, 4}};

  SeqRun uninterrupted;
  run_seq(uninterrupted, inst, plan, nullptr, std::nullopt, nullptr);
  ASSERT_GT(uninterrupted.result.epochs, 4u);

  // Halt at an interior epoch and snapshot.
  Checkpoint snapshot;
  SeqRun halted;
  run_seq(halted, inst, plan, nullptr, uninterrupted.result.epochs / 2,
          &snapshot);
  ASSERT_TRUE(halted.result.halted);

  // Round-trip through the text format, then finish the run.
  std::stringstream bytes;
  snapshot.save(bytes);
  const Checkpoint restored = Checkpoint::load(bytes);
  SeqRun resumed;
  run_seq(resumed, inst, plan, &restored, std::nullopt, nullptr);

  EXPECT_EQ(resumed.fingerprint, uninterrupted.fingerprint);
  EXPECT_EQ(resumed.result.to_json().dump(),
            uninterrupted.result.to_json().dump());
  EXPECT_EQ(resumed.metrics.snapshot().dump(),
            uninterrupted.metrics.snapshot().dump());
  expect_trace_suffix(uninterrupted.tracer, resumed.tracer);
}

struct ParRun {
  ParallelRunResult result;
  std::uint64_t fingerprint = 0;
  obs::Metrics metrics;
  obs::Tracer tracer;
};

void run_par(ParRun& run, const Instance& inst, const ChurnPlan& plan,
             parallel::ThreadPool* pool, const Checkpoint* resume,
             std::optional<std::uint64_t> halt, Checkpoint* out) {
  const pairwise::BasicGreedyKernel kernel;
  const UniformPeerSelector selector;
  ParallelEngineOptions options;
  options.max_exchanges = 140;
  options.churn = &plan;
  options.pool = pool;
  options.resume = resume;
  options.halt_after_epoch = halt;
  options.checkpoint_out = out;
  const obs::Context context{&run.metrics, &run.tracer};
  options.obs = &context;
  Schedule schedule = resume != nullptr
                          ? resume->make_schedule(inst)
                          : Schedule(inst, gen::random_assignment(inst, 5));
  run.result =
      ParallelExchangeEngine(kernel, selector).run(schedule, options, 6);
  run.fingerprint = schedule.fingerprint();
}

TEST(CheckpointRestore, ParallelRunResumesBitwiseIdenticallyAtAnyThreadCount) {
  const Instance inst = gen::identical_uniform(8, 48, 1.0, 10.0, 4);
  ChurnPlan plan;
  plan.seed = 7;
  plan.events = {{2, ChurnKind::kCrash, 7},
                 {3, ChurnKind::kDrain, 6},
                 {5, ChurnKind::kJoin, 7}};

  ParRun uninterrupted;
  run_par(uninterrupted, inst, plan, nullptr, nullptr, std::nullopt,
          nullptr);
  ASSERT_GT(uninterrupted.result.epochs, 4u);
  const std::uint64_t halt_epoch = uninterrupted.result.epochs / 2;

  parallel::ThreadPool pool(8);
  // Halt on one thread count, resume on another: the checkpoint must be
  // interchangeable because every snapshot happens in a sequential phase.
  for (parallel::ThreadPool* halt_pool :
       {static_cast<parallel::ThreadPool*>(nullptr), &pool}) {
    Checkpoint snapshot;
    ParRun halted;
    run_par(halted, inst, plan, halt_pool, nullptr, halt_epoch, &snapshot);
    ASSERT_TRUE(halted.result.halted);

    std::stringstream bytes;
    snapshot.save(bytes);
    const Checkpoint restored = Checkpoint::load(bytes);
    for (parallel::ThreadPool* resume_pool :
         {static_cast<parallel::ThreadPool*>(nullptr), &pool}) {
      ParRun resumed;
      run_par(resumed, inst, plan, resume_pool, &restored, std::nullopt,
              nullptr);
      EXPECT_EQ(resumed.fingerprint, uninterrupted.fingerprint);
      EXPECT_EQ(resumed.result.to_json().dump(),
                uninterrupted.result.to_json().dump());
      EXPECT_EQ(resumed.metrics.snapshot().dump(),
                uninterrupted.metrics.snapshot().dump());
      expect_trace_suffix(uninterrupted.tracer, resumed.tracer);
    }
  }
}

TEST(CheckpointRestore, SequentialEngineRejectsForeignCheckpoint) {
  const Instance inst = gen::identical_uniform(3, 9, 1.0, 2.0, 8);
  Checkpoint ck;
  ck.engine = Checkpoint::Engine::kParallel;
  ck.num_machines = 3;
  ck.num_jobs = 9;
  const pairwise::BasicGreedyKernel kernel;
  const UniformPeerSelector selector;
  EngineOptions options;
  options.resume = &ck;
  Schedule schedule(inst, Assignment::round_robin(9, 3));
  stats::Rng rng(9);
  EXPECT_THROW(
      (void)ExchangeEngine(kernel, selector).run(schedule, options, rng),
      std::invalid_argument);
  try {
    (void)ExchangeEngine(kernel, selector).run(schedule, options, rng);
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(),
                 "ExchangeEngine: checkpoint does not match this run (engine "
                 "kind or instance shape differs)");
  }
}

TEST(CheckpointRestore, ParallelEngineRejectsSeedMismatch) {
  const Instance inst = gen::identical_uniform(4, 12, 1.0, 2.0, 10);
  const pairwise::BasicGreedyKernel kernel;
  const UniformPeerSelector selector;
  const ParallelExchangeEngine engine(kernel, selector);

  Checkpoint snapshot;
  ParallelEngineOptions options;
  options.max_exchanges = 60;
  options.halt_after_epoch = 1;
  options.checkpoint_out = &snapshot;
  Schedule schedule(inst, Assignment::round_robin(12, 4));
  const ParallelRunResult halted = engine.run(schedule, options, 11);
  ASSERT_TRUE(halted.halted);

  ParallelEngineOptions resume_options;
  resume_options.resume = &snapshot;
  Schedule resumed = snapshot.make_schedule(inst);
  EXPECT_THROW((void)engine.run(resumed, resume_options, 12),
               std::invalid_argument);
  try {
    (void)engine.run(resumed, resume_options, 12);
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(),
                 "ParallelExchangeEngine: checkpoint does not match this run "
                 "(engine kind, seed, or instance shape differs)");
  }
}

}  // namespace
}  // namespace dlb::dist
