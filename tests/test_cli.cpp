#include "cli/args.hpp"
#include "cli/commands.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <sstream>

#include "rejected_corpus.hpp"
#include "stats/json.hpp"

namespace dlb::cli {
namespace {

// ---- Args parser ----

TEST(Args, ParsesPositionalsAndOptions) {
  const Args args = Args::parse({"pos1", "--key", "value", "pos2", "--flag"});
  EXPECT_EQ(args.positional(), (std::vector<std::string>{"pos1", "pos2"}));
  EXPECT_EQ(args.get("key", ""), "value");
  EXPECT_TRUE(args.has("flag"));
  EXPECT_FALSE(args.has("missing"));
}

TEST(Args, TypedGettersAndDefaults) {
  const Args args = Args::parse({"--n", "42", "--x", "2.5", "--s", "7"});
  EXPECT_EQ(args.get_int("n", 0), 42);
  EXPECT_DOUBLE_EQ(args.get_double("x", 0.0), 2.5);
  EXPECT_EQ(args.get_seed("s", 0), 7u);
  EXPECT_EQ(args.get_int("absent", -1), -1);
  EXPECT_DOUBLE_EQ(args.get_double("absent", 1.5), 1.5);
}

TEST(Args, RejectsMalformedNumbers) {
  const Args args = Args::parse({"--n", "4x", "--neg", "-3"});
  EXPECT_THROW((void)args.get_int("n", 0), std::invalid_argument);
  EXPECT_THROW((void)args.get_seed("neg", 0), std::invalid_argument);
}

TEST(Args, RequireThrowsWhenMissing) {
  const Args args = Args::parse({"--present", "x"});
  EXPECT_EQ(args.require("present"), "x");
  EXPECT_THROW((void)args.require("absent"), std::invalid_argument);
}

TEST(Args, TracksUnusedOptions) {
  const Args args = Args::parse({"--used", "1", "--typo", "2"});
  (void)args.get_int("used", 0);
  const auto unused = args.unused();
  ASSERT_EQ(unused.size(), 1u);
  EXPECT_EQ(unused.front(), "typo");
}

// ---- command round trips ----

struct CommandResult {
  int code;
  std::string out;
  std::string err;
};

CommandResult run(const std::vector<std::string>& argv) {
  std::ostringstream out;
  std::ostringstream err;
  const int code = run_command(argv, out, err);
  return {code, out.str(), err.str()};
}

std::string temp_path(const char* name) {
  return ::testing::TempDir() + "/" + name;
}

TEST(Commands, HelpSucceeds) {
  const auto result = run({"help"});
  EXPECT_EQ(result.code, 0);
  EXPECT_NE(result.out.find("usage:"), std::string::npos);
}

TEST(Commands, UnknownCommandIsUsageError) {
  const auto result = run({"frobnicate"});
  EXPECT_EQ(result.code, 2);
  EXPECT_NE(result.err.find("unknown command"), std::string::npos);
}

TEST(Commands, UnknownOptionIsRejected) {
  const auto result = run({"markov", "--m", "4", "--oops", "1"});
  EXPECT_EQ(result.code, 2);
  EXPECT_NE(result.err.find("--oops"), std::string::npos);
}

TEST(Commands, GenInfoSolveBalancePipeline) {
  const std::string path = temp_path("cli_pipeline.inst");
  const auto gen = run({"gen", "--kind", "two-cluster", "--m1", "4", "--m2",
                        "2", "--jobs", "48", "--hi", "100", "--out", path});
  ASSERT_EQ(gen.code, 0) << gen.err;
  EXPECT_NE(gen.out.find("6 machines"), std::string::npos);

  const auto info = run({"info", "--in", path});
  ASSERT_EQ(info.code, 0) << info.err;
  EXPECT_NE(info.out.find("jobs          : 48"), std::string::npos);
  EXPECT_NE(info.out.find("LB fractional"), std::string::npos);

  const auto solve = run({"solve", "--in", path, "--alg", "clb2c"});
  ASSERT_EQ(solve.code, 0) << solve.err;
  EXPECT_NE(solve.out.find("makespan"), std::string::npos);

  const std::string trace = temp_path("cli_trace.csv");
  const auto balance = run({"balance", "--in", path, "--alg", "dlb2c",
                            "--exchanges-per-machine", "5", "--trace", trace});
  ASSERT_EQ(balance.code, 0) << balance.err;
  EXPECT_NE(balance.out.find("final factor"), std::string::npos);
  EXPECT_NE(balance.out.find("trace written"), std::string::npos);

  std::ifstream trace_file(trace);
  std::string header;
  std::getline(trace_file, header);
  // Old 2-column format first, new columns appended (script compatibility).
  EXPECT_EQ(header, "exchange,makespan,changed,migrations");
  std::string first_row;
  std::getline(trace_file, first_row);
  EXPECT_EQ(first_row.rfind("1,", 0), 0u);
  EXPECT_EQ(std::count(first_row.begin(), first_row.end(), ','), 3);
}

std::string slurp(const std::string& path) {
  std::ifstream file(path);
  std::ostringstream text;
  text << file.rdbuf();
  return text.str();
}

TEST(Commands, BalanceWritesStructurallyValidObsJson) {
  const std::string path = temp_path("cli_obs.inst");
  ASSERT_EQ(run({"gen", "--kind", "two-cluster", "--m1", "4", "--m2", "2",
                 "--jobs", "48", "--hi", "100", "--out", path})
                .code,
            0);
  const std::string trace_json = temp_path("cli_obs_trace.json");
  const std::string metrics_json = temp_path("cli_obs_metrics.json");
  const auto balance =
      run({"balance", "--in", path, "--exchanges-per-machine", "4",
           "--trace-json", trace_json, "--metrics-json", metrics_json});
  ASSERT_EQ(balance.code, 0) << balance.err;
  EXPECT_NE(balance.out.find("trace-json"), std::string::npos);
  EXPECT_NE(balance.out.find("metrics-json"), std::string::npos);

  // The Chrome trace must parse, carry the expected top-level shape, and
  // every exchange span must contribute a begin and an end event.
  const stats::Json trace_doc = stats::Json::parse(slurp(trace_json));
  ASSERT_TRUE(trace_doc.is_object());
  EXPECT_EQ(trace_doc.find("displayTimeUnit")->as_string(), "ms");
  const stats::Json* events = trace_doc.find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->is_array());
  ASSERT_EQ(events->size(), 2 * 6 * 4u);  // m machines * 4 exchanges, B+E
  double previous_ts = 0.0;
  std::size_t begins = 0;
  std::size_t ends = 0;
  for (const stats::Json& event : events->as_array()) {
    const std::string& phase = event.find("ph")->as_string();
    if (phase == "B") ++begins;
    if (phase == "E") ++ends;
    const double ts = event.find("ts")->as_number();
    EXPECT_GE(ts, previous_ts);  // export sorts by timestamp
    previous_ts = ts;
  }
  EXPECT_EQ(begins, ends);

  const stats::Json metrics_doc = stats::Json::parse(slurp(metrics_json));
  ASSERT_TRUE(metrics_doc.is_object());
  const stats::Json* counters = metrics_doc.find("counters");
  ASSERT_NE(counters, nullptr);
  EXPECT_DOUBLE_EQ(counters->find("exchange.count")->as_number(), 24.0);
  EXPECT_NE(metrics_doc.find("gauges")->find("exchange.cmax"), nullptr);
}

TEST(Commands, SimulateRunsAsyncProtocolWithObsOutputs) {
  const std::string path = temp_path("cli_sim.inst");
  ASSERT_EQ(run({"gen", "--kind", "two-cluster", "--m1", "4", "--m2", "2",
                 "--jobs", "48", "--hi", "100", "--out", path})
                .code,
            0);
  const std::string trace = temp_path("cli_sim_trace.csv");
  const std::string metrics_json = temp_path("cli_sim_metrics.json");
  const auto simulate = run({"simulate", "--in", path, "--duration", "10",
                             "--trace", trace, "--metrics-json",
                             metrics_json});
  ASSERT_EQ(simulate.code, 0) << simulate.err;
  EXPECT_NE(simulate.out.find("(async)"), std::string::npos);
  EXPECT_NE(simulate.out.find("sessions"), std::string::npos);

  std::ifstream trace_file(trace);
  std::string header;
  std::getline(trace_file, header);
  EXPECT_EQ(header, "time,makespan");

  const stats::Json metrics_doc = stats::Json::parse(slurp(metrics_json));
  const stats::Json* counters = metrics_doc.find("counters");
  ASSERT_NE(counters, nullptr);
  EXPECT_NE(counters->find("async.sessions.completed"), nullptr);
  EXPECT_NE(counters->find("net.messages"), nullptr);
  EXPECT_NE(counters->find("des.events"), nullptr);
}

TEST(Commands, SimulateRejectsUnknownAlgorithm) {
  const std::string path = temp_path("cli_sim_bad.inst");
  ASSERT_EQ(run({"gen", "--kind", "identical", "--m", "3", "--jobs", "12",
                 "--out", path})
                .code,
            0);
  const auto result = run({"simulate", "--in", path, "--alg", "nope"});
  EXPECT_EQ(result.code, 2);
  EXPECT_NE(result.err.find("unknown --alg"), std::string::npos);
}

TEST(Commands, BalanceRejectsUnknownCostModelListingValidKinds) {
  const std::string path = temp_path("cli_cm_bad.inst");
  ASSERT_EQ(run({"gen", "--kind", "identical", "--m", "3", "--jobs", "12",
                 "--out", path})
                .code,
            0);
  const auto result =
      run({"balance", "--in", path, "--cost-model", "gamma:2"});
  EXPECT_EQ(result.code, 2);
  EXPECT_NE(result.err.find("--cost-model"), std::string::npos);
  EXPECT_NE(result.err.find("unknown distribution 'gamma'"),
            std::string::npos);
  EXPECT_NE(result.err.find("det, normal, lognormal, pareto"),
            std::string::npos);
}

TEST(Commands, BalanceRejectsMalformedCostModelParameters) {
  const std::string path = temp_path("cli_cm_arity.inst");
  ASSERT_EQ(run({"gen", "--kind", "identical", "--m", "3", "--jobs", "12",
                 "--out", path})
                .code,
            0);
  const auto result =
      run({"balance", "--in", path, "--cost-model", "pareto:2,1"});
  EXPECT_EQ(result.code, 2);
  EXPECT_NE(result.err.find("--cost-model"), std::string::npos);
  EXPECT_NE(result.err.find("pareto expects 3 parameters alpha,lo,hi"),
            std::string::npos);
}

TEST(Commands, BalanceRejectsUnknownStochasticKernelListingTheValidSet) {
  const std::string path = temp_path("cli_cm_alg.inst");
  ASSERT_EQ(run({"gen", "--kind", "identical", "--m", "3", "--jobs", "12",
                 "--out", path})
                .code,
            0);
  const auto result = run({"balance", "--in", path, "--alg", "dlb2c_q99",
                           "--cost-model", "normal:0.3"});
  EXPECT_EQ(result.code, 2);
  EXPECT_NE(result.err.find("unknown --alg 'dlb2c_q99'"), std::string::npos);
  EXPECT_NE(result.err.find("dlb2c_q95"), std::string::npos);
  EXPECT_NE(result.err.find("dlb2c_effsize"), std::string::npos);
}

TEST(Commands, BalanceWithStochasticKernelReportsRiskFields) {
  const std::string path = temp_path("cli_cm_risk.inst");
  ASSERT_EQ(run({"gen", "--kind", "two-cluster", "--m1", "4", "--m2", "2",
                 "--jobs", "48", "--hi", "100", "--out", path})
                .code,
            0);
  const std::string metrics = temp_path("cli_cm_risk_metrics.json");
  const auto result =
      run({"balance", "--in", path, "--alg", "dlb2c_q95", "--peer",
           "max-load_q95", "--cost-model", "lognormal:0.5",
           "--exchanges-per-machine", "5", "--metrics-json", metrics});
  ASSERT_EQ(result.code, 0) << result.err;
  EXPECT_NE(result.out.find("final factor"), std::string::npos);
}

TEST(Commands, SolveEveryAlgorithmOnASmallInstance) {
  const std::string path = temp_path("cli_algs.inst");
  ASSERT_EQ(run({"gen", "--kind", "two-cluster", "--m1", "2", "--m2", "1",
                 "--jobs", "8", "--hi", "20", "--out", path})
                .code,
            0);
  for (const char* alg : {"list", "lpt", "ect", "minmin", "maxmin",
                          "sufferage", "clb2c", "lenstra", "exact"}) {
    const auto result = run({"solve", "--in", path, "--alg", alg});
    EXPECT_EQ(result.code, 0) << alg << ": " << result.err;
  }
}

TEST(Commands, BalanceMjtbRequiresTypedInstance) {
  const std::string typed = temp_path("cli_typed.inst");
  ASSERT_EQ(run({"gen", "--kind", "typed", "--m", "4", "--jobs", "24",
                 "--types", "3", "--hi", "10", "--out", typed})
                .code,
            0);
  const auto ok = run({"balance", "--in", typed, "--alg", "mjtb",
                       "--exchanges-per-machine", "20"});
  EXPECT_EQ(ok.code, 0) << ok.err;

  const std::string untyped = temp_path("cli_untyped.inst");
  ASSERT_EQ(run({"gen", "--kind", "identical", "--m", "4", "--jobs", "8",
                 "--out", untyped})
                .code,
            0);
  const auto bad = run({"balance", "--in", untyped, "--alg", "mjtb"});
  EXPECT_EQ(bad.code, 2);  // surfaced as a usage error
}

TEST(Commands, MarkovEmitsCsvPdf) {
  const auto result = run({"markov", "--m", "4", "--pmax", "2"});
  ASSERT_EQ(result.code, 0) << result.err;
  EXPECT_NE(result.out.find("makespan,normalized,probability"),
            std::string::npos);
  EXPECT_NE(result.out.find("thm10_bound"), std::string::npos);
}

TEST(Commands, MissingInputFileFailsCleanly) {
  const auto result = run({"solve", "--in", "/nonexistent/x.inst"});
  EXPECT_EQ(result.code, 1);
  EXPECT_FALSE(result.err.empty());
}

TEST(Commands, GenMultiClusterAndDlbkcBalance) {
  const std::string path = temp_path("cli_multi.inst");
  const auto gen = run({"gen", "--kind", "multi", "--sizes", "3,2,2",
                        "--jobs", "42", "--hi", "50", "--out", path});
  ASSERT_EQ(gen.code, 0) << gen.err;
  EXPECT_NE(gen.out.find("7 machines (3 groups)"), std::string::npos);
  const auto balance = run({"balance", "--in", path, "--alg", "dlbkc",
                            "--exchanges-per-machine", "10"});
  EXPECT_EQ(balance.code, 0) << balance.err;
}

TEST(Commands, GenMultiRejectsMalformedSizes) {
  const auto result = run({"gen", "--kind", "multi", "--sizes", "3,x",
                           "--out", temp_path("bad.inst")});
  EXPECT_EQ(result.code, 2);
  const auto zero = run({"gen", "--kind", "multi", "--sizes", "0,2",
                         "--out", temp_path("bad2.inst")});
  EXPECT_EQ(zero.code, 2);
}

TEST(Commands, GenRejectsUnknownKind) {
  const auto result =
      run({"gen", "--kind", "quantum", "--out", temp_path("x.inst")});
  EXPECT_EQ(result.code, 2);
}

// ---- serve (open-system workload) ----

TEST(Commands, ServeRunsOpenSystemAndWritesTrace) {
  const std::string path = temp_path("cli_serve.inst");
  ASSERT_EQ(run({"gen", "--kind", "two-cluster", "--m1", "3", "--m2", "2",
                 "--jobs", "40", "--hi", "60", "--out", path})
                .code,
            0);
  const std::string trace = temp_path("cli_serve_trace.csv");
  const auto serve =
      run({"serve", "--in", path, "--arrivals", "poisson:0.05",
           "--placement", "two_choices:2", "--repair-every", "25",
           "--repair-budget", "8", "--seed", "9", "--trace", trace});
  ASSERT_EQ(serve.code, 0) << serve.err;
  EXPECT_NE(serve.out.find("open system"), std::string::npos);
  EXPECT_NE(serve.out.find("placement       : two_choices:2"),
            std::string::npos);
  EXPECT_NE(serve.out.find("arrivals        : poisson"), std::string::npos);
  EXPECT_NE(serve.out.find("submitted"), std::string::npos);
  std::ifstream csv(trace);
  ASSERT_TRUE(csv.good());
  std::string header;
  std::getline(csv, header);
  EXPECT_EQ(header, "burst,makespan");
}

TEST(Commands, ServeIsByteIdenticalAcrossRepairThreadCounts) {
  const std::string path = temp_path("cli_serve_par.inst");
  ASSERT_EQ(run({"gen", "--kind", "two-cluster", "--m1", "4", "--m2", "2",
                 "--jobs", "48", "--hi", "80", "--out", path})
                .code,
            0);
  std::vector<std::string> base = {
      "serve",          "--in",   path, "--arrivals", "bursty:0.1,0.01,50,25",
      "--repair-every", "20",     "--repair-budget", "6",
      "--repair-engine", "parallel", "--seed", "3"};
  const auto one = run([&] {
    auto argv = base;
    argv.insert(argv.end(), {"--threads", "1"});
    return argv;
  }());
  const auto eight = run([&] {
    auto argv = base;
    argv.insert(argv.end(), {"--threads", "8"});
    return argv;
  }());
  ASSERT_EQ(one.code, 0) << one.err;
  ASSERT_EQ(eight.code, 0) << eight.err;
  // The thread count is echoed in the header line; everything below it —
  // the whole report — must match byte for byte.
  const auto body = [](const std::string& text) {
    return text.substr(text.find('\n') + 1);
  };
  EXPECT_EQ(body(one.out), body(eight.out));
}

TEST(Commands, ServeHaltResumeMatchesUninterrupted) {
  const std::string path = temp_path("cli_serve_halt.inst");
  ASSERT_EQ(run({"gen", "--kind", "two-cluster", "--m1", "3", "--m2", "2",
                 "--jobs", "30", "--hi", "40", "--out", path})
                .code,
            0);
  const std::vector<std::string> common = {
      "serve", "--in", path, "--arrivals", "poisson:0.08",
      "--repair-every", "30", "--repair-budget", "4", "--seed", "17"};
  const auto full = run(common);
  ASSERT_EQ(full.code, 0) << full.err;

  const std::string checkpoint = temp_path("cli_serve.ckpt");
  auto halt_argv = common;
  halt_argv.insert(halt_argv.end(), {"--halt-after-events", "11",
                                     "--checkpoint", checkpoint});
  const auto halted = run(halt_argv);
  ASSERT_EQ(halted.code, 0) << halted.err;
  EXPECT_NE(halted.out.find("checkpoint      : " + checkpoint),
            std::string::npos);

  auto resume_argv = common;
  resume_argv.insert(resume_argv.end(), {"--resume", checkpoint});
  const auto resumed = run(resume_argv);
  ASSERT_EQ(resumed.code, 0) << resumed.err;
  // The resumed run's report block equals the uninterrupted run's; only
  // the "resumed from" line is extra.
  const auto report_of = [](const std::string& text) {
    return text.substr(text.find("initial"));
  };
  EXPECT_EQ(report_of(resumed.out), report_of(full.out));
}

TEST(Commands, ServeRejectsBadArrivalSpecs) {
  const std::string path = temp_path("cli_serve_bad.inst");
  ASSERT_EQ(run({"gen", "--kind", "identical", "--m", "3", "--jobs", "12",
                 "--out", path})
                .code,
            0);
  const auto bad_number =
      run({"serve", "--in", path, "--arrivals", "poisson:fast"});
  EXPECT_EQ(bad_number.code, 2);
  EXPECT_NE(bad_number.err.find("bad number 'fast'"), std::string::npos);
  const auto bad_arity =
      run({"serve", "--in", path, "--arrivals", "bursty:1,2"});
  EXPECT_EQ(bad_arity.code, 2);
  const auto bad_rate =
      run({"serve", "--in", path, "--arrivals", "poisson:0"});
  EXPECT_EQ(bad_rate.code, 2);
  EXPECT_NE(bad_rate.err.find("ArrivalPlan: invalid rate"),
            std::string::npos);
  const auto bad_placement = run({"serve", "--in", path, "--arrivals",
                                  "poisson:0.1", "--placement", "best_fit"});
  EXPECT_EQ(bad_placement.code, 2);
}

/// A runtime failure, not a usage error: exit 1 and one `dlbsim:` line
/// that holds `what`, with no usage page.
void expect_runtime_error(const CommandResult& result,
                          const std::string& what) {
  EXPECT_EQ(result.code, 1) << result.err;
  EXPECT_EQ(result.err.rfind("dlbsim: ", 0), 0u) << result.err;
  EXPECT_EQ(std::count(result.err.begin(), result.err.end(), '\n'), 1)
      << result.err;
  EXPECT_NE(result.err.find(what), std::string::npos) << result.err;
}

TEST(Commands, ResumeRejectsDeadGeneratorCheckpoints) {
  // Shrunk reproducers: each checkpoint holds the all-zero xoshiro state,
  // a fixed point that never draws again, and resuming it hung.
  const std::string base = corpus::rejected_path("resume_base.inst");
  const auto balance =
      run({"balance", "--in", base, "--seed", "7",
           "--exchanges-per-machine", "6", "--resume",
           corpus::rejected_path("checkpoint_seq_rng_all_zero.ckpt")});
  const std::string dead = "Rng::from_state: all-zero state (a dead generator)";
  expect_runtime_error(balance, dead);
  for (const std::string key : {"place_rng", "repair_rng"}) {
    const auto serve =
        run({"serve", "--in", base, "--arrivals", "poisson:0.01",
             "--num-arrivals", "6", "--repair-every", "1", "--resume",
             corpus::rejected_path("open_checkpoint_" + key +
                                   "_all_zero.ckpt")});
    SCOPED_TRACE(key);
    expect_runtime_error(serve, dead);
  }
}

TEST(Commands, RuntimeErrorsAreNotUsageErrors) {
  // A well-formed command line whose input the library refuses.
  const auto overflow = run(
      {"solve", "--in", corpus::rejected_path("cost_sum_overflow.inst")});
  expect_runtime_error(overflow, "Instance: costs: the jobs' largest costs");

  const std::string one_group = temp_path("cli_one_group.inst");
  ASSERT_EQ(run({"gen", "--kind", "identical", "--m", "3", "--jobs", "6",
                 "--out", one_group})
                .code,
            0);
  const auto clb2c = run({"solve", "--in", one_group, "--alg", "clb2c"});
  expect_runtime_error(clb2c, "clb2c_schedule: needs two populated clusters");

  // A checkpoint taken under seed 1 resumed under seed 2.
  const std::string base = corpus::rejected_path("resume_base.inst");
  const std::string checkpoint = temp_path("cli_seed1.ckpt");
  const std::vector<std::string> serve = {
      "serve", "--in", base, "--arrivals", "poisson:1.0", "--num-arrivals",
      "4"};
  auto halt = serve;
  halt.insert(halt.end(), {"--seed", "1", "--halt-after-events", "3",
                           "--checkpoint", checkpoint});
  ASSERT_EQ(run(halt).code, 0);
  auto resume = serve;
  resume.insert(resume.end(), {"--seed", "2", "--resume", checkpoint});
  expect_runtime_error(run(resume),
                       "checkpoint was taken under seed 1, run() got 2");
}

TEST(Commands, EmptyInstanceReportsFactorOne) {
  // No jobs means LB = 0; the empty schedule is optimal, so the reports
  // print factor 1 rather than 0/0.
  const std::string path = temp_path("cli_empty.inst");
  {
    std::ofstream out(path);
    out << "dlb-instance v1\nmachines 2 groups 1 jobs 0\ngroup_of 0 0\n"
           "scales 1 1\ncosts\n\n";
  }
  const auto solve = run({"solve", "--in", path});
  ASSERT_EQ(solve.code, 0) << solve.err;
  EXPECT_NE(solve.out.find("factor    : 1\n"), std::string::npos)
      << solve.out;
  for (const std::string command : {"balance", "simulate"}) {
    const auto report = run({command, "--in", path, "--alg", "basic-greedy"});
    ASSERT_EQ(report.code, 0) << report.err;
    EXPECT_NE(report.out.find("final factor    : 1\n"), std::string::npos)
        << report.out;
    EXPECT_EQ(report.out.find("nan"), std::string::npos) << report.out;
  }
}

}  // namespace
}  // namespace dlb::cli
