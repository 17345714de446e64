// dlb_perfbench: the benchmark binary behind perfbench/run.py.
//
//   dlb_perfbench prepare --workload W --seed N --dir DIR
//       Generates W's seeded inputs into DIR (untimed; run.py caches DIR).
//   dlb_perfbench run --workload W --seed N --seconds S --trace 0|1
//                     --inputs DIR --work-dir DIR
//       Repeats W for S seconds after one reference repetition and prints
//       one JSON record: correctness, operation counts, the metrics of the
//       chosen mode, and the environment. Exit 0 when every check passed,
//       1 when a correctness gate failed, 2 on bad usage or set-up errors.
//
// Every timing is rescaled to a nominal host speed by a probe run between
// repetitions (host_speed.hpp).
//
// --trace 0 times the library's objects directly and reports the
// end-to-end metrics. --trace 1 alternates untraced repetitions with
// repetitions routed through the timing decorators (probe.hpp), requires
// both to produce the identical digest, re-runs pool-invariant workloads on
// a one-thread pool, and reports the per-layer metrics.

#include <malloc.h>
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "host_speed.hpp"
#include "parallel/thread_pool.hpp"
#include "probe.hpp"
#include "stats/json.hpp"
#include "workloads.hpp"

namespace {

using perfbench::Count;
using perfbench::Layer;
using perfbench::Probe;
using perfbench::Rep;

struct Args {
  std::string command;
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  int trace = 0;
  std::string dir;
  std::string inputs;
  std::string work_dir;
};

Args parse_args(int argc, char** argv) {
  if (argc < 2) throw std::invalid_argument("missing command (prepare|run)");
  Args args;
  args.command = argv[1];
  for (int i = 2; i < argc; i += 2) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument(flag + " needs a value");
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      args.seconds = std::stod(value);
    } else if (flag == "--trace") {
      args.trace = std::stoi(value);
    } else if (flag == "--dir") {
      args.dir = value;
    } else if (flag == "--inputs") {
      args.inputs = value;
    } else if (flag == "--work-dir") {
      args.work_dir = value;

    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  if (args.workload.empty()) throw std::invalid_argument("missing --workload");
  if (args.command == "run" &&
      (args.inputs.empty() || args.work_dir.empty() || args.seconds <= 0.0 ||
       (args.trace != 0 && args.trace != 1))) {
    throw std::invalid_argument(
        "run needs --inputs, --work-dir, --seconds > 0 and --trace 0|1");
  }
  if (args.command == "prepare" && args.dir.empty()) {
    throw std::invalid_argument("prepare needs --dir");
  }
  return args;
}

std::size_t online_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) == 0) {
    return static_cast<std::size_t>(std::max(1, CPU_COUNT(&set)));
  }
  return std::max(1U, std::thread::hardware_concurrency());
}

/// Size of the highest-level cache sysfs lists for cpu0; 0 if unreadable.
double llc_bytes() {
  int best_level = 0;
  double best = 0.0;
  for (int index = 0; index < 16; ++index) {
    const std::string base =
        "/sys/devices/system/cpu/cpu0/cache/index" + std::to_string(index);
    std::ifstream level_in(base + "/level");
    std::ifstream size_in(base + "/size");
    int level = 0;
    std::string size;
    if (!(level_in >> level) || !(size_in >> size) || size.empty()) continue;
    double bytes = std::strtod(size.c_str(), nullptr);
    if (size.back() == 'K') bytes *= 1024.0;
    if (size.back() == 'M') bytes *= 1024.0 * 1024.0;
    if (level >= best_level) {
      best_level = level;
      best = bytes;
    }
  }
  return best;
}

double peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double median_of(const std::vector<Rep>& reps,
                 const std::function<double(const Rep&)>& f) {
  std::vector<double> values;
  for (const Rep& rep : reps) values.push_back(f(rep));
  return median(values);
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

// Metric names and units; BENCHMARK.json lists the same, and run.py checks
// that the two agree.
const std::vector<std::pair<std::string, std::string>>& end_to_end_units() {
  static const std::vector<std::pair<std::string, std::string>> units = {
      {"setup_s", "s"},
      {"balance_s", "s"},
      {"jobs_migrated_per_s", "1/s"},
      {"sessions_per_s", "1/s"},
      {"events_per_s", "1/s"},
      {"cmax_over_lb", "ratio"},
      {"sessions_to_target", "count"},
      {"migrations_per_job", "ratio"},
      {"response_p50_vt", "vt"},
      {"response_p99_vt", "vt"},
      {"peak_rss_mb", "MiB"},
  };
  return units;
}

const std::vector<std::pair<std::string, std::string>>& per_layer_units() {
  static const std::vector<std::pair<std::string, std::string>> units = {
      {"core.store.open_s", "s"},
      {"core.schedule.build_s", "s"},
      {"core.makespan.ns_p50", "ns"},
      {"core.makespan.ns_p99", "ns"},
      {"core.move.ns_p50", "ns"},
      {"core.assign.ns_p50", "ns"},
      {"core.unassign.ns_p50", "ns"},
      {"pairwise.balance.calls", "count"},
      {"pairwise.balance.busy_s", "s"},
      {"pairwise.balance.ns_p50", "ns"},
      {"pairwise.balance.ns_p99", "ns"},
      {"pairwise.gather.ns_p50", "ns"},
      {"pairwise.gather.ns_p99", "ns"},
      {"pairwise.gather.share", "ratio"},
      {"pairwise.pool_jobs_mean", "count"},
      {"pairwise.changed_ratio", "ratio"},
      {"pairwise.migrations_per_call", "ratio"},
      {"dist.engine.self_s", "s"},
      {"dist.engine.kernel_share", "ratio"},
      {"dist.select.calls", "count"},
      {"dist.select.ns_p50", "ns"},
      {"dist.epochs", "count"},
      {"dist.conflict_ratio", "ratio"},
      {"dist.peer_retries", "count"},
      {"open_system.place.calls", "count"},
      {"open_system.place.ns_p50", "ns"},
      {"open_system.place.ns_p99", "ns"},
      {"open_system.repair.bursts", "count"},
      {"open_system.repair.busy_s", "s"},
      {"open_system.loop.self_s", "s"},
      {"open_system.loop.ns_per_event", "ns"},
      {"open_system.queue_p99", "count"},
      {"open_system.queue_max", "count"},
      {"net.frames_sent", "count"},
      {"net.bytes_sent", "bytes"},
      {"net.frames_per_session", "ratio"},
      {"net.send.ns_p50", "ns"},
      {"net.send.busy_s", "s"},
      {"net.poll.calls", "count"},
      {"net.poll.wait_s", "s"},
      {"net.handler.busy_s", "s"},
      {"net.session.rtt_us_p50", "us"},
      {"net.session.rtt_us_p99", "us"},
      {"net.retries", "count"},
      {"net.duplicates", "count"},
      {"net.kernel.busy_s", "s"},
      {"net.loop.self_s", "s"},
      {"obs.trace_overhead", "ratio"},
      {"obs.wall_s", "s"},
      {"obs.untraced_wall_s", "s"},
  };
  return units;
}

/// Per-layer metrics of one traced repetition. Self times are defined so
/// that, per workload, they add up to the repetition's wall time (the
/// fleet: to the sum of its endpoint loops' wall times); a negative
/// residual means spans overlap and fails the run.
std::map<std::string, double> layer_metrics(const std::string& workload,
                                            const Rep& rep,
                                            const Probe& probe,
                                            std::string& error) {
  std::map<std::string, double> m;
  for (const auto& [name, unit] : per_layer_units()) m[name] = 0.0;
  for (const auto& [name, value] : rep.facts) m[name] = value;

  const auto& balance = probe.layer(Layer::kBalance);
  const auto& gather = probe.layer(Layer::kGather);
  const auto& select = probe.layer(Layer::kSelect);
  const double calls = static_cast<double>(balance.calls);
  const double kernel_busy = balance.total_s() + gather.total_s();
  m["pairwise.balance.calls"] = calls;
  m["pairwise.balance.busy_s"] = balance.total_s();
  m["pairwise.balance.ns_p50"] = balance.percentile_ns(0.50);
  m["pairwise.balance.ns_p99"] = balance.percentile_ns(0.99);
  m["pairwise.gather.ns_p50"] = gather.percentile_ns(0.50);
  m["pairwise.gather.ns_p99"] = gather.percentile_ns(0.99);
  m["pairwise.gather.share"] =
      ratio(m["pairwise.gather.ns_p50"], m["pairwise.balance.ns_p50"]);
  m["pairwise.pool_jobs_mean"] =
      ratio(static_cast<double>(probe.count(Count::kPoolJobs)), calls);
  m["pairwise.changed_ratio"] =
      ratio(static_cast<double>(probe.count(Count::kChanged)), calls);
  m["pairwise.migrations_per_call"] =
      ratio(static_cast<double>(probe.count(Count::kMoved)), calls);
  m["dist.select.calls"] = static_cast<double>(select.calls);
  m["dist.select.ns_p50"] = select.percentile_ns(0.50);

  double wall = rep.wall_s;
  double residual = 0.0;
  if (workload == "closed_batch" || workload == "seq_sparse") {
    residual = rep.wall_s - kernel_busy / rep.kernel_threads - select.total_s();
    m["dist.engine.self_s"] = residual;
    m["dist.engine.kernel_share"] =
        ratio(kernel_busy, rep.wall_s * rep.kernel_threads);
  } else if (workload == "open_service") {
    const auto& place = probe.layer(Layer::kPlace);
    const double repair = kernel_busy / rep.kernel_threads + select.total_s();
    residual = rep.wall_s - place.total_s() - repair;
    m["open_system.place.calls"] = static_cast<double>(place.calls);
    m["open_system.place.ns_p50"] = place.percentile_ns(0.50);
    m["open_system.place.ns_p99"] = place.percentile_ns(0.99);
    m["open_system.repair.busy_s"] = repair;
    m["open_system.loop.self_s"] = residual;
    m["open_system.loop.ns_per_event"] = ratio(residual * 1e9, rep.events);
  } else {
    const auto& send = probe.layer(Layer::kSend);
    const auto& poll = probe.layer(Layer::kPoll);
    const auto& handler = probe.layer(Layer::kHandler);
    const auto& rtt = probe.layer(Layer::kRtt);
    wall = 0.0;
    for (const double w : rep.endpoint_wall_s) wall += w;
    residual = wall - static_cast<double>(probe.count(Count::kTopNs)) * 1e-9;
    const double frames = static_cast<double>(probe.count(Count::kFramesSent));
    m["net.frames_sent"] = frames;
    m["net.bytes_sent"] = static_cast<double>(probe.count(Count::kBytesSent));
    m["net.frames_per_session"] = ratio(frames, rep.sessions);
    m["net.send.ns_p50"] = send.percentile_ns(0.50);
    m["net.send.busy_s"] = send.total_s();
    m["net.poll.calls"] = static_cast<double>(poll.calls);
    m["net.poll.wait_s"] = poll.self_s();
    m["net.handler.busy_s"] = handler.self_s();
    m["net.session.rtt_us_p50"] = rtt.percentile_ns(0.50) * 1e-3;
    m["net.session.rtt_us_p99"] = rtt.percentile_ns(0.99) * 1e-3;
    m["net.kernel.busy_s"] = kernel_busy;
    m["net.loop.self_s"] = residual;
  }
  if (residual < -0.01 * wall) {
    error = "traced layer times exceed the wall time by " +
            std::to_string(-residual) + " s";
  }
  m["obs.wall_s"] = rep.wall_s;
  return m;
}

struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::string error;

  void account(const Rep& rep, const std::string& reference,
               const char* what) {
    attempted += rep.operations;
    if (!rep.error.empty()) failed += rep.operations;
    if (!error.empty()) return;
    if (!rep.error.empty()) {
      error = std::string(what) + ": " + rep.error;
    } else if (rep.digest != reference) {
      error = std::string(what) +
              ": deterministic outputs differ from the reference repetition";
    }
  }
};

int run(const Args& args) {
  // A fixed mmap threshold turns off glibc's adaptive one, which otherwise
  // moves after the first large free: later repetitions would reuse heap
  // pages the first one faulted in, and peak RSS would depend on the order
  // in which threads happened to free their buffers. Now every repetition
  // maps its large arrays fresh, as a new process would.
  mallopt(M_MMAP_THRESHOLD, 128 * 1024);
  const std::unique_ptr<perfbench::Workload> workload =
      perfbench::make_workload(args.workload, args.work_dir);
  workload->load(args.inputs, args.seed);
  const std::size_t cpus = online_cpus();
  const std::size_t threads = workload->pool_threads(cpus);
  std::optional<dlb::parallel::ThreadPool> pool_storage;
  if (threads > 0) pool_storage.emplace(threads);
  dlb::parallel::ThreadPool* const pool =
      pool_storage ? &*pool_storage : nullptr;

  // One reference repetition per variant; every later repetition must
  // reproduce its variant's digest. The host-speed probe runs between
  // repetitions, so each one is bracketed by two probes.
  const std::size_t variants = workload->variants();
  std::vector<Rep> references;
  Outcome outcome;
  const std::size_t probe_threads = std::max<std::size_t>(1, threads);
  double last_probe_s = perfbench::host_probe_s(probe_threads);
  std::vector<double> probes_s = {last_probe_s};
  const auto repeat = [&](std::size_t variant,
                          dlb::parallel::ThreadPool* on, Probe* probe,
                          const char* what) {
    Rep rep = workload->run(variant, on, probe);
    const double probe_s = perfbench::host_probe_s(probe_threads);
    rep.host_scale = perfbench::host_scale(last_probe_s, probe_s);
    last_probe_s = probe_s;
    probes_s.push_back(probe_s);
    rep.variant = variant;
    outcome.account(rep,
                    variant < references.size() ? references[variant].digest
                                                : rep.digest,
                    what);
    return rep;
  };
  for (std::size_t v = 0; v < variants; ++v) {
    references.push_back(repeat(v, pool, nullptr, "reference repetition"));
  }

  // Repetitions cycle through the variants and stop after a whole cycle
  // once --seconds have passed.
  std::vector<Rep> untraced;
  std::vector<Rep> traced;
  std::vector<std::map<std::string, double>> profiles;
  const std::uint64_t start = perfbench::now_ns();
  const auto more = [&](std::size_t done) {
    return done < variants || done % variants != 0 ||
           perfbench::seconds_since(start) < args.seconds;
  };
  if (args.trace == 0) {
    while (more(untraced.size())) {
      untraced.push_back(
          repeat(untraced.size() % variants, pool, nullptr, "repetition"));
    }
  } else {
    while (more(traced.size())) {
      const std::size_t v = traced.size() % variants;
      untraced.push_back(repeat(v, pool, nullptr, "repetition"));
      Probe probe;
      traced.push_back(repeat(v, pool, &probe, "traced repetition"));
      std::string error;
      profiles.push_back(
          layer_metrics(args.workload, traced.back(), probe, error));
      if (outcome.error.empty() && !error.empty()) outcome.error = error;
    }
    if (workload->pool_invariant()) {
      for (const std::size_t workers : {std::size_t{1}, cpus}) {
        if (workers == threads) continue;
        dlb::parallel::ThreadPool other(workers);
        (void)repeat(0, &other, nullptr, "pool-size check");
      }
    }
  }

  // Timings are medians over every untraced repetition but the very first
  // (the warm-up), each rescaled to the nominal host speed. Variants differ
  // in their session counts, so time is taken per session; balance_s scales
  // it back by the mean session count.
  std::vector<Rep> timed(references.begin() + 1, references.end());
  timed.insert(timed.end(), untraced.begin(), untraced.end());
  const auto per_session = [](const Rep& r) {
    return r.wall_s * r.host_scale / r.sessions;
  };
  const double session_s = median_of(timed, per_session);
  const auto mean_reference = [&](const std::function<double(const Rep&)>& f) {
    double sum = 0.0;
    for (const Rep& rep : references) sum += f(rep);
    return sum / static_cast<double>(variants);
  };
  const double mean_sessions =
      mean_reference([](const Rep& r) { return r.sessions; });

  // Set-up time: every repetition's set-up plus set-up-only passes, until
  // the median rests on fifteen samples and a quarter second of set-up (a
  // sub-millisecond set-up needs hundreds of samples to be steady).
  std::vector<Rep> setups = timed;
  setups.insert(setups.end(), traced.begin(), traced.end());
  const std::size_t first_pass = setups.size();
  double setup_total = 0.0;
  for (const Rep& rep : setups) setup_total += rep.setup_s();
  while (setups.size() < 15 || (setup_total < 0.25 && setups.size() < 2000)) {
    setups.push_back(workload->setup_only());
    setup_total += setups.back().setup_s();
  }
  if (setups.size() > first_pass) {
    const double probe_s = perfbench::host_probe_s(probe_threads);
    probes_s.push_back(probe_s);
    for (std::size_t i = first_pass; i < setups.size(); ++i) {
      setups[i].host_scale = perfbench::host_scale(last_probe_s, probe_s);
    }
  }

  dlb::stats::Json metrics = dlb::stats::Json::object();
  const auto put = [&](const std::string& name, const std::string& unit,
                       double value) {
    dlb::stats::Json entry = dlb::stats::Json::object();
    entry["value"] = value;
    entry["unit"] = unit;
    metrics[name] = std::move(entry);
  };
  if (args.trace == 0) {
    const auto rate = [&](double Rep::*count) {
      return median_of(timed, [&](const Rep& r) {
        return r.*count / (r.wall_s * r.host_scale);
      });
    };
    const auto mean = [&](double Rep::*field) {
      return mean_reference([&](const Rep& r) { return r.*field; });
    };
    const std::map<std::string, double> values = {
        {"setup_s",
         median_of(setups,
                   [](const Rep& r) {
                     // connect() mostly waits out a poll timeout, which the
                     // host's speed does not change: it is not rescaled.
                     return (r.open_s + r.build_s) * r.host_scale +
                            r.connect_s;
                   })},
        {"balance_s", mean_sessions * session_s},
        {"jobs_migrated_per_s", rate(&Rep::migrations)},
        {"sessions_per_s", 1.0 / session_s},
        {"events_per_s", rate(&Rep::events)},
        {"cmax_over_lb", mean(&Rep::cmax_over_lb)},
        {"sessions_to_target", mean_sessions},
        {"migrations_per_job", mean(&Rep::migrations_per_job)},
        {"response_p50_vt", mean(&Rep::response_p50)},
        {"response_p99_vt", mean(&Rep::response_p99)},
        {"peak_rss_mb", peak_rss_mib()},
    };
    for (const auto& [name, unit] : end_to_end_units()) {
      put(name, unit, values.at(name));
    }
  } else {
    // The profile of the traced repetition with the median time per
    // session.
    std::vector<std::size_t> order(traced.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
      return per_session(traced[a]) < per_session(traced[b]);
    });
    std::map<std::string, double> values = profiles[order[order.size() / 2]];
    for (const auto& [name, value] :
         perfbench::sample_core(workload->last_schedule(), args.seed)) {
      values[name] = value;
    }
    const auto scaled = [](double Rep::*field) {
      return [field](const Rep& r) { return r.*field * r.host_scale; };
    };
    values["core.store.open_s"] = median_of(setups, scaled(&Rep::open_s));
    values["core.schedule.build_s"] = median_of(setups, scaled(&Rep::build_s));
    values["obs.untraced_wall_s"] = mean_sessions * session_s;
    values["obs.trace_overhead"] =
        median_of(traced, per_session) / session_s - 1.0;
    for (const auto& [name, unit] : per_layer_units()) {
      put(name, unit, values.at(name));
    }
  }

  dlb::stats::Json env = dlb::stats::Json::object();
  env["nproc"] = cpus;
  env["pool_threads"] = threads;
  env["llc_bytes"] = llc_bytes();
  env["working_set_bytes"] = workload->working_set_bytes();
  env["compiler"] = std::string("g++ ") + __VERSION__;
  env["build_type"] = DLB_PERFBENCH_BUILD_TYPE;
  env["variants"] = variants;
  env["repetitions"] = untraced.size() + traced.size();
  env["measured_s"] = perfbench::seconds_since(start);
  dlb::stats::Json walls = dlb::stats::Json::array();
  dlb::stats::Json scales = dlb::stats::Json::array();
  for (const Rep& rep : untraced) {
    walls.push_back(rep.wall_s);
    scales.push_back(rep.host_scale);
  }
  env["untraced_walls_s"] = std::move(walls);
  env["untraced_host_scales"] = std::move(scales);
  dlb::stats::Json probes = dlb::stats::Json::array();
  for (const double probe_s : probes_s) probes.push_back(probe_s);
  env["host_probe_s"] = std::move(probes);
  env["host_probe_nominal_s"] = perfbench::kProbeNominalS;

  const bool correct = outcome.error.empty();
  if (!correct) outcome.failed = outcome.attempted;
  dlb::stats::Json record = dlb::stats::Json::object();
  record["workload"] = args.workload;
  record["seed"] = static_cast<double>(args.seed);
  record["trace"] = args.trace;
  record["correct"] = correct;
  record["attempted"] = static_cast<double>(outcome.attempted);
  record["failed"] = static_cast<double>(outcome.failed);
  record["error"] = outcome.error;
  record["metrics"] = std::move(metrics);
  record["env"] = std::move(env);
  std::cout << record.dump() << std::endl;
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Args args = parse_args(argc, argv);
    if (args.command == "prepare") {
      perfbench::make_workload(args.workload, ".")->prepare(args.dir,
                                                            args.seed);
      return 0;
    }
    if (args.command == "run") return run(args);
    throw std::invalid_argument("unknown command '" + args.command + "'");
  } catch (const std::exception& e) {
    std::cerr << "dlb_perfbench: " << e.what() << "\n";
    return 2;
  }
}
