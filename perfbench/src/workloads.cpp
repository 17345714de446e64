#include "workloads.hpp"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <fstream>
#include <optional>
#include <stdexcept>
#include <thread>

#include "core/generators.hpp"
#include "core/instance_store.hpp"
#include "core/lower_bounds.hpp"
#include "des/engine.hpp"
#include "dist/exchange_engine.hpp"
#include "dist/open_system/open_engine.hpp"
#include "dist/parallel_exchange_engine.hpp"
#include "dist/selector_registry.hpp"
#include "dist/transport_runner.hpp"
#include "net/network.hpp"
#include "net/socket_transport.hpp"
#include "pairwise/kernel_registry.hpp"
#include "stats/json.hpp"
#include "stats/rng.hpp"

namespace perfbench {
namespace {

using dlb::Cost;
using dlb::JobId;
using dlb::MachineId;

// One gather sample every this many kernel calls per thread.
constexpr std::uint64_t kGatherEvery = 16;

std::uint64_t derive(std::uint64_t seed, std::uint64_t purpose) {
  return dlb::stats::Rng::stream(seed, purpose)();
}

std::string num(double v) { return dlb::stats::Json::number_to_string(v); }

std::string instance_path(const std::string& dir) {
  return dir + "/instance.dlbi";
}

// The lower bound travels as its IEEE-754 bits, so every run divides by
// exactly the value the oracle computed.
void write_lb(const std::string& dir, Cost lb) {
  std::ofstream out(dir + "/lb.txt");
  out << std::bit_cast<std::uint64_t>(lb) << "\n";
  if (!out) throw std::runtime_error("cannot write " + dir + "/lb.txt");
}

Cost read_lb(const std::string& dir) {
  std::ifstream in(dir + "/lb.txt");
  std::uint64_t bits = 0;
  if (!(in >> bits)) throw std::runtime_error("cannot read " + dir + "/lb.txt");
  const Cost lb = std::bit_cast<Cost>(bits);
  if (!(lb > 0.0) || !std::isfinite(lb)) {
    throw std::runtime_error("bad lower bound in " + dir + "/lb.txt");
  }
  return lb;
}

dlb::Instance two_clusters(std::size_t machines, std::size_t jobs,
                           std::uint64_t seed) {
  const std::size_t m1 = (machines * 2 + 2) / 3;
  return dlb::gen::two_cluster_uniform(m1, machines - m1, jobs, 1.0, 1000.0,
                                       derive(seed, 1));
}

void prepare_inputs(const std::string& dir, std::uint64_t seed,
                    std::size_t machines, std::size_t jobs,
                    bool with_assignment) {
  const dlb::Instance instance = two_clusters(machines, jobs, seed);
  if (with_assignment) {
    const dlb::Assignment initial =
        dlb::gen::random_assignment(instance, derive(seed, 2));
    dlb::core::save_dlbi(instance, instance_path(dir), &initial);
  } else {
    dlb::core::save_dlbi(instance, instance_path(dir));
  }
  write_lb(dir, dlb::two_cluster_fractional_opt(instance));
}

std::size_t schedule_bytes(std::size_t machines, std::size_t jobs) {
  // LoadTable next/prev links + the assignment per job; head, count, load,
  // arrivals and live flag per machine.
  return jobs * 12 + machines * 29;
}

/// Response time of every job when each machine runs its jobs in id order
/// from time 0: the closed-batch analogue of the open system's response.
std::pair<double, double> batch_response(const dlb::Schedule& schedule) {
  const dlb::Instance& instance = schedule.instance();
  std::vector<Cost> clock(schedule.num_machines(), 0.0);
  std::vector<Cost> response;
  response.reserve(schedule.num_jobs());
  for (JobId j = 0; j < schedule.num_jobs(); ++j) {
    const MachineId m = schedule.machine_of(j);
    clock[m] += instance.cost(m, j);
    response.push_back(clock[m]);
  }
  const auto rank = [&](double q) {
    const auto k = static_cast<std::size_t>(
        std::ceil(q * static_cast<double>(response.size())));
    const std::size_t index = k == 0 ? 0 : k - 1;
    std::nth_element(response.begin(),
                     response.begin() + static_cast<std::ptrdiff_t>(index),
                     response.end());
    return response[index];
  };
  const double p50 = rank(0.50);
  const double p99 = rank(0.99);
  return {p50, p99};
}

/// Every job sits on exactly one machine: its assignment names a machine
/// whose job list holds it, and the lists hold n jobs in total.
bool placed_exactly_once(const dlb::Schedule& schedule) {
  std::vector<std::uint8_t> seen(schedule.num_jobs(), 0);
  std::size_t listed = 0;
  for (MachineId m = 0; m < schedule.num_machines(); ++m) {
    for (const JobId j : schedule.jobs_on(m)) {
      if (j >= seen.size() || seen[j] != 0 || schedule.machine_of(j) != m) {
        return false;
      }
      seen[j] = 1;
      ++listed;
    }
  }
  return listed == schedule.num_jobs();
}

void fail(Rep& rep, const std::string& what) {
  if (rep.error.empty()) rep.error = what;
}

/// The dlb2c kernel and uniform selector a repetition runs with: the
/// registry's shared objects, or timing decorators around them when the
/// repetition is traced.
class Dlb2cSeams {
 public:
  explicit Dlb2cSeams(Probe* probe) {
    if (probe != nullptr) {
      timed_kernel_.emplace(raw_kernel(), *probe, kGatherEvery);
      timed_selector_.emplace(raw_selector(), *probe);
    }
  }
  [[nodiscard]] const dlb::pairwise::PairKernel& kernel() const {
    if (timed_kernel_) return *timed_kernel_;
    return raw_kernel();
  }
  [[nodiscard]] const dlb::dist::PeerSelector& selector() const {
    if (timed_selector_) return *timed_selector_;
    return raw_selector();
  }
  static const dlb::pairwise::PairKernel& raw_kernel() {
    return dlb::pairwise::kernel_registry().get("dlb2c");
  }
  static const dlb::dist::PeerSelector& raw_selector() {
    return dlb::dist::selector_registry().get("uniform");
  }

 private:
  std::optional<TimedKernel> timed_kernel_;
  std::optional<TimedSelector> timed_selector_;
};

/// The deterministic outputs every workload shares, serialized. Events
/// stay out: the fleet's frame count includes retransmissions.
std::string common_digest(const Rep& rep, std::uint64_t fingerprint) {
  return "sessions=" + num(rep.sessions) + " migrations=" +
         num(rep.migrations) + " cmax_over_lb=" + num(rep.cmax_over_lb) +
         " response=" +
         num(rep.response_p50) + "/" + num(rep.response_p99) +
         " fingerprint=" + std::to_string(fingerprint);
}

// Stores live behind a pointer: a Schedule keeps the address of the
// store's Instance, which moving the store would change.
struct Opened {
  std::unique_ptr<dlb::core::InstanceStore> store;
  std::unique_ptr<dlb::Schedule> schedule;
};

/// The set-up every single-process workload times: mmap open, then the
/// Schedule from the stored assignment (or an empty one).
Opened open_inputs(const std::string& dir, bool with_assignment, Rep& rep) {
  const std::uint64_t t0 = now_ns();
  auto store = std::make_unique<dlb::core::InstanceStore>(
      dlb::core::InstanceStore::open_mapped(instance_path(dir)));
  rep.open_s = seconds_since(t0);
  const std::uint64_t t1 = now_ns();
  std::unique_ptr<dlb::Schedule> schedule =
      with_assignment ? std::make_unique<dlb::Schedule>(
                            store->instance(), store->initial_assignment())
                      : std::make_unique<dlb::Schedule>(store->instance());
  rep.build_s = seconds_since(t1);
  return {std::move(store), std::move(schedule)};
}

// ----------------------------------------------------------------------
// closed_batch and seq_sparse: balance a random placement to a Cmax/LB
// target with one of the two exchange engines.

struct BalanceConfig {
  std::size_t machines;
  std::size_t jobs;
  double target;           ///< stop at Cmax <= target * LB
  std::size_t max_sessions;  ///< cap; hitting it fails the run
  bool parallel;
};

class BalanceWorkload final : public Workload {
 public:
  explicit BalanceWorkload(BalanceConfig config) : config_(config) {}

  void prepare(const std::string& dir, std::uint64_t seed) const override {
    prepare_inputs(dir, seed, config_.machines, config_.jobs, true);
  }

  void load(const std::string& dir, std::uint64_t seed) override {
    dir_ = dir;
    lb_ = read_lb(dir);
    seed_ = seed;
  }

  Rep setup_only() override {
    Rep rep;
    (void)open_inputs(dir_, true, rep);
    return rep;
  }

  // Sessions-to-target moves in whole epochs (closed_batch) or along a
  // staircase of Cmax drops (seq_sparse), so one engine seed makes a noisy
  // sample of it; a run averages four.
  [[nodiscard]] std::size_t variants() const override { return 4; }

  Rep run(std::size_t variant, dlb::parallel::ThreadPool* pool,
          Probe* probe) override {
    const std::uint64_t engine_seed = derive(seed_, 3 + variant);
    Rep rep;
    last_.reset();
    last_ = std::make_unique<Opened>(open_inputs(dir_, true, rep));
    dlb::Schedule& schedule = *last_->schedule;
    mapped_bytes_ = last_->store->mapped_bytes();

    const Dlb2cSeams seams(probe);
    const Cost threshold = config_.target * lb_;

    std::string extra;
    bool reached = false;
    if (config_.parallel) {
      dlb::dist::ParallelEngineOptions options;
      options.max_exchanges = config_.max_sessions;
      options.stop_threshold = threshold;
      options.pool = pool;
      const std::uint64_t t0 = now_ns();
      const dlb::dist::ParallelRunResult result =
          dlb::dist::ParallelExchangeEngine(seams.kernel(), seams.selector())
              .run(schedule, options, engine_seed);
      rep.wall_s = seconds_since(t0);
      reached = result.reached_threshold;
      rep.sessions = static_cast<double>(result.exchanges);
      rep.migrations = static_cast<double>(result.migrations);
      rep.kernel_threads =
          pool != nullptr ? static_cast<double>(pool->num_threads()) : 1.0;
      const double planned =
          static_cast<double>(result.exchanges + result.conflicts);
      rep.facts["dist.epochs"] = static_cast<double>(result.epochs);
      rep.facts["dist.conflict_ratio"] =
          planned > 0 ? static_cast<double>(result.conflicts) / planned : 0.0;
      rep.facts["dist.peer_retries"] =
          static_cast<double>(result.peer_retries);
      extra = result.to_json().dump() + " changed=" +
              std::to_string(result.changed_exchanges) + " epochs=" +
              std::to_string(result.epochs) + " conflicts=" +
              std::to_string(result.conflicts) + " retries=" +
              std::to_string(result.peer_retries) + " to_target=" +
              std::to_string(result.exchanges_to_threshold);
    } else {
      dlb::dist::EngineOptions options;
      options.max_exchanges = config_.max_sessions;
      options.stop_threshold = threshold;
      dlb::stats::Rng rng(engine_seed);
      const std::uint64_t t0 = now_ns();
      const dlb::dist::RunResult result =
          dlb::dist::ExchangeEngine(seams.kernel(), seams.selector())
              .run(schedule, options, rng);
      rep.wall_s = seconds_since(t0);
      reached = result.reached_threshold;
      rep.sessions = static_cast<double>(result.exchanges);
      rep.migrations = static_cast<double>(result.migrations);
      rep.facts["dist.epochs"] = static_cast<double>(result.epochs);
      extra = result.to_json().dump() + " changed=" +
              std::to_string(result.changed_exchanges) + " epochs=" +
              std::to_string(result.epochs) + " to_target=" +
              std::to_string(result.exchanges_to_threshold);
    }

    const Cost cmax = schedule.makespan();
    rep.operations = static_cast<std::uint64_t>(rep.sessions);
    rep.events = rep.sessions;
    rep.cmax_over_lb = cmax / lb_;
    rep.migrations_per_job =
        rep.migrations / static_cast<double>(schedule.num_jobs());
    std::tie(rep.response_p50, rep.response_p99) = batch_response(schedule);
    rep.digest = common_digest(rep, schedule.fingerprint()) + " " + extra;

    if (!reached) {
      fail(rep, "target Cmax/LB " + num(config_.target) + " not reached in " +
                    std::to_string(config_.max_sessions) + " sessions");
    }
    if (!(cmax >= lb_)) fail(rep, "Cmax below the lower bound");
    if (!schedule.check_consistency()) fail(rep, "schedule inconsistent");
    if (!placed_exactly_once(schedule)) {
      fail(rep, "a job is not placed exactly once");
    }
    return rep;
  }

  [[nodiscard]] const dlb::Schedule& last_schedule() const override {
    return *last_->schedule;
  }
  [[nodiscard]] std::size_t working_set_bytes() const override {
    return mapped_bytes_ + schedule_bytes(config_.machines, config_.jobs);
  }
  [[nodiscard]] std::size_t pool_threads(std::size_t cpus) const override {
    return config_.parallel ? cpus : 0;
  }
  [[nodiscard]] bool pool_invariant() const override {
    return config_.parallel;
  }

 private:
  BalanceConfig config_;
  std::string dir_;
  Cost lb_ = 0.0;
  std::uint64_t seed_ = 0;
  std::size_t mapped_bytes_ = 0;
  std::unique_ptr<Opened> last_;
};

// ----------------------------------------------------------------------
// open_service: Poisson arrivals on the virtual clock, two-choices
// placement, DLB2C repair bursts on the parallel engine.

class OpenServiceWorkload final : public Workload {
 public:
  static constexpr std::size_t kMachines = 1000;
  static constexpr std::size_t kJobs = 200'000;
  static constexpr double kRate = 3.0;
  static constexpr double kRepairEvery = 50.0;
  static constexpr std::size_t kRepairBudget = 512;

  void prepare(const std::string& dir, std::uint64_t seed) const override {
    prepare_inputs(dir, seed, kMachines, kJobs, false);
  }

  void load(const std::string& dir, std::uint64_t seed) override {
    dir_ = dir;
    lb_ = read_lb(dir);
    seed_ = seed;
  }

  Rep setup_only() override {
    Rep rep;
    (void)open_inputs(dir_, false, rep);
    return rep;
  }

  // Each variant draws its own arrival times and engine seed, so the
  // repair work -- which moves with the arrival order -- is averaged.
  [[nodiscard]] std::size_t variants() const override { return 4; }

  Rep run(std::size_t variant, dlb::parallel::ThreadPool* pool,
          Probe* probe) override {
    const dlb::dist::ArrivalPlan plan =
        dlb::dist::ArrivalPlan::poisson(kRate, derive(seed_, 4 + 2 * variant));
    const std::uint64_t engine_seed = derive(seed_, 5 + 2 * variant);
    Rep rep;
    last_.reset();
    last_ = std::make_unique<Opened>(open_inputs(dir_, false, rep));
    dlb::Schedule& schedule = *last_->schedule;
    mapped_bytes_ = last_->store->mapped_bytes();

    const Dlb2cSeams seams(probe);
    const std::unique_ptr<dlb::dist::PlacementPolicy> raw_placement =
        dlb::dist::make_placement("two_choices:2");
    std::optional<TimedPlacement> timed_placement;
    if (probe != nullptr) timed_placement.emplace(*raw_placement, *probe);

    dlb::dist::OpenSystemOptions options;
    options.arrivals = &plan;
    options.num_arrivals = kJobs;
    options.placement = timed_placement
                            ? &*timed_placement
                            : static_cast<const dlb::dist::PlacementPolicy*>(
                                  raw_placement.get());
    options.repair_every = kRepairEvery;
    options.repair_budget = kRepairBudget;
    options.parallel_repair = true;
    options.pool = pool;
    const dlb::dist::OpenSystemEngine engine(seams.kernel(), seams.selector());
    const std::uint64_t t0 = now_ns();
    const dlb::dist::OpenRunReport report =
        engine.run(schedule, options, engine_seed);
    rep.wall_s = seconds_since(t0);

    rep.kernel_threads =
        pool != nullptr ? static_cast<double>(pool->num_threads()) : 1.0;
    rep.operations = kJobs;
    rep.sessions = static_cast<double>(report.exchanges);
    rep.migrations = static_cast<double>(report.migrations);
    rep.events = static_cast<double>(report.events);
    rep.cmax_over_lb = report.end_time / lb_;
    rep.migrations_per_job = rep.migrations / static_cast<double>(kJobs);
    rep.response_p50 = report.response_p50;
    rep.response_p99 = report.response_p99;
    rep.facts["open_system.repair.bursts"] =
        static_cast<double>(report.repair_bursts);
    rep.facts["open_system.queue_p99"] = report.queue_p99;
    rep.facts["open_system.queue_max"] = static_cast<double>(report.queue_max);
    rep.digest = common_digest(rep, schedule.fingerprint()) + " " +
                 report.to_json().dump();

    if (!report.converged) fail(rep, "the run did not drain");
    if (report.jobs_submitted != kJobs || report.jobs_completed != kJobs) {
      fail(rep, "completions " + std::to_string(report.jobs_completed) +
                    ", arrivals " + std::to_string(report.jobs_submitted) +
                    ", expected " + std::to_string(kJobs));
    }
    return rep;
  }

  [[nodiscard]] const dlb::Schedule& last_schedule() const override {
    return *last_->schedule;
  }
  [[nodiscard]] std::size_t working_set_bytes() const override {
    return mapped_bytes_ + schedule_bytes(kMachines, kJobs);
  }
  // Repair bursts execute inline. A burst is two epochs of ~250 sessions
  // over a handful of waiting jobs, so a pool spends more on waking its
  // workers than it saves, and those wake-ups make the timing follow the
  // host's scheduling noise. The traced run still checks that pools of 1
  // and nproc workers give the identical outputs.
  [[nodiscard]] bool pool_invariant() const override { return true; }

 private:
  std::string dir_;
  Cost lb_ = 0.0;
  std::uint64_t seed_ = 0;
  std::size_t mapped_bytes_ = 0;
  std::unique_ptr<Opened> last_;
};

// ----------------------------------------------------------------------
// fleet_unix: three SocketTransport endpoints in this process, one thread
// each, running the token-serialized TransportRunner over Unix sockets.

class FleetWorkload final : public Workload {
 public:
  static constexpr std::size_t kMachines = 1024;
  static constexpr std::size_t kJobs = 16'384;
  static constexpr std::size_t kEndpoints = 3;
  static constexpr std::size_t kRounds = 10;

  explicit FleetWorkload(std::string work_dir)
      : work_dir_(std::move(work_dir)) {}

  void prepare(const std::string& dir, std::uint64_t seed) const override {
    prepare_inputs(dir, seed, kMachines, kJobs, true);
  }

  void load(const std::string& dir, std::uint64_t seed) override {
    dir_ = dir;
    lb_ = read_lb(dir);
    plan_seed_ = derive(seed, 3);
    build_reference();
  }

  Rep setup_only() override {
    Rep rep;
    (void)set_up(rep);
    return rep;
  }

  Rep run(std::size_t /*variant*/, dlb::parallel::ThreadPool* /*pool*/,
          Probe* probe) override {
    Rep rep;
    Fleet fleet = set_up(rep);
    const dlb::pairwise::PairKernel& raw_kernel = Dlb2cSeams::raw_kernel();
    std::vector<std::unique_ptr<TimedKernel>> timed_kernels;
    std::vector<std::unique_ptr<TimedTransport>> timed_transports;
    std::vector<std::unique_ptr<dlb::dist::TransportRunner>> runners;
    for (std::size_t k = 0; k < kEndpoints; ++k) {
      dlb::dist::TransportRunnerOptions options;
      options.kernel = &raw_kernel;
      options.seed = plan_seed_;
      options.rounds = kRounds;
      dlb::net::Transport* transport = fleet.transports[k].get();
      if (probe != nullptr) {
        timed_kernels.push_back(
            std::make_unique<TimedKernel>(raw_kernel, *probe, kGatherEvery));
        options.kernel = timed_kernels.back().get();
        timed_transports.push_back(
            std::make_unique<TimedTransport>(*transport, *probe));
        transport = timed_transports.back().get();
      }
      runners.push_back(std::make_unique<dlb::dist::TransportRunner>(
          *fleet.replicas[k], *transport, options));
    }

    // Each endpoint polls until every runner is done: a finished runner
    // still answers its peers' duplicates and acks. Polling never blocks,
    // so a frame is picked up without a cross-thread wake-up, whose latency
    // on a shared virtual machine swamps the protocol's own cost.
    std::atomic<std::size_t> finished{0};
    std::vector<double> endpoint_wall(kEndpoints, 0.0);
    std::vector<std::string> errors(kEndpoints);
    const std::uint64_t t0 = now_ns();
    {
      std::vector<std::jthread> threads;
      for (std::size_t k = 0; k < kEndpoints; ++k) {
        threads.emplace_back([&, k] {
          const std::uint64_t start = now_ns();
          try {
            dlb::dist::TransportRunner& runner = *runners[k];
            bool counted = false;
            runner.start();
            const std::uint64_t deadline = start + 120'000'000'000ULL;
            while (finished.load() < kEndpoints) {
              runner.poll(0.0);
              if (!counted && runner.done()) {
                counted = true;
                finished.fetch_add(1);
              }
              if (now_ns() > deadline) {
                throw std::runtime_error("fleet did not finish in 120 s");
              }
            }
          } catch (const std::exception& e) {
            errors[k] = e.what();
            finished.store(kEndpoints);
          }
          endpoint_wall[k] = seconds_since(start);
        });
      }
    }
    rep.wall_s = seconds_since(t0);
    rep.endpoint_wall_s = endpoint_wall;
    for (const std::string& error : errors) {
      if (!error.empty()) fail(rep, error);
    }

    // Stitch the authoritative rows and compare with the SimTransport run.
    dlb::Assignment stitched(kJobs);
    std::uint64_t exchanges = 0;
    std::uint64_t migrations = 0;
    std::uint64_t sessions = 0;
    std::uint64_t retries = 0;
    std::uint64_t duplicates = 0;
    std::uint64_t frames = 0;
    Cost max_load = 0.0;
    for (std::size_t k = 0; k < kEndpoints; ++k) {
      const auto& c = runners[k]->counters();
      exchanges += c.exchanges;
      migrations += c.migrations;
      sessions += c.sessions_completed;
      retries += c.retries;
      duplicates += c.duplicates_ignored;
      frames += c.frames_sent;
    }
    for (MachineId m = 0; m < kMachines; ++m) {
      const dlb::dist::TransportRunner& owner = *runners[endpoint_of(m)];
      const std::vector<JobId> jobs = owner.sorted_jobs(m);
      const Cost load = owner.canonical_load(m);
      if (jobs != reference_.jobs[m] ||
          std::bit_cast<std::uint64_t>(load) !=
              std::bit_cast<std::uint64_t>(reference_.loads[m])) {
        fail(rep, "machine " + std::to_string(m) +
                      " differs from the SimTransport run");
      }
      for (const JobId j : jobs) stitched.assign(j, m);
      max_load = std::max(max_load, load);
    }
    if (exchanges != reference_.exchanges ||
        migrations != reference_.migrations) {
      fail(rep, "exchange/migration totals differ from the SimTransport run");
    }
    const std::uint64_t planned =
        dlb::dist::TransportRunner::total_sessions(kMachines, kRounds);
    if (sessions != planned) {
      fail(rep, std::to_string(sessions) + " sessions completed of " +
                    std::to_string(planned));
    }

    final_.reset();
    final_store_ = std::move(fleet.store);
    final_ = std::make_unique<dlb::Schedule>(final_store_->instance(),
                                             std::move(stitched));
    if (!placed_exactly_once(*final_)) {
      fail(rep, "a job is not placed exactly once");
    }
    rep.operations = planned;
    rep.sessions = static_cast<double>(sessions);
    rep.migrations = static_cast<double>(migrations);
    rep.events = static_cast<double>(frames);
    rep.cmax_over_lb = max_load / lb_;
    rep.migrations_per_job = rep.migrations / static_cast<double>(kJobs);
    std::tie(rep.response_p50, rep.response_p99) = batch_response(*final_);
    rep.facts["net.retries"] = static_cast<double>(retries);
    rep.facts["net.duplicates"] = static_cast<double>(duplicates);
    rep.digest = common_digest(rep, final_->fingerprint()) +
                 " exchanges=" + std::to_string(exchanges);
    return rep;
  }

  [[nodiscard]] const dlb::Schedule& last_schedule() const override {
    return *final_;
  }
  [[nodiscard]] std::size_t working_set_bytes() const override {
    return mapped_bytes_ + kEndpoints * schedule_bytes(kMachines, kJobs);
  }

 private:
  struct Fleet {
    std::unique_ptr<dlb::core::InstanceStore> store;
    std::vector<std::unique_ptr<dlb::Schedule>> replicas;
    std::vector<std::unique_ptr<dlb::net::SocketTransport>> transports;
  };

  struct Reference {
    std::vector<std::vector<JobId>> jobs;
    std::vector<Cost> loads;
    std::uint64_t exchanges = 0;
    std::uint64_t migrations = 0;
  };

  static std::size_t endpoint_of(MachineId m) {
    return static_cast<std::size_t>(m) * kEndpoints / kMachines;
  }

  Fleet set_up(Rep& rep) {
    const std::uint64_t t0 = now_ns();
    auto store = std::make_unique<dlb::core::InstanceStore>(
        dlb::core::InstanceStore::open_mapped(instance_path(dir_)));
    rep.open_s = seconds_since(t0);
    mapped_bytes_ = store->mapped_bytes();

    const std::uint64_t t1 = now_ns();
    std::vector<std::unique_ptr<dlb::Schedule>> replicas;
    const dlb::Assignment initial = store->initial_assignment();
    for (std::size_t k = 0; k < kEndpoints; ++k) {
      replicas.push_back(
          std::make_unique<dlb::Schedule>(store->instance(), initial));
    }
    rep.build_s = seconds_since(t1);

    const std::uint64_t t2 = now_ns();
    std::vector<dlb::net::HostSpec> hosts(kEndpoints);
    for (std::size_t k = 0; k < kEndpoints; ++k) {
      hosts[k].address = "unix:" + work_dir_ + "/fleet-" +
                         std::to_string(::getpid()) + "-" +
                         std::to_string(k) + ".sock";
      hosts[k].machine_lo = static_cast<MachineId>(
          (k * kMachines + kEndpoints - 1) / kEndpoints);
      hosts[k].machine_hi = static_cast<MachineId>(
          ((k + 1) * kMachines + kEndpoints - 1) / kEndpoints);
    }
    std::vector<std::unique_ptr<dlb::net::SocketTransport>> transports;
    for (std::size_t k = 0; k < kEndpoints; ++k) {
      dlb::net::SocketTransportOptions options;
      options.hosts = hosts;
      options.self = k;
      transports.push_back(
          std::make_unique<dlb::net::SocketTransport>(options));
    }
    std::vector<std::string> errors(kEndpoints);
    {
      std::vector<std::jthread> threads;
      for (std::size_t k = 0; k < kEndpoints; ++k) {
        threads.emplace_back([&, k] {
          try {
            transports[k]->connect();
          } catch (const std::exception& e) {
            errors[k] = e.what();
          }
        });
      }
    }
    for (const std::string& error : errors) {
      if (!error.empty()) throw std::runtime_error("connect: " + error);
    }
    rep.connect_s = seconds_since(t2);
    return {std::move(store), std::move(replicas), std::move(transports)};
  }

  void build_reference() {
    const dlb::core::InstanceStore store =
        dlb::core::InstanceStore::open_mapped(instance_path(dir_));
    dlb::Schedule replica(store.instance(), store.initial_assignment());
    dlb::des::Engine engine;
    const dlb::net::ConstantLatency latency(0.01);
    dlb::stats::Rng rng(derive(plan_seed_, 5));
    dlb::net::Network network(engine, latency, rng);
    dlb::net::SimTransport transport(engine, network, kMachines);
    dlb::dist::TransportRunnerOptions options;
    options.kernel = &Dlb2cSeams::raw_kernel();
    options.seed = plan_seed_;
    options.rounds = kRounds;
    dlb::dist::TransportRunner runner(replica, transport, options);
    runner.start();
    runner.run_to_completion();
    reference_ = Reference{};
    for (MachineId m = 0; m < kMachines; ++m) {
      reference_.jobs.push_back(runner.sorted_jobs(m));
      reference_.loads.push_back(runner.canonical_load(m));
    }
    reference_.exchanges = runner.counters().exchanges;
    reference_.migrations = runner.counters().migrations;
  }

  std::string work_dir_;
  std::string dir_;
  Cost lb_ = 0.0;
  std::uint64_t plan_seed_ = 0;
  std::size_t mapped_bytes_ = 0;
  Reference reference_;
  // Declared store-first: the schedule views the store's instance.
  std::unique_ptr<dlb::core::InstanceStore> final_store_;
  std::unique_ptr<dlb::Schedule> final_;
};

}  // namespace

std::unique_ptr<Workload> make_workload(std::string_view name,
                                        const std::string& work_dir) {
  // Targets sit where Cmax/LB falls steeply, so the epoch (closed_batch)
  // or exchange count (seq_sparse) that reaches them varies little from
  // seed to seed; near the ~1.03 plateau it varies by several epochs.
  // Both caps are twice the sessions any seed needed when the targets
  // were chosen.
  if (name == "closed_batch") {
    return std::make_unique<BalanceWorkload>(
        BalanceConfig{10'000, 1'000'000, 1.14, 24 * 5'000, true});
  }
  if (name == "seq_sparse") {
    return std::make_unique<BalanceWorkload>(
        BalanceConfig{20'000, 200'000, 1.9, 8 * 20'000, false});
  }
  if (name == "open_service") return std::make_unique<OpenServiceWorkload>();
  if (name == "fleet_unix") return std::make_unique<FleetWorkload>(work_dir);
  throw std::invalid_argument("unknown workload '" + std::string(name) + "'");
}

std::map<std::string, double> sample_core(const dlb::Schedule& schedule,
                                          std::uint64_t seed) {
  constexpr std::size_t kSamples = 2000;
  dlb::Schedule copy = schedule;
  dlb::stats::Rng rng(derive(seed, 6));
  const std::size_t machines = copy.num_machines();
  std::vector<JobId> jobs;
  std::vector<std::uint8_t> picked(copy.num_jobs(), 0);
  while (jobs.size() < std::min(kSamples, copy.num_jobs())) {
    const auto j = static_cast<JobId>(rng.below(copy.num_jobs()));
    if (picked[j] == 0) {
      picked[j] = 1;
      jobs.push_back(j);
    }
  }
  LayerStats unassign;
  LayerStats assign;
  LayerStats move;
  LayerStats makespan;
  for (const JobId j : jobs) {
    if (copy.machine_of(j) == dlb::kUnassigned) continue;
    const std::uint64_t t0 = now_ns();
    copy.unassign(j);
    unassign.samples.push_back(now_ns() - t0);
  }
  for (const JobId j : jobs) {
    const auto to = static_cast<MachineId>(rng.below(machines));
    const std::uint64_t t0 = now_ns();
    copy.assign(j, to);
    assign.samples.push_back(now_ns() - t0);
  }
  (void)copy.makespan();
  for (const JobId j : jobs) {
    const MachineId from = copy.machine_of(j);
    const auto to = static_cast<MachineId>(
        (from + 1 + rng.below(machines - 1)) % machines);
    const std::uint64_t t0 = now_ns();
    copy.move(j, to);
    const std::uint64_t t1 = now_ns();
    (void)copy.makespan();
    const std::uint64_t t2 = now_ns();
    move.samples.push_back(t1 - t0);
    makespan.samples.push_back(t2 - t1);
  }
  return {
      {"core.makespan.ns_p50", makespan.percentile_ns(0.50)},
      {"core.makespan.ns_p99", makespan.percentile_ns(0.99)},
      {"core.move.ns_p50", move.percentile_ns(0.50)},
      {"core.assign.ns_p50", assign.percentile_ns(0.50)},
      {"core.unassign.ns_p50", unassign.percentile_ns(0.50)},
  };
}

}  // namespace perfbench
