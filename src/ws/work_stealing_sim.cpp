#include "ws/work_stealing_sim.hpp"

#include <algorithm>
#include <deque>
#include <stdexcept>

namespace dlb::ws {

namespace {

/// Safety cap on simulation events.
constexpr std::uint64_t kMaxEvents = 50'000'000;

class Simulation {
 public:
  Simulation(const Instance& instance, const Assignment& initial,
             const WsOptions& options)
      : instance_(instance),
        options_(options),
        rng_(options.seed),
        pending_(instance.num_machines()),
        busy_(instance.num_machines(), false) {
    if (!initial.is_complete()) {
      throw std::invalid_argument(
          "simulate_work_stealing: initial distribution must be complete");
    }
    if (!(options.retry_delay > 0.0)) {
      throw std::invalid_argument(
          "simulate_work_stealing: retry_delay must be > 0");
    }
    result_.machine_finish.assign(instance.num_machines(), 0.0);
    for (JobId j = 0; j < instance.num_jobs(); ++j) {
      pending_[initial.machine_of(j)].push_back(j);
    }
    remaining_ = instance.num_jobs();
    // No-steal completion time of the initial distribution: each machine
    // runs exactly its own queue.
    Cost initial_cmax = 0.0;
    for (MachineId i = 0; i < instance.num_machines(); ++i) {
      Cost load = 0.0;
      for (const JobId j : pending_[i]) load += instance.cost(i, j);
      initial_cmax = std::max(initial_cmax, load);
    }
    result_.initial_makespan = initial_cmax;
  }

  WsResult run() {
    for (MachineId i = 0; i < instance_.num_machines(); ++i) {
      engine_.schedule_at(0.0, [this, i] { activate(i); });
    }
    engine_.run(kMaxEvents);
    result_.converged = remaining_ == 0;
    result_.final_makespan = *std::max_element(
        result_.machine_finish.begin(), result_.machine_finish.end());
    result_.best_makespan = result_.final_makespan;
    return result_;
  }

 private:
  /// Machine i looks for work: runs its next local job, or tries to steal.
  void activate(MachineId i) {
    if (busy_[i]) return;
    if (!pending_[i].empty()) {
      const JobId j = pending_[i].front();
      pending_[i].pop_front();
      busy_[i] = true;
      const des::SimTime finish = engine_.now() + instance_.cost(i, j);
      engine_.schedule_at(finish, [this, i, finish] {
        busy_[i] = false;
        result_.machine_finish[i] = finish;
        --remaining_;
        activate(i);
      });
      return;
    }
    if (remaining_ == 0) return;  // everything done or running elsewhere
    attempt_steal(i);
  }

  MachineId pick_victim(MachineId thief) {
    if (options_.victim_policy == VictimPolicy::kMaxPending) {
      MachineId best = thief == 0 ? 1 : 0;
      for (MachineId i = 0; i < instance_.num_machines(); ++i) {
        if (i != thief && pending_[i].size() > pending_[best].size()) {
          best = i;
        }
      }
      return best;
    }
    // Uniform victim among the other machines (Algorithm 1).
    auto victim =
        static_cast<MachineId>(rng_.below(instance_.num_machines() - 1));
    if (victim >= thief) ++victim;
    return victim;
  }

  void attempt_steal(MachineId thief) {
    ++result_.exchanges;
    result_.first_steal_attempt =
        std::min(result_.first_steal_attempt, engine_.now());
    const MachineId victim = pick_victim(thief);
    // The request arrives after the steal latency and is evaluated against
    // the victim's queue at *that* time.
    engine_.schedule_after(options_.steal_latency, [this, thief, victim] {
      auto& queue = pending_[victim];
      if (queue.empty()) {
        if (remaining_ > 0) {
          engine_.schedule_after(options_.retry_delay,
                                 [this, thief] { activate(thief); });
        }
        return;
      }
      ++result_.successful_steals;
      result_.first_successful_steal =
          std::min(result_.first_successful_steal, engine_.now());
      // Take from the back of the victim's queue (the classic deque
      // discipline): half rounded up (Algorithm 1) or a single job.
      const std::size_t take = options_.steal_amount == StealAmount::kHalf
                                   ? (queue.size() + 1) / 2
                                   : 1;
      for (std::size_t k = 0; k < take; ++k) {
        pending_[thief].push_back(queue.back());
        queue.pop_back();
      }
      result_.migrations += take;
      activate(thief);
    });
  }

  const Instance& instance_;
  WsOptions options_;
  stats::Rng rng_;
  des::Engine engine_;
  std::vector<std::deque<JobId>> pending_;
  std::vector<char> busy_;
  std::size_t remaining_ = 0;
  WsResult result_;
};

}  // namespace

WsResult simulate_work_stealing(const Instance& instance,
                                const Assignment& initial,
                                const WsOptions& options) {
  return Simulation(instance, initial, options).run();
}

}  // namespace dlb::ws
