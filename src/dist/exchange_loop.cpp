#include "dist/exchange_loop.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>
#include <string>
#include <vector>

#include "dist/convergence.hpp"

namespace dlb::dist {

ExchangeLoop::ExchangeLoop(const PlannerTraits& traits, Schedule& schedule,
                           const ExchangeOptions& options,
                           const pairwise::PairKernel& kernel,
                           ExchangeReport& report,
                           std::optional<std::uint64_t> seed,
                           std::size_t plan_bytes)
    : schedule_(schedule),
      kernel_(kernel),
      options_(options),
      metrics_(obs::metrics_of(options.obs)),
      tracer_(obs::tracer_of(options.obs)),
      churn_(options.churn, schedule.num_machines()),
      arena_(core::Arena::bytes_for<MachineId>(schedule.num_machines()) +
             plan_bytes),
      order_(arena_.alloc<MachineId>(schedule.num_machines())),
      traits_(traits),
      report_(report),
      seed_(seed) {
  const std::string engine = traits.engine;
  const std::size_t m = schedule.num_machines();
  if (traits.needs_two_machines && m < 2) {
    throw std::invalid_argument(engine + ": need at least two machines");
  }
  if (options.stability_check_interval.has_value() &&
      *options.stability_check_interval == 0) {
    throw std::invalid_argument(
        engine + ": stability_check_interval must be >= 1 when set");
  }
  if (options.churn != nullptr) options.churn->validate(m);
  const Checkpoint* ck = options.resume;
  if (ck != nullptr &&
      (ck->engine != traits.checkpoint_kind || ck->num_machines != m ||
       ck->num_jobs != schedule.num_jobs() ||
       (seed.has_value() && ck->seed != *seed))) {
    throw std::invalid_argument(
        engine + ": checkpoint does not match this run (engine kind" +
        (seed.has_value() ? ", seed, or" : " or") +
        " instance shape differs)");
  }
}

void ExchangeLoop::run() {
  // Let the kernel attach (or detach) its decision instance before any
  // balance/stability probe; runs on fresh and resumed paths alike so a
  // resume rebuilds the same surrogate deterministically. Single-threaded
  // here — the surrogate is immutable once a parallel phase starts.
  kernel_.prepare(schedule_);
  const Checkpoint* resume = options_.resume;
  migration_offset_ =
      (resume != nullptr ? resume->migrations : 0) - schedule_.migrations();

  if (resume != nullptr) {
    const Checkpoint& ck = *resume;
    order_.assign(ck.order.begin(), ck.order.end());
    report_.epochs = ck.epochs;
    report_.initial_makespan = ck.initial_makespan;
    report_.best_makespan = ck.best_makespan;
    report_.exchanges = ck.exchanges;
    report_.changed_exchanges = ck.changed_exchanges;
    churn_.restore(ck.churn_cursor, ck.churn_queue, ck.churn, schedule_);
    if (metrics_ != nullptr) {
      for (const auto& [name, value] : ck.obs_counters) {
        metrics_->counter(name).add(value);
      }
    }
    restore(ck);
  } else {
    churn_.apply_initial(schedule_, options_.obs);
    report_.initial_makespan = schedule_.makespan();
    report_.best_makespan = report_.initial_makespan;
    order_.assign(churn_.live_machines().begin(),
                  churn_.live_machines().end());
    // Threshold may already hold before any exchange (resumed runs passed
    // this gate when they started, so they skip it).
    if (options_.stop_threshold.has_value() &&
        schedule_.makespan() <= *options_.stop_threshold) {
      report_.reached_threshold = true;
      report_.exchanges_to_threshold = 0;
      report_.final_makespan = schedule_.makespan();
      fill_risk_report(report_, schedule_);
      return;
    }
  }

  const std::vector<MachineId>& live = churn_.live_machines();
  // An empty machine set can never run anything.
  while (report_.exchanges < options_.max_exchanges && !live.empty()) {
    const std::uint64_t epoch = report_.epochs + 1;
    if (churn_.active()) {
      if (churn_.begin_epoch(epoch, schedule_, options_.obs,
                             static_cast<double>(report_.exchanges))) {
        order_.assign(live.begin(), live.end());
      }
      if (live.size() < 2) {
        // A single live machine has no exchange partner. Once the orphan
        // queue is drained, fast-forward to the next event instead of
        // spinning one empty epoch at a time.
        if (churn_.exhausted()) {
          if (traits_.counts_final_idle_epoch) report_.epochs = epoch;
          break;
        }
        report_.epochs = epoch;
        idle_epoch();
        const auto next = churn_.next_event_epoch();
        if (churn_.pending().empty() && next.has_value() &&
            *next > epoch + 1) {
          report_.epochs = *next - 1;
        }
        continue;
      }
    }
    report_.epochs = epoch;
    begin_epoch(epoch);
    bool stop = false;
    while (const std::optional<Cost> cmax = step(epoch)) {
      report_.best_makespan = std::min(report_.best_makespan, *cmax);
      if (options_.stop_threshold.has_value() &&
          *cmax <= *options_.stop_threshold) {
        report_.reached_threshold = true;
        report_.exchanges_to_threshold = report_.exchanges;
        stop = true;
        break;
      }
      const std::uint64_t steps =
          traits_.steps_are_exchanges ? report_.exchanges : epoch;
      if (options_.stability_check_interval.has_value() &&
          steps % *options_.stability_check_interval == 0 &&
          (!churn_.active() || churn_.exhausted()) &&
          (churn_.active() ? is_stable(schedule_, kernel_, live)
                           : is_stable(schedule_, kernel_))) {
        report_.converged = true;
        stop = true;
        break;
      }
    }
    if (obs::FlightRecorder* flight = obs::flight_of(options_.obs)) {
      // One convergence sample per epoch; the recorder keeps the newest
      // window, so long runs retain the tail of the descent.
      obs::FlightSample sample = load_sample(
          schedule_, live,
          traits_.flight_cmax_from_live_loads
              ? std::nullopt
              : std::optional<Cost>(schedule_.makespan()));
      sample.round = epoch;
      sample.exchanges = report_.exchanges;
      sample.migrations = run_migrations();
      flight->record(sample);
    }
    if (stop) break;
    const bool halt_here = options_.halt_after_epoch.has_value() &&
                           *options_.halt_after_epoch == epoch;
    if (options_.checkpoint_out != nullptr &&
        (halt_here || (options_.checkpoint_every != 0 &&
                       epoch % options_.checkpoint_every == 0))) {
      fill_checkpoint(*options_.checkpoint_out);
    }
    if (halt_here) {
      report_.halted = true;
      break;
    }
  }
  // The loop's no-allocation invariant: exported so release telemetry can
  // watch it; Debug builds hard-assert.
  if (metrics_ != nullptr) {
    metrics_->counter(traits_.overflow_counter).add(arena_.overflows());
  }
  assert(arena_.overflows() == 0);
  report_.final_makespan = schedule_.makespan();
  report_.migrations = run_migrations();
  const ChurnCounters& cc = churn_.counters();
  report_.churn_joins = cc.joins;
  report_.churn_drains = cc.drains;
  report_.churn_crashes = cc.crashes;
  report_.churn_orphaned = cc.orphaned;
  report_.churn_redispatched = cc.redispatched;
  report_.churn_pending = churn_.pending().size();
  fill_risk_report(report_, schedule_);
}

void ExchangeLoop::fill_checkpoint(Checkpoint& ck) {
  const std::size_t m = schedule_.num_machines();
  ck = Checkpoint{};
  ck.engine = traits_.checkpoint_kind;
  ck.seed = seed_.value_or(0);
  ck.num_machines = m;
  ck.num_jobs = schedule_.num_jobs();
  ck.order.assign(order_.begin(), order_.end());
  ck.epochs = report_.epochs;
  ck.initial_makespan = report_.initial_makespan;
  ck.best_makespan = report_.best_makespan;
  ck.exchanges = report_.exchanges;
  ck.changed_exchanges = report_.changed_exchanges;
  ck.migrations = run_migrations();
  const auto live = schedule_.live_mask();
  ck.live.assign(live.begin(), live.end());
  ck.assignment = schedule_.assignment().raw();
  ck.loads.resize(m);
  for (MachineId i = 0; i < m; ++i) ck.loads[i] = schedule_.load(i);
  ck.churn_cursor = churn_.cursor();
  ck.churn_queue = churn_.pending();
  ck.churn = churn_.counters();
  save(ck);
  if (metrics_ != nullptr) metrics_->counter("checkpoint.saves").add();
  if (tracer_ != nullptr) {
    tracer_->instant(static_cast<double>(report_.exchanges), 0, "CHECKPOINT",
                     "checkpoint",
                     {{"epoch", static_cast<std::int64_t>(report_.epochs)}});
  }
}

}  // namespace dlb::dist
