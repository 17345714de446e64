#include "dist/exchange_engine.hpp"

#include <optional>
#include <span>
#include <string>

namespace dlb::dist {

namespace {

constexpr PlannerTraits kSequentialTraits{
    .engine = "ExchangeEngine",
    .overflow_counter = "exchange.plan_arena_overflows",
    .checkpoint_kind = Checkpoint::Engine::kSequential,
    .needs_two_machines = false,
    .steps_are_exchanges = true,
    .flight_cmax_from_live_loads = true,
    .counts_final_idle_epoch = true,
};

/// One exchange per step: the initiator comes from the shuffled round, the
/// peer from the selector, both drawn from the caller's persistent
/// generator — so the checkpoint carries its state.
class SequentialPlanner final : public ExchangeLoop {
 public:
  SequentialPlanner(Schedule& schedule, const EngineOptions& options,
                    const pairwise::PairKernel& kernel,
                    const PeerSelector& selector, stats::Rng& rng,
                    RunResult& result)
      : ExchangeLoop(kSequentialTraits, schedule, options, kernel, result,
                     std::nullopt, 0),
        selector_(selector),
        rng_(rng),
        result_(result) {}

 private:
  void restore(const Checkpoint& ck) override {
    // The checkpointed generator continues the exact draw sequence; the
    // caller's rng is overwritten so its pre-resume state cannot leak in.
    rng_ = stats::Rng::from_state(ck.rng_state);
    for (const auto& [name, value] : ck.obs_counters) {
      if (name == "exchange.migrations") kernel_moves_ = value;
    }
  }

  void save(Checkpoint& ck) const override {
    ck.rng_state = rng_.state();
    ck.obs_counters = checkpoint_obs_counters(
        {{"exchange.count", ck.exchanges},
         {"exchange.changed", ck.changed_exchanges},
         {"exchange.migrations", kernel_moves_}},
        ck.churn);
  }

  void begin_epoch(std::uint64_t /*epoch*/) override {
    stats::shuffle(order_.begin(), order_.end(), rng_);
    pos_ = 0;
  }

  std::optional<Cost> step(std::uint64_t /*epoch*/) override {
    if (pos_ == order_.size() ||
        result_.exchanges >= options_.max_exchanges) {
      return std::nullopt;
    }
    const std::vector<MachineId>& live = churn_.live_machines();
    const MachineId initiator = order_[pos_++];
    // Peer selection runs over the compacted live machine set; with the
    // whole cluster live the mapping is the identity.
    const MachineId peer = live[selector_.select_on(
        static_cast<MachineId>(churn_.live_index(initiator)),
        std::span<const MachineId>(live), schedule_, rng_)];

    const std::uint64_t migrations_pre = schedule_.migrations();
    const bool changed = kernel_.balance(schedule_, initiator, peer);
    ++result_.exchanges;
    if (changed) ++result_.changed_exchanges;
    const Cost cmax = schedule_.makespan();

    // One recording path feeds the RunResult trace and every obs sink.
    // exchange.migrations counts kernel moves only; RunReport::migrations
    // also counts churn drains.
    const std::uint64_t moved = schedule_.migrations() - migrations_pre;
    kernel_moves_ += moved;
    if (options_.record_trace) {
      result_.exchange_trace.push_back({cmax, changed, run_migrations()});
    }
    if (c_exchanges_ != nullptr) {
      c_exchanges_->add();
      if (changed) c_changed_->add();
      c_migrations_->add(moved);
      g_cmax_->set(cmax);
    }
    if (tracer_ != nullptr) {
      // Virtual time: exchange k spans [k, k+1) microseconds.
      const auto ts = static_cast<double>(result_.exchanges - 1);
      tracer_->begin(ts, initiator, "exchange", "dist",
                     {{"initiator", static_cast<std::int64_t>(initiator)},
                      {"peer", static_cast<std::int64_t>(peer)},
                      {"kernel", std::string(kernel_.name())}});
      tracer_->end(ts + 1.0, initiator, "exchange",
                   {{"changed", changed},
                    {"jobs_moved", static_cast<std::int64_t>(moved)},
                    {"cmax", cmax}});
    }
    return cmax;
  }

  const PeerSelector& selector_;
  stats::Rng& rng_;
  RunResult& result_;
  obs::Counter* const c_exchanges_ = counter("exchange.count");
  obs::Counter* const c_changed_ = counter("exchange.changed");
  obs::Counter* const c_migrations_ = counter("exchange.migrations");
  obs::Gauge* const g_cmax_ = gauge("exchange.cmax");
  std::size_t pos_ = 0;              ///< Next position in the round.
  std::uint64_t kernel_moves_ = 0;  ///< exchange.migrations' value.
};

}  // namespace

RunResult ExchangeEngine::run(Schedule& schedule, const EngineOptions& options,
                              stats::Rng& rng) const {
  RunResult result;
  SequentialPlanner(schedule, options, *kernel_, *selector_, rng, result)
      .run();
  return result;
}

}  // namespace dlb::dist
