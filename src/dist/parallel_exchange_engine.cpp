#include "dist/parallel_exchange_engine.hpp"

#include <algorithm>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>

#include "core/arena.hpp"
#include "stats/rng.hpp"

namespace dlb::dist {

namespace {

/// Salt for the per-epoch initiator shuffle stream, so it never collides
/// with the per-session streams derived from the bare seed.
constexpr std::uint64_t kEpochSalt = 0xA5A5'5A5A'C3C3'3C3CULL;

/// A planned initiator whose drawn peer is already claimed redraws up to
/// this many times before the session is abandoned as a conflict.
constexpr std::size_t kMaxPeerRetries = 2;

/// One planned disjoint session: fixed in the sequential plan phase,
/// executed in parallel, committed in session order.
struct Session {
  MachineId initiator = 0;
  MachineId peer = 0;
  std::uint64_t retries = 0;  ///< Claimed-peer redraws spent planning it.
};

/// Outcome slot, written by exactly one worker and read by the committer.
struct Outcome {
  bool changed = false;
  std::uint64_t moved = 0;
};

constexpr PlannerTraits kParallelTraits{
    .engine = "ParallelExchangeEngine",
    .overflow_counter = "parexchange.plan_arena_overflows",
    .checkpoint_kind = Checkpoint::Engine::kParallel,
    .needs_two_machines = true,
    .steps_are_exchanges = false,
    .flight_cmax_from_live_loads = false,
    .counts_final_idle_epoch = false,
};

/// One committed batch per step, the epoch's only one: plan disjoint pairs
/// from per-session streams (sequential), execute them on the pool, commit
/// in session order (sequential).
class ParallelPlanner final : public ExchangeLoop {
 public:
  ParallelPlanner(Schedule& schedule, const ParallelEngineOptions& options,
                  const pairwise::PairKernel& kernel,
                  const PeerSelector& selector, std::uint64_t seed,
                  ParallelRunResult& result)
      : ExchangeLoop(kParallelTraits, schedule, options, kernel, result, seed,
                     plan_bytes(schedule.num_machines())),
        selector_(selector),
        pool_(options.pool),
        stream_seed_(seed),
        result_(result),
        locks_(std::make_unique<std::mutex[]>(schedule.num_machines())),
        claimed_(arena_.alloc<std::uint64_t>(schedule.num_machines())),
        batch_(arena_.alloc<Session>(schedule.num_machines() / 2)),
        outcomes_(arena_.alloc<Outcome>(schedule.num_machines() / 2)) {}

 private:
  /// Beyond the shared order: claim marks, and at most m/2 disjoint
  /// sessions (and outcome slots) per epoch.
  static std::size_t plan_bytes(std::size_t m) {
    return core::Arena::bytes_for<std::uint64_t>(m) +
           core::Arena::bytes_for<Session>(m / 2) +
           core::Arena::bytes_for<Outcome>(m / 2);
  }

  void restore(const Checkpoint& ck) override {
    next_session_ = ck.next_session;
    result_.conflicts = ck.conflicts;
    result_.peer_retries = ck.peer_retries;
  }

  void save(Checkpoint& ck) const override {
    ck.next_session = next_session_;
    ck.conflicts = result_.conflicts;
    ck.peer_retries = result_.peer_retries;
    ck.obs_counters = checkpoint_obs_counters(
        {{"parexchange.sessions", ck.exchanges},
         {"parexchange.conflicts", ck.conflicts},
         {"parexchange.retries", ck.peer_retries},
         {"parexchange.epochs", ck.epochs}},
        ck.churn);
  }

  /// The epoch still happened on the churn timeline (events applied,
  /// orphans re-dispatched); it just held no sessions.
  void idle_epoch() override { close_epoch(0); }

  void begin_epoch(std::uint64_t epoch) override {
    const std::vector<MachineId>& live = churn_.live_machines();
    batch_.clear();
    committed_ = false;
    stats::Rng epoch_rng = stats::Rng::stream(stream_seed_ ^ kEpochSalt, epoch);
    stats::shuffle(order_.begin(), order_.end(), epoch_rng);
    const std::size_t budget =
        std::min(live.size() / 2, options_.max_exchanges - result_.exchanges);
    for (const MachineId initiator : order_) {
      if (batch_.size() == budget) break;
      if (claimed_[initiator] == epoch) continue;
      stats::Rng srng = stats::Rng::stream(stream_seed_, next_session_++);
      Session session;
      session.initiator = initiator;
      bool planned = false;
      for (std::size_t attempt = 0; attempt <= kMaxPeerRetries; ++attempt) {
        // Peer selection runs over the compacted live machine set; with
        // the whole cluster live the mapping is the identity.
        const MachineId peer = live[selector_.select_on(
            static_cast<MachineId>(churn_.live_index(initiator)),
            std::span<const MachineId>(live), schedule_, srng)];
        if (claimed_[peer] != epoch) {
          session.peer = peer;
          planned = true;
          break;
        }
        ++session.retries;
      }
      result_.peer_retries += session.retries;
      if (c_retries_ != nullptr && session.retries != 0) {
        c_retries_->add(session.retries);
      }
      if (!planned) {
        // Every draw hit a machine already in the batch: abandon. The
        // first session of an epoch always plans (nothing is claimed
        // yet), so an epoch with two live machines is never empty.
        ++result_.conflicts;
        if (c_conflicts_ != nullptr) c_conflicts_->add();
        continue;
      }
      claimed_[initiator] = epoch;
      claimed_[session.peer] = epoch;
      batch_.push_back(session);
    }
  }

  std::optional<Cost> step(std::uint64_t epoch) override {
    if (committed_) return std::nullopt;
    committed_ = true;

    // ---- execute (parallel): disjoint pairs, outcomes into fixed slots --
    outcomes_.assign(batch_.size(), Outcome{});
    const auto run_range = [&](std::size_t begin, std::size_t end) {
      for (std::size_t s = begin; s < end; ++s) {
        const Session& session = batch_[s];
        const MachineId lo = std::min(session.initiator, session.peer);
        const MachineId hi = std::max(session.initiator, session.peer);
        const std::scoped_lock guard(locks_[lo], locks_[hi]);
        const std::uint64_t arrivals_pre =
            schedule_.arrivals(session.initiator) +
            schedule_.arrivals(session.peer);
        outcomes_[s].changed =
            kernel_.balance(schedule_, session.initiator, session.peer);
        outcomes_[s].moved = schedule_.arrivals(session.initiator) +
                             schedule_.arrivals(session.peer) - arrivals_pre;
      }
    };
    if (pool_ != nullptr && batch_.size() > 1) {
      parallel::parallel_for(*pool_, batch_.size(), run_range);
    } else {
      run_range(0, batch_.size());
    }

    // ---- commit (sequential, in session order) ----
    for (std::size_t s = 0; s < batch_.size(); ++s) {
      ++result_.exchanges;
      if (outcomes_[s].changed) ++result_.changed_exchanges;
      if (c_sessions_ != nullptr) c_sessions_->add();
      if (tracer_ != nullptr) {
        // Virtual time: session k spans [k, k+1) microseconds.
        const auto ts = static_cast<double>(result_.exchanges - 1);
        tracer_->begin(
            ts, batch_[s].initiator, "session", "dist",
            {{"initiator", static_cast<std::int64_t>(batch_[s].initiator)},
             {"peer", static_cast<std::int64_t>(batch_[s].peer)},
             {"kernel", std::string(kernel_.name())}});
        tracer_->end(
            ts + 1.0, batch_[s].initiator, "session",
            {{"changed", outcomes_[s].changed},
             {"jobs_moved", static_cast<std::int64_t>(outcomes_[s].moved)},
             {"epoch", static_cast<std::int64_t>(epoch)}});
      }
    }
    return close_epoch(batch_.size());
  }

  /// Epoch-boundary bookkeeping for an epoch that ran `sessions` sessions.
  Cost close_epoch(std::size_t sessions) {
    if (c_epochs_ != nullptr) c_epochs_->add();
    const Cost cmax = schedule_.makespan();
    if (g_cmax_ != nullptr) g_cmax_->set(cmax);
    if (options_.record_trace) {
      result_.epoch_trace.push_back(
          {cmax, static_cast<std::uint64_t>(sessions), run_migrations()});
    }
    return cmax;
  }

  const PeerSelector& selector_;
  parallel::ThreadPool* const pool_;
  const std::uint64_t stream_seed_;
  ParallelRunResult& result_;
  /// Defense-in-depth per-machine locks, always taken in (min, max) id
  /// order. Planned pairs are disjoint, so they never contend; they keep
  /// the execute phase safe by construction (and visibly ordered under
  /// TSan) even if a future kernel reads beyond its own pair.
  const std::unique_ptr<std::mutex[]> locks_;
  /// Epoch-stamped claim marks: claimed_[i] == epoch means machine i is in
  /// this epoch's batch. Resets for free as the epoch number advances
  /// (resumed runs continue the numbering, so zeroed marks never collide).
  const std::span<std::uint64_t> claimed_;
  core::FixedVec<Session> batch_;
  core::FixedVec<Outcome> outcomes_;
  obs::Counter* const c_sessions_ = counter("parexchange.sessions");
  obs::Counter* const c_conflicts_ = counter("parexchange.conflicts");
  obs::Counter* const c_retries_ = counter("parexchange.retries");
  obs::Counter* const c_epochs_ = counter("parexchange.epochs");
  obs::Gauge* const g_cmax_ = gauge("parexchange.cmax");
  std::uint64_t next_session_ = 0;  ///< Global id feeding session streams.
  bool committed_ = false;          ///< This epoch's batch has run.
};

}  // namespace

ParallelRunResult ParallelExchangeEngine::run(
    Schedule& schedule, const ParallelEngineOptions& options,
    std::uint64_t seed) const {
  ParallelRunResult result;
  ParallelPlanner(schedule, options, *kernel_, *selector_, seed, result)
      .run();
  return result;
}

}  // namespace dlb::dist
