#pragma once

// Outside-in tracing for the benchmark's traced runs. Every span is taken
// in the benchmark's own code, around a call into one of libdlb's public
// seams: the decorators below implement PairKernel, PeerSelector,
// PlacementPolicy and net::Transport by forwarding each call unchanged to
// the real implementation, timing it on std::chrono::steady_clock. The
// library itself is not instrumented.
//
// Spans nest per thread (a kernel call inside a frame handler inside a
// poll), so each layer's self time is its span time minus the part its
// child spans cover. The untraced runs use the real objects directly, with
// no decorator in the call path.

#include <array>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "core/schedule.hpp"
#include "dist/open_system/placement.hpp"
#include "dist/peer_selector.hpp"
#include "net/transport.hpp"
#include "pairwise/pair_kernel.hpp"

namespace perfbench {

[[nodiscard]] inline std::uint64_t now_ns() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

[[nodiscard]] inline double seconds_since(std::uint64_t start_ns) noexcept {
  return static_cast<double>(now_ns() - start_ns) * 1e-9;
}

/// The layers a traced run times. kRtt is not a span: it holds the
/// REQUEST-sent to DONE-delivered interval of each fleet session.
enum class Layer : std::size_t {
  kBalance,  ///< PairKernel::balance
  kGather,   ///< pairwise::pooled_jobs_into, sampled sessions only
  kSelect,   ///< PeerSelector::select_on
  kPlace,    ///< PlacementPolicy::place
  kSend,     ///< Transport::send
  kPoll,     ///< Transport::poll
  kHandler,  ///< the frame handler the transport delivers into
  kRtt,
  kCount,
};

/// Counters the decorators keep next to their spans.
enum class Count : std::size_t {
  kChanged,     ///< balance() calls that returned true
  kMoved,       ///< jobs the kernel delivered onto a or b
  kPoolJobs,    ///< jobs on a and b when balance() was called
  kFramesSent,
  kBytesSent,   ///< encode_frame() size of every frame sent
  kTopNs,       ///< time inside spans that have no parent span
  kCount,
};

struct LayerStats {
  std::uint64_t calls = 0;
  std::uint64_t total_ns = 0;
  std::uint64_t child_ns = 0;  ///< part of total_ns covered by child spans
  std::vector<std::uint64_t> samples;  ///< per-call ns, for percentiles

  [[nodiscard]] double total_s() const noexcept {
    return static_cast<double>(total_ns) * 1e-9;
  }
  [[nodiscard]] double self_s() const noexcept {
    return static_cast<double>(total_ns - child_ns) * 1e-9;
  }
  /// Nearest-rank percentile of the samples in ns; 0 without samples.
  [[nodiscard]] double percentile_ns(double q) const;
};

/// Collects spans and counters from every thread of one traced repetition.
/// Each thread records into its own shard, so the kernel's pool workers
/// never contend; the shards are merged when the repetition is read.
class Probe {
 public:
  Probe();
  Probe(const Probe&) = delete;
  Probe& operator=(const Probe&) = delete;

  void record(Layer layer, std::uint64_t ns, std::uint64_t child_ns,
              bool sample);
  void add(Count count, std::uint64_t n);

  /// Read after the repetition, never concurrently with record()/add().
  [[nodiscard]] const LayerStats& layer(Layer layer) const;
  [[nodiscard]] std::uint64_t count(Count count) const;

 private:
  struct Shard {
    std::array<LayerStats, static_cast<std::size_t>(Layer::kCount)> layers;
    std::array<std::uint64_t, static_cast<std::size_t>(Count::kCount)>
        counts{};
  };

  /// The calling thread's shard, created on its first record.
  Shard& shard();
  const Shard& merged() const;

  std::uint64_t id_;  ///< distinguishes probes that reuse an address
  std::mutex mutex_;  ///< guards shards_
  std::vector<std::unique_ptr<Shard>> shards_;
  mutable std::unique_ptr<Shard> merged_;
};

/// RAII span. Nesting is tracked per thread: a span closing inside another
/// adds its duration to the parent's child time.
class Span {
 public:
  Span(Probe& probe, Layer layer, bool sample = true) noexcept;
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Probe& probe_;
  Layer layer_;
  bool sample_;
  Span* parent_;
  std::uint64_t children_ns_ = 0;
  std::uint64_t start_ns_;
};

/// PairKernel decorator. Every `gather_every`-th call on a thread first
/// times pooled_jobs_into on the pair (read-only); that call's balance time
/// then counts towards busy time but not towards the balance percentiles,
/// because the gather has just warmed its cache lines.
class TimedKernel final : public dlb::pairwise::PairKernel {
 public:
  TimedKernel(const dlb::pairwise::PairKernel& inner, Probe& probe,
              std::uint64_t gather_every)
      : inner_(&inner), probe_(&probe), gather_every_(gather_every) {}

  void prepare(dlb::Schedule& schedule) const override {
    inner_->prepare(schedule);
  }
  bool balance(dlb::Schedule& schedule, dlb::MachineId a,
               dlb::MachineId b) const override;
  [[nodiscard]] std::string_view name() const noexcept override {
    return inner_->name();
  }

 private:
  const dlb::pairwise::PairKernel* inner_;
  Probe* probe_;
  std::uint64_t gather_every_;
};

class TimedSelector final : public dlb::dist::PeerSelector {
 public:
  TimedSelector(const dlb::dist::PeerSelector& inner, Probe& probe)
      : inner_(&inner), probe_(&probe) {}

  [[nodiscard]] dlb::MachineId select(dlb::MachineId initiator,
                                      std::size_t num_machines,
                                      dlb::stats::Rng& rng) const override {
    return inner_->select(initiator, num_machines, rng);
  }
  [[nodiscard]] dlb::MachineId select_on(
      dlb::MachineId initiator, std::span<const dlb::MachineId> live,
      const dlb::Schedule& schedule, dlb::stats::Rng& rng) const override {
    // Selection takes tens of ns, about what a span costs: every call is
    // timed, but only one in 16 is kept as a percentile sample.
    thread_local std::uint64_t calls = 0;
    const Span span(*probe_, Layer::kSelect, ++calls % 16 == 0);
    return inner_->select_on(initiator, live, schedule, rng);
  }
  [[nodiscard]] std::string_view name() const noexcept override {
    return inner_->name();
  }

 private:
  const dlb::dist::PeerSelector* inner_;
  Probe* probe_;
};

class TimedPlacement final : public dlb::dist::PlacementPolicy {
 public:
  TimedPlacement(const dlb::dist::PlacementPolicy& inner, Probe& probe)
      : inner_(&inner), probe_(&probe) {}

  [[nodiscard]] std::string name() const override { return inner_->name(); }
  [[nodiscard]] dlb::MachineId place(const dlb::dist::PlacementView& view,
                                     dlb::JobId job,
                                     dlb::stats::Rng& rng) const override {
    const Span span(*probe_, Layer::kPlace);
    return inner_->place(view, job, rng);
  }

 private:
  const dlb::dist::PlacementPolicy* inner_;
  Probe* probe_;
};

/// Transport decorator for one fleet endpoint (single-threaded, like the
/// transport it wraps). Besides send/poll/handler spans it matches each
/// session's first REQUEST to the DONE delivered back by Frame::token.
class TimedTransport final : public dlb::net::Transport {
 public:
  TimedTransport(dlb::net::Transport& inner, Probe& probe)
      : inner_(&inner), probe_(&probe) {}

  void set_handler(FrameHandler handler) override;
  void connect() override { inner_->connect(); }
  void send(const dlb::net::Frame& frame) override;
  void schedule_after(double delay, TimerCallback callback) override {
    inner_->schedule_after(delay, std::move(callback));
  }
  [[nodiscard]] const dlb::net::Clock& clock() const override {
    return inner_->clock();
  }
  [[nodiscard]] const std::vector<dlb::MachineId>& local_machines()
      const override {
    return inner_->local_machines();
  }
  [[nodiscard]] std::size_t num_machines() const override {
    return inner_->num_machines();
  }
  [[nodiscard]] bool reachable(dlb::MachineId machine) const override {
    return inner_->reachable(machine);
  }
  std::size_t poll(double max_wait) override {
    const Span span(*probe_, Layer::kPoll);
    return inner_->poll(max_wait);
  }

 private:
  dlb::net::Transport* inner_;
  Probe* probe_;
  FrameHandler handler_;
  std::unordered_map<std::uint64_t, std::uint64_t> request_sent_ns_;
};

}  // namespace perfbench
