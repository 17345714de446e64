#include "probe.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>

#include "net/frame.hpp"

namespace perfbench {

namespace {
thread_local Span* t_current_span = nullptr;
std::atomic<std::uint64_t> g_next_probe_id{1};
}  // namespace

double LayerStats::percentile_ns(double q) const {
  if (samples.empty()) return 0.0;
  std::vector<std::uint64_t> sorted = samples;
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(sorted.size())));
  const std::size_t index =
      std::min(sorted.size() - 1, rank == 0 ? 0 : rank - 1);
  std::nth_element(sorted.begin(),
                   sorted.begin() + static_cast<std::ptrdiff_t>(index),
                   sorted.end());
  return static_cast<double>(sorted[index]);
}

Probe::Probe() : id_(g_next_probe_id.fetch_add(1)) {}

Probe::Shard& Probe::shard() {
  thread_local std::uint64_t cached_id = 0;
  thread_local Shard* cached = nullptr;
  if (cached_id != id_) {
    const std::scoped_lock guard(mutex_);
    shards_.push_back(std::make_unique<Shard>());
    cached = shards_.back().get();
    cached_id = id_;
  }
  return *cached;
}

void Probe::record(Layer layer, std::uint64_t ns, std::uint64_t child_ns,
                   bool sample) {
  LayerStats& stats = shard().layers[static_cast<std::size_t>(layer)];
  ++stats.calls;
  stats.total_ns += ns;
  stats.child_ns += child_ns;
  if (sample) stats.samples.push_back(ns);
}

void Probe::add(Count count, std::uint64_t n) {
  shard().counts[static_cast<std::size_t>(count)] += n;
}

const Probe::Shard& Probe::merged() const {
  if (!merged_) {
    merged_ = std::make_unique<Shard>();
    for (const auto& shard : shards_) {
      for (std::size_t l = 0; l < shard->layers.size(); ++l) {
        const LayerStats& from = shard->layers[l];
        LayerStats& to = merged_->layers[l];
        to.calls += from.calls;
        to.total_ns += from.total_ns;
        to.child_ns += from.child_ns;
        to.samples.insert(to.samples.end(), from.samples.begin(),
                          from.samples.end());
      }
      for (std::size_t c = 0; c < shard->counts.size(); ++c) {
        merged_->counts[c] += shard->counts[c];
      }
    }
  }
  return *merged_;
}

const LayerStats& Probe::layer(Layer layer) const {
  return merged().layers[static_cast<std::size_t>(layer)];
}

std::uint64_t Probe::count(Count count) const {
  return merged().counts[static_cast<std::size_t>(count)];
}

Span::Span(Probe& probe, Layer layer, bool sample) noexcept
    : probe_(probe),
      layer_(layer),
      sample_(sample),
      parent_(t_current_span),
      start_ns_(now_ns()) {
  t_current_span = this;
}

Span::~Span() {
  const std::uint64_t ns = now_ns() - start_ns_;
  t_current_span = parent_;
  if (parent_ != nullptr) {
    parent_->children_ns_ += ns;
  } else {
    probe_.add(Count::kTopNs, ns);
  }
  probe_.record(layer_, ns, children_ns_, sample_);
}

bool TimedKernel::balance(dlb::Schedule& schedule, dlb::MachineId a,
                          dlb::MachineId b) const {
  thread_local std::uint64_t calls = 0;
  thread_local std::vector<dlb::JobId> gathered;
  const bool gather = ++calls % gather_every_ == 0;
  if (gather) {
    const Span span(*probe_, Layer::kGather);
    dlb::pairwise::pooled_jobs_into(schedule, a, b, gathered);
  }
  const std::size_t pool_jobs =
      schedule.jobs_on(a).size() + schedule.jobs_on(b).size();
  const std::uint64_t arrivals_before =
      schedule.arrivals(a) + schedule.arrivals(b);
  bool changed = false;
  {
    const Span span(*probe_, Layer::kBalance, !gather);
    changed = inner_->balance(schedule, a, b);
  }
  probe_->add(Count::kChanged, changed ? 1 : 0);
  probe_->add(Count::kMoved,
              schedule.arrivals(a) + schedule.arrivals(b) - arrivals_before);
  probe_->add(Count::kPoolJobs, pool_jobs);
  return changed;
}

void TimedTransport::set_handler(FrameHandler handler) {
  handler_ = std::move(handler);
  inner_->set_handler([this](const dlb::net::Frame& frame) {
    if (frame.type == dlb::net::FrameType::kDone) {
      const auto sent = request_sent_ns_.find(frame.token);
      if (sent != request_sent_ns_.end()) {
        probe_->record(Layer::kRtt, now_ns() - sent->second, 0, true);
        request_sent_ns_.erase(sent);
      }
    }
    const Span span(*probe_, Layer::kHandler);
    handler_(frame);
  });
}

void TimedTransport::send(const dlb::net::Frame& frame) {
  if (frame.type == dlb::net::FrameType::kRequest) {
    // First transmission only: a retransmitted REQUEST keeps the start.
    request_sent_ns_.try_emplace(frame.token, now_ns());
  }
  probe_->add(Count::kFramesSent, 1);
  probe_->add(Count::kBytesSent, dlb::net::encode_frame(frame).size());
  const Span span(*probe_, Layer::kSend);
  inner_->send(frame);
}

}  // namespace perfbench
