#include "core/schedule.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

#include "stats/rng.hpp"

namespace dlb {

Schedule::Schedule(const Instance& instance)
    : instance_(&instance),
      assignment_(instance.num_jobs()),
      table_(instance.num_machines(), instance.num_jobs()),
      max_tree_((instance.num_machines() + kLoadBlock - 1) / kLoadBlock) {
  max_tree_.mark_all();
}

Schedule::Schedule(const Instance& instance, Assignment assignment)
    : instance_(&instance),
      assignment_(std::move(assignment)),
      table_(instance.num_machines(), instance.num_jobs()),
      max_tree_((instance.num_machines() + kLoadBlock - 1) / kLoadBlock) {
  max_tree_.mark_all();
  if (assignment_.num_jobs() != instance.num_jobs()) {
    throw std::invalid_argument("Schedule: assignment/instance job mismatch");
  }
  for (JobId j = 0; j < assignment_.num_jobs(); ++j) {
    const MachineId i = assignment_.machine_of(j);
    if (i == kUnassigned) continue;
    if (i >= instance.num_machines()) {
      throw std::invalid_argument(
          "Schedule: assignment references bad machine");
    }
    table_.attach(j, i, instance.cost(i, j), /*migrated=*/false);
  }
}

Schedule::Schedule(const Schedule& other)
    : instance_(other.instance_),
      decision_instance_(other.decision_instance_),
      decision_loads_(other.decision_loads_),
      assignment_(other.assignment_),
      table_(other.table_),
      migrations_(other.migrations()),
      max_tree_(other.max_tree_) {}

Schedule& Schedule::operator=(const Schedule& other) {
  if (this == &other) return *this;
  instance_ = other.instance_;
  decision_instance_ = other.decision_instance_;
  decision_loads_ = other.decision_loads_;
  assignment_ = other.assignment_;
  table_ = other.table_;
  migrations_.store(other.migrations(), std::memory_order_relaxed);
  max_tree_ = other.max_tree_;
  return *this;
}

void Schedule::set_decision_instance(
    std::shared_ptr<const Instance> surrogate) {
  if (surrogate && (surrogate->num_machines() != instance_->num_machines() ||
                    surrogate->num_jobs() != instance_->num_jobs())) {
    throw std::invalid_argument(
        "Schedule::set_decision_instance: shape mismatch with the real "
        "instance");
  }
  decision_instance_ = std::move(surrogate);
  if (!decision_instance_) {
    decision_loads_.clear();
    return;
  }
  // Canonical rebuild in ascending job id -- bitwise the constructor's
  // billing order, so equal surrogate costs give equal accumulator bits.
  decision_loads_.assign(instance_->num_machines(), 0.0);
  for (JobId j = 0; j < assignment_.num_jobs(); ++j) {
    const MachineId i = assignment_.machine_of(j);
    if (i == kUnassigned) continue;
    decision_loads_[i] += decision_instance_->cost(i, j);
  }
}

Cost Schedule::makespan() const {
  return table_.num_machines() == 0 ? 0.0 : table_.load(argmax_load());
}

MachineId Schedule::argmax_load() const {
  // A block's candidate is its first maximal load and a tie between blocks
  // keeps the lower one, so the winner is std::max_element's pick.
  const std::span<const Cost> loads = table_.loads();
  max_tree_.repair(
      [&](std::size_t block) {
        const auto first = loads.begin() + block * kLoadBlock;
        const auto last =
            loads.begin() + std::min(loads.size(), (block + 1) * kLoadBlock);
        return static_cast<std::uint32_t>(std::max_element(first, last) -
                                          loads.begin());
      },
      [&](std::uint32_t right, std::uint32_t left) {
        return loads[left] < loads[right];
      });
  const std::uint32_t winner = max_tree_.winner();
  return winner == WinnerTree::kNone ? 0 : winner;
}

void Schedule::sorted_jobs_into(MachineId i, std::vector<JobId>& out) const {
  out.clear();
  out.reserve(table_.count(i));
  for (const JobId j : table_.jobs(i)) out.push_back(j);
  std::sort(out.begin(), out.end());
}

void Schedule::assign(JobId j, MachineId i) {
  if (assignment_.machine_of(j) != kUnassigned) {
    throw std::logic_error("Schedule::assign: job already assigned");
  }
  assignment_.assign(j, i);
  table_.attach(j, i, instance_->cost(i, j), /*migrated=*/false);
  if (decision_instance_) decision_loads_[i] += decision_instance_->cost(i, j);
  mark_dirty(i);
}

void Schedule::move(JobId j, MachineId to) {
  const MachineId from = assignment_.machine_of(j);
  if (from == kUnassigned) {
    assign(j, to);
    return;
  }
  if (from == to) return;
  table_.detach(j, from, instance_->cost(from, j));
  assignment_.assign(j, to);
  table_.attach(j, to, instance_->cost(to, j), /*migrated=*/true);
  if (decision_instance_) {
    decision_loads_[from] -= decision_instance_->cost(from, j);
    decision_loads_[to] += decision_instance_->cost(to, j);
  }
  migrations_.fetch_add(1, std::memory_order_relaxed);
  mark_dirty(from);
  mark_dirty(to);
}

void Schedule::unassign(JobId j) {
  const MachineId from = assignment_.machine_of(j);
  if (from == kUnassigned) return;
  table_.detach(j, from, instance_->cost(from, j));
  if (decision_instance_) {
    decision_loads_[from] -= decision_instance_->cost(from, j);
  }
  assignment_.unassign(j);
  mark_dirty(from);
}

void Schedule::restore_loads(const std::vector<Cost>& loads) {
  if (loads.size() != table_.num_machines()) {
    throw std::invalid_argument(
        "Schedule::restore_loads: expected " +
        std::to_string(table_.num_machines()) + " loads, got " +
        std::to_string(loads.size()));
  }
  for (MachineId i = 0; i < loads.size(); ++i) {
    table_.set_load(i, loads[i]);
  }
  max_tree_.mark_all();
}

std::uint64_t Schedule::fingerprint() const {
  // Position-dependent mix of (job, machine); order-insensitive across jobs
  // because each job contributes a value derived from its own id.
  std::uint64_t h = 0x51ab5f2e8c774177ULL;
  for (JobId j = 0; j < assignment_.num_jobs(); ++j) {
    std::uint64_t x = (static_cast<std::uint64_t>(j) << 32) |
                      static_cast<std::uint64_t>(assignment_.machine_of(j));
    h ^= stats::splitmix64(x);
  }
  return h;
}

Cost Schedule::total_load() const noexcept {
  Cost total = 0.0;
  for (Cost l : table_.loads()) total += l;
  return total;
}

bool Schedule::check_consistency(double tol) const {
  const std::size_t m = table_.num_machines();
  std::vector<Cost> expected(m, 0.0);
  std::vector<char> seen(assignment_.num_jobs(), 0);
  for (MachineId i = 0; i < m; ++i) {
    std::size_t listed = 0;
    for (JobId j : table_.jobs(i)) {
      if (assignment_.machine_of(j) != i) return false;
      if (seen[j]) return false;
      seen[j] = 1;
      expected[i] += instance_->cost(i, j);
      ++listed;
    }
    if (listed != table_.count(i)) return false;
  }
  for (JobId j = 0; j < assignment_.num_jobs(); ++j) {
    if (assignment_.machine_of(j) != kUnassigned && !seen[j]) return false;
  }
  for (MachineId i = 0; i < m; ++i) {
    if (std::abs(expected[i] - table_.load(i)) > tol) return false;
  }
  return true;
}

}  // namespace dlb
