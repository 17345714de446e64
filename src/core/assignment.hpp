#pragma once

// Assignment: the partition S of jobs onto machines (the object every
// algorithm in the paper constructs). A plain job -> machine map with a
// sentinel for "not yet placed"; the stateful view with loads and
// per-machine job lists lives in Schedule.

#include <cstddef>
#include <vector>

#include "core/types.hpp"

namespace dlb {

class Instance;

class Assignment {
 public:
  /// Empty assignment (zero jobs); useful as a placeholder in result structs.
  Assignment() = default;

  /// All jobs unassigned.
  explicit Assignment(std::size_t num_jobs)
      : machine_of_(num_jobs, kUnassigned) {}

  /// From an explicit map; values must be valid machine ids or kUnassigned.
  explicit Assignment(std::vector<MachineId> machine_of)
      : machine_of_(std::move(machine_of)) {}

  [[nodiscard]] std::size_t num_jobs() const noexcept {
    return machine_of_.size();
  }

  [[nodiscard]] MachineId machine_of(JobId j) const noexcept {
    return machine_of_[j];
  }

  void assign(JobId j, MachineId i) noexcept { machine_of_[j] = i; }
  void unassign(JobId j) noexcept { machine_of_[j] = kUnassigned; }

  [[nodiscard]] bool is_assigned(JobId j) const noexcept {
    return machine_of_[j] != kUnassigned;
  }

  /// True when every job has a machine.
  [[nodiscard]] bool is_complete() const noexcept;

  [[nodiscard]] const std::vector<MachineId>& raw() const noexcept {
    return machine_of_;
  }

  friend bool operator==(const Assignment&, const Assignment&) = default;

  // ----- canonical initial distributions -----

  /// Job j on machine j % m.
  static Assignment round_robin(std::size_t num_jobs, std::size_t num_machines);

  /// Every job on one machine (the degenerate "all work appears on one
  /// node" start).
  static Assignment all_on(std::size_t num_jobs, MachineId machine);

 private:
  std::vector<MachineId> machine_of_;
};

}  // namespace dlb
