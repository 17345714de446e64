#include "core/assignment.hpp"

#include <algorithm>

namespace dlb {

bool Assignment::is_complete() const noexcept {
  return std::none_of(machine_of_.begin(), machine_of_.end(),
                      [](MachineId i) { return i == kUnassigned; });
}

Assignment Assignment::round_robin(std::size_t num_jobs,
                                   std::size_t num_machines) {
  Assignment a(num_jobs);
  for (JobId j = 0; j < num_jobs; ++j) {
    a.assign(j, static_cast<MachineId>(j % num_machines));
  }
  return a;
}

Assignment Assignment::all_on(std::size_t num_jobs, MachineId machine) {
  Assignment a(num_jobs);
  for (JobId j = 0; j < num_jobs; ++j) a.assign(j, machine);
  return a;
}

}  // namespace dlb
