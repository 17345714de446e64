#include "dist/open_system/open_checkpoint.hpp"

#include <istream>
#include <ostream>
#include <stdexcept>
#include <string>

#include "core/assignment.hpp"
#include "dist/record_io.hpp"

namespace dlb::dist {

Schedule OpenCheckpoint::make_schedule(const Instance& instance) const {
  if (instance.num_machines() != num_machines ||
      instance.num_jobs() != num_jobs) {
    throw std::invalid_argument(
        "OpenCheckpoint::make_schedule: instance shape mismatch (checkpoint "
        "is for " +
        std::to_string(num_machines) + " machines / " +
        std::to_string(num_jobs) + " jobs, instance has " +
        std::to_string(instance.num_machines()) + " / " +
        std::to_string(instance.num_jobs()) + ")");
  }
  Schedule schedule(instance, Assignment(assignment));
  if (!loads.empty()) schedule.restore_loads(loads);
  return schedule;
}

void OpenCheckpoint::save(std::ostream& out) const {
  out << "dlb-open-checkpoint v1\n";
  out << "seed " << seed << "\n";
  out << "machines " << num_machines << " jobs " << num_jobs
      << " total_arrivals " << total_arrivals << "\n";
  out << "now " << record::bits_of(now) << " events " << events << " bursts "
      << bursts << "\n";
  out << "submitted " << submitted << " completed " << completed << "\n";
  out << "repair_exchanges " << repair_exchanges << " repair_migrations "
      << repair_migrations << " repair_changed " << repair_changed << "\n";
  out << "place_rng " << place_rng[0] << ' ' << place_rng[1] << ' '
      << place_rng[2] << ' ' << place_rng[3] << "\n";
  out << "repair_rng " << repair_rng[0] << ' ' << repair_rng[1] << ' '
      << repair_rng[2] << ' ' << repair_rng[3] << "\n";
  record::write_row(out, "assignment", assignment, kUnassigned);
  record::write_row(out, "loads", loads);
  record::write_row(out, "in_service", in_service, kNoJob);
  record::write_row(out, "busy_until", busy_until);
  record::write_row(out, "completion_time", completion_time);
  record::write_row(out, "queue_seen", queue_seen);
}

OpenCheckpoint OpenCheckpoint::load(std::istream& in) {
  record::Reader r(in, "OpenCheckpoint::load");
  r.header("dlb-open-checkpoint");
  OpenCheckpoint ck;
  ck.seed = r.value<std::uint64_t>("seed");
  ck.num_machines = r.value<std::size_t>("machines");
  ck.num_jobs = r.value<std::size_t>("jobs");
  ck.total_arrivals = r.value<std::size_t>("total_arrivals");
  ck.now = r.bits_value("now");
  ck.events = r.value<std::uint64_t>("events");
  ck.bursts = r.value<std::uint64_t>("bursts");
  ck.submitted = r.value<std::size_t>("submitted");
  ck.completed = r.value<std::size_t>("completed");
  // Resume indexes the arrival stream by `submitted`: an out-of-order
  // counter read past it or reported more completions than arrivals.
  if (ck.completed > ck.submitted || ck.submitted > ck.total_arrivals ||
      ck.total_arrivals > ck.num_jobs) {
    r.fail("progress counters must satisfy completed <= submitted <= "
           "total_arrivals <= jobs, got " +
           std::to_string(ck.completed) + ", " +
           std::to_string(ck.submitted) + ", " +
           std::to_string(ck.total_arrivals) + ", " +
           std::to_string(ck.num_jobs));
  }
  ck.repair_exchanges = r.value<std::uint64_t>("repair_exchanges");
  ck.repair_migrations = r.value<std::uint64_t>("repair_migrations");
  ck.repair_changed = r.value<std::uint64_t>("repair_changed");
  r.words("place_rng", ck.place_rng);
  r.words("repair_rng", ck.repair_rng);
  const std::size_t machines = ck.num_machines;
  const std::size_t jobs = ck.num_jobs;
  r.id_row(ck.assignment, r.count("assignment", jobs, "jobs"), kUnassigned,
           "assignment");
  r.ids_below(ck.assignment, machines, "machines", "assignment", kUnassigned);
  r.row(ck.loads, r.count("loads", machines, "machines"), "loads");
  r.id_row(ck.in_service, r.count("in_service", machines, "machines"),
           kNoJob, "in_service");
  r.ids_below(ck.in_service, jobs, "jobs", "in_service", kNoJob);
  r.row(ck.busy_until, r.count("busy_until", machines, "machines"),
             "busy_until");
  r.row(ck.completion_time, r.count("completion_time", jobs, "jobs"),
             "completion_time");
  r.row(ck.queue_seen, r.count("queue_seen", jobs, "jobs"), "queue_seen");
  return ck;
}

void OpenCheckpoint::save_file(const std::string& path) const {
  record::save_file(path, "OpenCheckpoint::save_file",
                    [this](std::ostream& out) { save(out); });
}

OpenCheckpoint OpenCheckpoint::load_file(const std::string& path) {
  return record::load_file(path, "OpenCheckpoint::load_file", load);
}

}  // namespace dlb::dist
