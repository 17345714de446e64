#include "dist/checkpoint.hpp"

#include <algorithm>
#include <initializer_list>
#include <istream>
#include <ostream>
#include <stdexcept>
#include <string>
#include <utility>

#include "core/assignment.hpp"
#include "dist/record_io.hpp"

namespace dlb::dist {

Schedule Checkpoint::make_schedule(const Instance& instance) const {
  if (instance.num_machines() != num_machines ||
      instance.num_jobs() != num_jobs) {
    throw std::invalid_argument(
        "Checkpoint::make_schedule: instance shape mismatch (checkpoint "
        "is for " +
        std::to_string(num_machines) + " machines / " +
        std::to_string(num_jobs) + " jobs, instance has " +
        std::to_string(instance.num_machines()) + " / " +
        std::to_string(instance.num_jobs()) + ")");
  }
  Schedule schedule(instance, Assignment(assignment));
  for (MachineId i = 0; i < live.size(); ++i) {
    if (live[i] == 0) schedule.set_live(i, false);
  }
  if (!loads.empty()) schedule.restore_loads(loads);
  return schedule;
}

void Checkpoint::save(std::ostream& out) const {
  out << "dlb-checkpoint v1\n";
  out << "engine " << (engine == Engine::kSequential ? "seq" : "parallel")
      << "\n";
  out << "seed " << seed << "\n";
  out << "machines " << num_machines << " jobs " << num_jobs << "\n";
  out << "rng " << rng_state[0] << ' ' << rng_state[1] << ' ' << rng_state[2]
      << ' ' << rng_state[3] << "\n";
  out << "epochs " << epochs << " next_session " << next_session << "\n";
  out << "exchanges " << exchanges << " changed " << changed_exchanges
      << " migrations " << migrations << "\n";
  out << "conflicts " << conflicts << " peer_retries " << peer_retries
      << "\n";
  out << "initial_makespan " << record::bits_of(initial_makespan)
      << " best_makespan " << record::bits_of(best_makespan) << "\n";
  record::write_row(out, "order", order);
  record::write_row(out, "live", live);
  record::write_row(out, "assignment", assignment, kUnassigned);
  record::write_row(out, "loads", loads);
  out << "churn_cursor " << churn_cursor << "\n";
  record::write_row(out, "churn_queue", churn_queue);
  out << "churn_counters " << churn.joins << ' ' << churn.drains << ' '
      << churn.crashes << ' ' << churn.orphaned << ' ' << churn.redispatched
      << "\n";
  out << "obs_counters " << obs_counters.size() << "\n";
  for (const auto& [name, value] : obs_counters) {
    out << name << ' ' << value << "\n";
  }
}

Checkpoint Checkpoint::load(std::istream& in) {
  record::Reader r(in, "Checkpoint::load");
  r.header("dlb-checkpoint");
  Checkpoint ck;
  const auto kind = r.value<std::string>("engine");
  if (kind == "seq") {
    ck.engine = Engine::kSequential;
  } else if (kind == "parallel") {
    ck.engine = Engine::kParallel;
  } else {
    r.fail("unknown engine kind \"" + kind + "\"");
  }
  ck.seed = r.value<std::uint64_t>("seed");
  ck.num_machines = r.value<std::size_t>("machines");
  ck.num_jobs = r.value<std::size_t>("jobs");
  r.words("rng", ck.rng_state);
  ck.epochs = r.value<std::uint64_t>("epochs");
  ck.next_session = r.value<std::uint64_t>("next_session");
  ck.exchanges = r.value<std::uint64_t>("exchanges");
  ck.changed_exchanges = r.value<std::uint64_t>("changed");
  ck.migrations = r.value<std::uint64_t>("migrations");
  ck.conflicts = r.value<std::uint64_t>("conflicts");
  ck.peer_retries = r.value<std::uint64_t>("peer_retries");
  ck.initial_makespan = r.bits_value("initial_makespan");
  ck.best_makespan = r.bits_value("best_makespan");

  const std::size_t machines = ck.num_machines;
  const std::size_t jobs = ck.num_jobs;
  r.row(ck.order, r.count("order", machines, "machines"),
        "order permutation");
  r.ids_below(ck.order, machines, "machines", "order permutation");
  r.distinct(ck.order, "order permutation");
  const std::size_t live_size = r.count("live", machines, "machines");
  for (std::size_t i = 0; i < live_size; ++i) {
    int bit = 0;
    if (!(in >> bit) || (bit != 0 && bit != 1)) {
      r.fail("bad live mask entry");
    }
    ck.live.push_back(static_cast<std::uint8_t>(bit));
  }
  r.id_row(ck.assignment, r.count("assignment", jobs, "jobs"), kUnassigned,
           "assignment");
  r.ids_below(ck.assignment, machines, "machines", "assignment", kUnassigned);
  r.row(ck.loads, r.count("loads", machines, "machines"), "loads");
  ck.churn_cursor = r.value<std::size_t>("churn_cursor");
  r.row(ck.churn_queue, r.count("churn_queue", jobs, "jobs"), "churn queue");
  r.ids_below(ck.churn_queue, jobs, "jobs", "churn queue");
  r.expect("churn_counters");
  if (!(in >> ck.churn.joins >> ck.churn.drains >> ck.churn.crashes >>
        ck.churn.orphaned >> ck.churn.redispatched)) {
    r.fail("truncated churn counters");
  }
  const auto obs_size = r.value<std::size_t>("obs_counters");
  for (std::size_t k = 0; k < obs_size; ++k) {
    std::string name;
    std::uint64_t value = 0;
    if (!(in >> name >> value)) r.fail("truncated obs counters");
    ck.obs_counters.emplace_back(std::move(name), value);
  }
  return ck;
}

std::vector<std::pair<std::string, std::uint64_t>> checkpoint_obs_counters(
    std::initializer_list<std::pair<const char*, std::uint64_t>> engine,
    const ChurnCounters& churn) {
  std::vector<std::pair<std::string, std::uint64_t>> out;
  for (const auto& [name, value] : engine) {
    if (value != 0) out.emplace_back(name, value);
  }
  if (churn.joins != 0) out.emplace_back("churn.joins", churn.joins);
  if (churn.drains != 0) out.emplace_back("churn.drains", churn.drains);
  if (churn.crashes != 0) out.emplace_back("churn.crashes", churn.crashes);
  if (churn.orphaned != 0) out.emplace_back("churn.orphaned", churn.orphaned);
  if (churn.redispatched != 0) {
    out.emplace_back("churn.redispatched", churn.redispatched);
  }
  std::sort(out.begin(), out.end());
  return out;
}

void Checkpoint::save_file(const std::string& path) const {
  record::save_file(path, "Checkpoint::save_file",
                    [this](std::ostream& out) { save(out); });
}

Checkpoint Checkpoint::load_file(const std::string& path) {
  return record::load_file(path, "Checkpoint::load_file", load);
}

}  // namespace dlb::dist
