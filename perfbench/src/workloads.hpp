#pragma once

// The benchmark's four workloads (README.md says why each exists). Each
// one generates its inputs from the seed in prepare(), which run.py calls
// in a separate, untimed process and caches per (workload, seed). A
// repetition then sets up from the cached `.dlbi` through the public
// InstanceStore, runs, and checks its own outputs. Every deterministic
// output of a repetition lands in Rep::digest, so the benchmark can require
// that repetitions, traced runs and pool sizes all agree bit for bit.

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "core/schedule.hpp"
#include "parallel/thread_pool.hpp"
#include "probe.hpp"

namespace perfbench {

struct Rep {
  double open_s = 0.0;     ///< InstanceStore::open_mapped
  double build_s = 0.0;    ///< Schedule(s) from the stored assignment
  double connect_s = 0.0;  ///< fleet: transport construction + connect()
  double wall_s = 0.0;     ///< the measured run

  std::uint64_t operations = 0;  ///< sessions, or jobs for open_service
  /// First correctness-gate violation; empty = ok. A repetition with an
  /// error counts all of its operations as failed (an undrained job
  /// fails the open_service gate).
  std::string error;

  // Deterministic outputs (also serialized into digest).
  double sessions = 0.0;
  double migrations = 0.0;
  double events = 0.0;
  double cmax_over_lb = 0.0;
  double migrations_per_job = 0.0;
  double response_p50 = 0.0;
  double response_p99 = 0.0;
  std::string digest;

  /// Per-layer facts read from the library's own result structs, named as
  /// the per-layer metrics they feed (dist.epochs, net.retries, ...).
  std::map<std::string, double> facts;
  /// Threads that executed PairKernel::balance concurrently.
  double kernel_threads = 1.0;
  /// fleet_unix: wall time of each endpoint's event loop.
  std::vector<double> endpoint_wall_s;
  /// Which of Workload::variants() produced this repetition.
  std::size_t variant = 0;
  /// Rescales this repetition's times to the nominal host speed
  /// (host_speed.hpp); set in main.cpp from the probes around it.
  double host_scale = 1.0;

  [[nodiscard]] double setup_s() const noexcept {
    return open_s + build_s + connect_s;
  }
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// Writes the seeded inputs (instance.dlbi, lower bound) into `dir`.
  virtual void prepare(const std::string& dir, std::uint64_t seed) const = 0;
  /// Reads the cached inputs' side data and builds references (untimed).
  virtual void load(const std::string& dir, std::uint64_t seed) = 0;
  /// Independent engine seeds a run cycles through (see README.md).
  [[nodiscard]] virtual std::size_t variants() const { return 1; }
  /// One repetition of `variant`. A non-null probe routes every seam
  /// through the timing decorators; null uses the library's objects
  /// directly.
  virtual Rep run(std::size_t variant, dlb::parallel::ThreadPool* pool,
                  Probe* probe) = 0;
  /// The set-up part of a repetition alone (timings only).
  virtual Rep setup_only() = 0;
  /// The final schedule of the last run(), for the sampled direct calls.
  [[nodiscard]] virtual const dlb::Schedule& last_schedule() const = 0;
  /// Computed bytes of the instance mapping plus the schedule's arrays.
  [[nodiscard]] virtual std::size_t working_set_bytes() const = 0;
  /// Workers of the pool the timed repetitions run on, given the online
  /// CPU count; 0 runs them without a pool.
  [[nodiscard]] virtual std::size_t pool_threads(std::size_t /*cpus*/) const {
    return 0;
  }
  /// True when the deterministic outputs must not depend on the pool
  /// (checked in the traced run on pools of 1 and `cpus` workers).
  [[nodiscard]] virtual bool pool_invariant() const { return false; }
};

/// Throws std::invalid_argument on an unknown name. `work_dir` is where
/// the fleet puts its Unix sockets.
[[nodiscard]] std::unique_ptr<Workload> make_workload(
    std::string_view name, const std::string& work_dir);

/// Sampled direct calls into core::Schedule on a copy of `schedule`:
/// unassign, assign, move, and makespan() right after a move. Returns the
/// core.* per-layer metrics (ns).
[[nodiscard]] std::map<std::string, double> sample_core(
    const dlb::Schedule& schedule, std::uint64_t seed);

}  // namespace perfbench
