#pragma once

// LoadTable: the per-machine half of a Schedule — machine loads and
// per-machine job membership — stored as seven flat arrays (SoA) instead
// of one heap vector per machine. Each job owns one slot in the shared
// next/prev arrays (an intrusive doubly-linked list threaded through flat
// storage), so:
//   * moving a job between machines is O(1) with zero allocation — the old
//     vector-of-vectors layout paid an O(k) linear find plus occasional
//     push_back reallocation on every move;
//   * two sessions on disjoint machine pairs touch disjoint entries of
//     every array, which is what lets ParallelExchangeEngine run sessions
//     concurrently without synchronising on the table itself.
//
// Iteration order over a machine's jobs is the insertion order of the
// current residents (most recently attached first). Nothing in the library
// depends on that order: callers that need a canonical order gather in
// ascending job id (Schedule::sorted_jobs_into, pairwise::pooled_jobs_into),
// and all consistency checks are order-insensitive.

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "core/types.hpp"

namespace dlb {

class LoadTable {
 public:
  /// Sentinel link meaning "end of list" / "not on any machine".
  static constexpr JobId kNil = kUnassigned;

  LoadTable(std::size_t num_machines, std::size_t num_jobs)
      : next_(num_jobs, kNil),
        prev_(num_jobs, kNil),
        head_(num_machines, kNil),
        count_(num_machines, 0),
        loads_(num_machines, 0.0),
        arrivals_(num_machines, 0),
        live_(num_machines, 1) {}

  [[nodiscard]] std::size_t num_machines() const noexcept {
    return head_.size();
  }

  // ----- elastic machine-set membership (src/dist/churn) -----
  //
  // A dead machine keeps its slots (ids stay stable across churn) but is
  // expected to hold no jobs: crashes orphan their residents and drains
  // migrate them out before the mask flips. Nothing here enforces that —
  // the churn runtime does, and check::check_churn_conservation verifies.

  [[nodiscard]] bool is_live(MachineId i) const noexcept {
    return live_[i] != 0;
  }
  [[nodiscard]] std::span<const std::uint8_t> live_mask() const noexcept {
    return live_;
  }
  void set_live(MachineId i, bool live) noexcept { live_[i] = live ? 1 : 0; }

  [[nodiscard]] Cost load(MachineId i) const noexcept { return loads_[i]; }
  [[nodiscard]] std::span<const Cost> loads() const noexcept {
    return loads_;
  }
  /// Overwrites one load accumulator (src/dist/checkpoint restore): the
  /// incremental sum is order-dependent in the last ulp, so a resumed run
  /// must inherit the accumulator bits, not a from-scratch recomputation.
  void set_load(MachineId i, Cost load) noexcept { loads_[i] = load; }
  [[nodiscard]] std::size_t count(MachineId i) const noexcept {
    return count_[i];
  }

  /// Jobs that ever arrived on machine i via attach() (monotone). Disjoint
  /// pair sessions update disjoint entries, so the parallel engine reads
  /// race-free per-session migration deltas from the two machines it owns.
  [[nodiscard]] std::uint64_t arrivals(MachineId i) const noexcept {
    return arrivals_[i];
  }

  /// Lightweight forward range over the jobs currently on one machine.
  /// Invalidated by any attach/detach on that machine.
  class JobList {
   public:
    class iterator {
     public:
      using value_type = JobId;
      iterator(const JobId* next, JobId at) noexcept : next_(next), at_(at) {}
      JobId operator*() const noexcept { return at_; }
      iterator& operator++() noexcept {
        at_ = next_[at_];
        return *this;
      }
      bool operator==(const iterator& other) const noexcept {
        return at_ == other.at_;
      }

     private:
      const JobId* next_;
      JobId at_;
    };

    JobList(const JobId* next, JobId head, std::size_t size) noexcept
        : next_(next), head_(head), size_(size) {}

    [[nodiscard]] iterator begin() const noexcept { return {next_, head_}; }
    [[nodiscard]] iterator end() const noexcept { return {next_, kNil}; }
    [[nodiscard]] std::size_t size() const noexcept { return size_; }
    [[nodiscard]] bool empty() const noexcept { return size_ == 0; }

   private:
    const JobId* next_;
    JobId head_;
    std::size_t size_;
  };

  [[nodiscard]] JobList jobs(MachineId i) const noexcept {
    return {next_.data(), head_[i], count_[i]};
  }

  /// Links job j onto machine i and adds `cost` to its load. j must not be
  /// attached anywhere. `migrated` marks reassignments (counted in
  /// arrivals) as opposed to first placements.
  void attach(JobId j, MachineId i, Cost cost, bool migrated) noexcept {
    next_[j] = head_[i];
    prev_[j] = kNil;
    if (head_[i] != kNil) prev_[head_[i]] = j;
    head_[i] = j;
    ++count_[i];
    loads_[i] += cost;
    if (migrated) ++arrivals_[i];
  }

  /// Unlinks job j from machine i and subtracts `cost` from its load. O(1).
  void detach(JobId j, MachineId i, Cost cost) noexcept {
    if (prev_[j] != kNil) {
      next_[prev_[j]] = next_[j];
    } else {
      head_[i] = next_[j];
    }
    if (next_[j] != kNil) prev_[next_[j]] = prev_[j];
    next_[j] = kNil;
    prev_[j] = kNil;
    --count_[i];
    loads_[i] -= cost;
  }

 private:
  // Job-indexed link pool (size n), machine-indexed state (size m).
  std::vector<JobId> next_;
  std::vector<JobId> prev_;
  std::vector<JobId> head_;
  std::vector<std::size_t> count_;
  std::vector<Cost> loads_;
  std::vector<std::uint64_t> arrivals_;
  std::vector<std::uint8_t> live_;  // 1 = in the active machine set
};

}  // namespace dlb
