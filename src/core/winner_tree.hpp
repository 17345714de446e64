#pragma once

// WinnerTree: a tournament tree over a fixed row of slots that names the
// winning candidate of the whole row -- an index the caller resolves, not a
// value. Slot s holds one candidate (or kNone); every internal node holds
// the winner of its two children. The caller supplies the match rule as
// `beats(right, left)`: true when the candidate from the right (higher)
// subtree strictly beats the one from the left. Candidates must increase
// with their slot, so a tie keeps the left one and the root is the
// smallest-id candidate among the best -- exactly what a left-to-right
// scan with a strict comparison (std::max_element, a `<` min scan) picks.
//
// Two ways to keep it current:
//   * update(slot, candidate, beats) -- eager point refresh, O(log slots);
//   * mark(slot) + repair(leaf, beats) -- lazy. mark() flags the slot's
//     path with relaxed atomic bytes, reading each flag before writing it
//     and stopping at the first one already set, so concurrent markers
//     only write lines nobody has flagged yet. repair() then visits only
//     the flagged nodes, asks leaf(slot) for each flagged slot's
//     candidate, and replays their paths. Marks may race with each other;
//     repair() and every read must not race with anything.

#include <atomic>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

namespace dlb {

class WinnerTree {
 public:
  static constexpr std::uint32_t kNone = 0xFFFFFFFFu;

  /// Every slot starts empty and no path is flagged.
  explicit WinnerTree(std::size_t slots)
      : slots_(slots),
        base_(std::bit_ceil(slots == 0 ? std::size_t{1} : slots)),
        node_(2 * base_, kNone),
        dirty_(std::make_unique<std::atomic<std::uint8_t>[]>(2 * base_)) {}

  WinnerTree(const WinnerTree& other) { *this = other; }
  WinnerTree& operator=(const WinnerTree& other) {
    if (this == &other) return *this;
    slots_ = other.slots_;
    base_ = other.base_;
    node_ = other.node_;
    dirty_ = std::make_unique<std::atomic<std::uint8_t>[]>(node_.size());
    for (std::size_t k = 0; k < node_.size(); ++k) {
      dirty_[k].store(other.dirty_[k].load(std::memory_order_relaxed),
                      std::memory_order_relaxed);
    }
    return *this;
  }

  /// The winning candidate, or kNone when every slot is empty. Stale while
  /// any path is flagged: repair() first.
  [[nodiscard]] std::uint32_t winner() const noexcept { return node_[1]; }

  /// Sets one slot's candidate and replays its path to the root.
  template <class Beats>
  void update(std::size_t slot, std::uint32_t candidate, const Beats& beats) {
    std::size_t k = base_ + slot;
    node_[k] = candidate;
    for (k >>= 1; k != 0; k >>= 1) {
      node_[k] = play(node_[2 * k], node_[2 * k + 1], beats);
    }
  }

  /// Flags one slot's path for the next repair(). Safe to call from
  /// several threads at once.
  void mark(std::size_t slot) noexcept {
    for (std::size_t k = base_ + slot; k != 0; k >>= 1) {
      if (dirty_[k].load(std::memory_order_relaxed) != 0) return;
      dirty_[k].store(1, std::memory_order_relaxed);
    }
  }

  /// Flags every slot.
  void mark_all() noexcept {
    for (std::size_t k = 1; k < node_.size(); ++k) {
      dirty_[k].store(1, std::memory_order_relaxed);
    }
  }

  /// Refreshes every flagged slot from leaf(slot) and replays the flagged
  /// nodes; O(1) when nothing is flagged.
  template <class Leaf, class Beats>
  void repair(const Leaf& leaf, const Beats& beats) {
    repair_node(1, leaf, beats);
  }

 private:
  template <class Beats>
  static std::uint32_t play(std::uint32_t left, std::uint32_t right,
                            const Beats& beats) {
    if (right == kNone) return left;
    if (left == kNone) return right;
    return beats(right, left) ? right : left;
  }

  template <class Leaf, class Beats>
  void repair_node(std::size_t k, const Leaf& leaf, const Beats& beats) {
    if (dirty_[k].load(std::memory_order_relaxed) == 0) return;
    dirty_[k].store(0, std::memory_order_relaxed);
    if (k >= base_) {
      const std::size_t slot = k - base_;
      node_[k] = slot < slots_ ? leaf(slot) : kNone;
      return;
    }
    repair_node(2 * k, leaf, beats);
    repair_node(2 * k + 1, leaf, beats);
    node_[k] = play(node_[2 * k], node_[2 * k + 1], beats);
  }

  std::size_t slots_ = 0;
  /// First leaf's node index (a power of two); node 1 is the root.
  std::size_t base_ = 1;
  /// Winners in heap order; node_[0] is unused.
  std::vector<std::uint32_t> node_;
  /// One flag per node: its subtree holds a slot marked since the last
  /// repair.
  std::unique_ptr<std::atomic<std::uint8_t>[]> dirty_;
};

}  // namespace dlb
