#pragma once

// CLB2C specialised to a single pair of machines from different clusters:
// the cross-cluster exchange DLB2C performs (Algorithm 7 applies
// Algorithm 5 with M1 = {m}, M2 = {i}).

#include "pairwise/pair_kernel.hpp"

namespace dlb::pairwise {

class PairClb2cKernel final : public PairKernel {
 public:
  /// a and b must belong to different groups of a two-group instance.
  bool balance(Schedule& schedule, MachineId a, MachineId b) const override;
  [[nodiscard]] std::string_view name() const noexcept override {
    return "pair-clb2c";
  }
};

}  // namespace dlb::pairwise
