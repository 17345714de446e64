#pragma once

// Host-speed probe. On a shared virtual machine the code the workloads run
// (branchy scans, random reads over a few MiB) slows by up to 2x while
// other tenants load the host, in phases that last from seconds to
// minutes. A run-level statistic cannot average such a phase away. The
// probe is a fixed piece of such code that does not touch libdlb; it runs
// right before and after every repetition, and the repetition's times are
// rescaled by how far the probe's time strayed from its nominal value.
// The rescaled times compare two commits measured at different moments;
// the raw wall times stay in the run's environment record.

#include <cstddef>

namespace perfbench {

/// The probe time that timings are rescaled to: a reported second is a
/// second of a host on which host_probe_s() takes this long.
inline constexpr double kProbeNominalS = 0.050;

/// Runs the probe's fixed work once on each of `threads` threads (at least
/// one) at the same time and returns the slowest thread's wall time in
/// seconds. A workload that runs on a pool is probed on as many threads,
/// because its epochs wait for the slowest worker, and a load on another
/// core slows them without slowing a probe on this one.
double host_probe_s(std::size_t threads);

/// Factor that rescales a time measured between two probes to the nominal
/// host speed.
[[nodiscard]] inline double host_scale(double probe_before_s,
                                       double probe_after_s) noexcept {
  return kProbeNominalS / (0.5 * (probe_before_s + probe_after_s));
}

}  // namespace perfbench
