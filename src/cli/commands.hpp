#pragma once

// The dlbsim command implementations, separated from the executable so they
// can be driven by unit tests. Every command writes human-readable output
// to `out`, diagnostics to `err`, and returns a process exit code.
//
// Commands:
//   gen      — generate an instance file
//   info     — describe an instance (shape, bounds)
//   solve    — run a centralized algorithm on an instance
//   balance  — run a decentralized balancer (trace optionally to CSV)
//   markov   — steady-state makespan pdf for (m, p_max)
//   help     — usage

#include <ostream>
#include <string>
#include <vector>

namespace dlb::cli {

/// Dispatches `args[0]` as the sub-command. Returns 0 on success, 1 on a
/// runtime failure (one `dlbsim:` line), 2 on a UsageError (plus the usage
/// page).
int run_command(const std::vector<std::string>& args, std::ostream& out,
                std::ostream& err);

/// Full usage text.
[[nodiscard]] std::string usage();

}  // namespace dlb::cli
