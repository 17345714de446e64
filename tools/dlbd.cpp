// dlbd: the load-balancing daemon binary. One process per host of a real
// deployment; frames travel over TCP or Unix-domain sockets and the
// operator drives the daemon over a line-oriented command channel on
// stdin/stdout (see src/daemon/daemon.hpp for the command table and
// tools/dlb_cluster.py for the launcher that orchestrates a cluster).
//
//   dlbd --in instance.inst
//        --hosts unix:/tmp/a.sock=0-3,unix:/tmp/b.sock=4-7 --self 1
//        [--alg dlb2c] [--seed 1] [--rounds 10] [--retry-timeout 0.5]
//        [--connect-timeout 15] [--fault none|drop|delay|duplicate|
//        reorder|chaos --fault-p P --fault-seed S]
//        [--trace] [--metrics-json FILE] [--trace-json FILE]
//        [--flight-json FILE]
//
// --trace enables the in-memory trace ring (the `trace` command) without
// requiring a shutdown dump path; --trace-json implies it. The *-json
// flags dump metrics / trace / flight-recorder JSON on shutdown.
//
// The daemon prints "ready" on stdout once the mesh is connected and the
// protocol is running, then serves commands until `shutdown` or stdin
// EOF. Logs go to stderr.

#include <csignal>

#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "cli/args.hpp"
#include "core/instance_io.hpp"
#include "core/instance_store.hpp"
#include "daemon/daemon.hpp"
#include "net/fault.hpp"
#include "pairwise/kernel_registry.hpp"

namespace {

int run(const std::vector<std::string>& argv) {
  using dlb::cli::Args;
  const Args args = Args::parse(argv);
  const std::string in_path = args.require("in");
  const std::string manifest = args.require("hosts");
  const auto self = static_cast<std::size_t>(args.get_int("self", 0));
  const std::string alg = args.get("alg", "dlb2c");
  const std::uint64_t seed = args.get_seed("seed", 1);
  const auto rounds = static_cast<std::size_t>(args.get_int("rounds", 10));
  const double retry = args.get_double("retry-timeout", 0.5);
  const double connect_timeout = args.get_double("connect-timeout", 15.0);
  const std::string fault_kind = args.get("fault", "none");
  const double fault_p = args.get_double("fault-p", 0.1);
  const std::uint64_t fault_seed = args.get_seed("fault-seed", seed + 1);
  const std::string metrics_path = args.get("metrics-json", "");
  const std::string trace_path = args.get("trace-json", "");
  const std::string flight_path = args.get("flight-json", "");
  const bool trace_on = args.has("trace") || !trace_path.empty();
  for (const auto& key : args.unused()) {
    std::cerr << "dlbd: unknown option --" << key << "\n";
    return 2;
  }

  const dlb::pairwise::KernelRegistry& registry =
      dlb::pairwise::kernel_registry();
  if (!registry.contains(alg)) {
    std::cerr << "dlbd: unknown --alg '" << alg << "' ("
              << registry.names_joined() << ")\n";
    return 2;
  }

  const dlb::core::InstanceStore store = dlb::core::load_instance(in_path);
  const dlb::Instance& instance = store.instance();

  dlb::daemon::DaemonOptions options;
  options.hosts = dlb::daemon::parse_host_manifest(manifest);
  options.self = self;
  options.kernel = &registry.get(alg);
  options.seed = seed;
  options.rounds = rounds;
  options.retry_timeout = retry;
  options.connect_timeout = connect_timeout;
  options.fault =
      dlb::net::fault_plan_by_name(fault_kind, fault_p, fault_seed);
  options.trace = trace_on;

  dlb::daemon::Daemon daemon(instance, options);
  std::cerr << "dlbd[" << self << "] listening on "
            << daemon.transport().listen_address() << ", machines "
            << options.hosts[self].machine_lo << "-"
            << options.hosts[self].machine_hi - 1 << "\n"
            << std::flush;
  daemon.connect_and_start();
  std::cout << "ready\n" << std::flush;
  std::cerr << "dlbd[" << self << "] mesh connected, protocol started\n"
            << std::flush;

  daemon.serve(0, std::cout, std::cerr);

  if (!metrics_path.empty()) {
    std::ofstream file(metrics_path);
    file << daemon.metrics().snapshot().dump(2) << "\n";
  }
  if (!trace_path.empty()) {
    std::ofstream file(trace_path);
    file << daemon.tracer().to_chrome_json().dump(2) << "\n";
  }
  if (!flight_path.empty()) {
    std::ofstream file(flight_path);
    file << daemon.flight().to_json().dump(2) << "\n";
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  // A peer (or the launcher) vanishing mid-write must surface as an I/O
  // error, not a process kill.
  std::signal(SIGPIPE, SIG_IGN);
  try {
    return run(std::vector<std::string>(argv + 1, argv + argc));
  } catch (const std::exception& e) {
    std::cerr << "dlbd: " << e.what() << "\n";
    return 1;
  }
}
