// A dynamic cluster: jobs keep arriving on random machines and completing,
// while DLB2C repairs the waiting queues in the background (Section IV's
// deployment mode). Watch the response-time tail shrink once repair gets
// a budget, against a control whose budget is zero.
//
//   $ ./dynamic_cluster

#include <iostream>

#include "core/generators.hpp"
#include "dist/open_system/open_engine.hpp"
#include "pairwise/kernel_registry.hpp"
#include "stats/table.hpp"

int main() {
  using dlb::stats::TablePrinter;

  // 6+3 machines serving 1024 jobs that arrive near saturation.
  const dlb::Instance inst =
      dlb::gen::two_cluster_uniform(6, 3, 1024, 1.0, 100.0, 41);
  const dlb::dist::ArrivalPlan plan = dlb::dist::ArrivalPlan::poisson(0.15, 7);
  const dlb::dist::UniformPeerSelector selector;
  const dlb::dist::OpenSystemEngine engine(
      dlb::pairwise::kernel_registry().get("dlb2c"), selector);

  std::cout << "Churning cluster (6+3 machines, 1024 Poisson arrivals, "
               "random placement, repair every 25 time units)\n\n";
  TablePrinter table({"repair budget", "response p50", "response p99",
                      "migrations"});
  const std::size_t budgets[] = {0, 8, 32};
  for (const std::size_t budget : budgets) {
    dlb::dist::OpenSystemOptions options;
    options.arrivals = &plan;
    options.repair_every = 25.0;
    options.repair_budget = budget;
    dlb::Schedule schedule(inst);
    const dlb::dist::OpenRunReport report = engine.run(schedule, options, 42);
    table.add_row({std::to_string(budget),
                   TablePrinter::fixed(report.response_p50, 0),
                   TablePrinter::fixed(report.response_p99, 0),
                   std::to_string(report.migrations)});
  }
  table.print(std::cout);

  std::cout << "\nPeriodic pairwise repair absorbs the churn: fresh jobs "
               "land anywhere, and a small budget per burst moves waiting "
               "jobs off the long queues before they inflate the tail.\n";
  return 0;
}
