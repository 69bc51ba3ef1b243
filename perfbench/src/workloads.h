// The three workloads. Each one generates its inputs from the run seed
// (timed as part of set-up), then runs its timed phase(s) and its
// correctness gate, appending metrics and checks to the report.

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <memory>
#include <string>

#include "common.h"

namespace perfbench {

class Workload {
 public:
  virtual ~Workload() = default;

  /// Generates the workload's queries (and other inputs) for `scenario`.
  virtual void Generate(const sim::Scenario& scenario, uint64_t seed) = 0;

  /// Runs for `options.seconds`: one untraced phase, or with
  /// `options.trace` an untraced and a traced phase of half the time each.
  /// Adds every metric except set-up time and peak memory, and reports the
  /// metrics it does not exercise as not applicable, so every workload
  /// prints the same rows.
  virtual void Run(const Options& options, const sim::Scenario& scenario,
                   Report* report) = 0;
};

std::unique_ptr<Workload> MakeReplay();
std::unique_ptr<Workload> MakeSessions();
std::unique_ptr<Workload> MakeChurn();

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
