// The benchmark's workloads and the correctness gate each must pass before
// a metric is printed.
#ifndef VPM_PERFBENCH_WORKLOADS_HPP
#define VPM_PERFBENCH_WORKLOADS_HPP

#include <cstddef>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "pipeline.hpp"
#include "sim/scenario_config.hpp"
#include "sim/scenario_engine.hpp"

namespace perfbench {

/// A failed correctness check: the run fails and prints no metric.
class CheckFailed : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

struct Workload {
  const char* name;
  /// The ScenarioConfig line (seed and fault_seed come from --seed).
  /// Empty for scenario_grid, which runs run_scenario over fixed cells.
  const char* config;
  /// Store envelopes in a SegmentStorage (disk) instead of memory.
  bool disk_store;
  /// The reduced copy cross-checked against run_scenario: same config
  /// with these paths / packets per second / rounds.
  std::size_t check_paths;
  double check_pps;
  std::size_t check_rounds;
  /// Which layer should dominate self time, and the predicted shares.
  const char* predicted;
};

[[nodiscard]] const Workload* find_workload(const std::string& name);

/// Parses `w.config` with the run's seed.
[[nodiscard]] sim::ScenarioConfig workload_config(const Workload& w,
                                                  std::uint64_t seed);

/// Per-pass gate: nothing lost silently or delivered twice, no unknown
/// traffic, no stuck consumer; on a lossless wire nothing undelivered; on
/// honest clean inputs clean findings, receipt conservation and exact
/// loss; every hide_loss liar's link implicated with clean books.
void gate_pass(const Inputs& in, const PassResult& r);

/// Runs the reduced copy of a pipeline workload through both the
/// assembled pipeline and run_scenario and requires the same implicated
/// links, per-domain estimated loss, deduplicated gap count and findings.
struct CrossCheck {
  double run_scenario_s = 0;
  double pipeline_s = 0;
};
[[nodiscard]] CrossCheck cross_check(const Workload& w,
                                     sim::ScenarioConfig cfg,
                                     const std::filesystem::path& store_dir);

/// One scenario_grid cell: a name and its config, with its stated
/// expectation checked by check_grid_cell.
struct GridCell {
  std::string name;
  sim::ScenarioConfig cfg;
};
/// The four committed tests/scenarios files plus the plain end-to-end
/// line, each with the run's seed.  The plain cell is the last one.
[[nodiscard]] std::vector<GridCell> grid_cells(const std::string& scenario_dir,
                                               std::uint64_t seed);
void check_grid_cell(const GridCell& cell, const sim::ScenarioOutcome& out);

/// Deliberately wrong finding (the self-test's proof that the gate
/// bites): one phantom lost packet on path 0's first transit domain.
void inject_wrong_finding(sim::ScenarioOutcome& out);

}  // namespace perfbench

#endif  // VPM_PERFBENCH_WORKLOADS_HPP
