#pragma once
// The four workloads (README.md). Each returns the run's metrics by
// name; main.cpp prints the ones BENCHMARK.json lists.

#include "common.hpp"

namespace perfbench {

/// sweep-dp, sweep-build and multimode.
RunResult run_solver_workload(const RunOptions& run);

/// serve-mix: an open loop against a pool-mode wavemin_served.
RunResult run_serve_workload(const RunOptions& run);

} // namespace perfbench
