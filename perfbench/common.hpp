#pragma once
// Shared pieces of the benchmark harness: run options, the result
// record every workload fills, seeded design generation, assignment
// fingerprints and small statistics helpers.

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "cells/library.hpp"
#include "cts/benchmarks.hpp"
#include "mosp/vecops.hpp"
#include "timing/power_mode.hpp"
#include "tree/clock_tree.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

inline double ms_since(Clock::time_point a) {
  return ms_between(a, Clock::now());
}

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// MOSP label-kernel backend for every in-process solve (the
  /// sensitivity check pins Scalar; the benchmark proper uses Auto).
  wm::mosp::Kernel kernel = wm::mosp::Kernel::Auto;
  std::string work_dir;     ///< scratch space for this run (created)
  std::string daemon_path;  ///< wavemin_served binary (serve-mix)
};

/// What one run reports. `metrics` holds values by metric name; the
/// printer in main.cpp emits the names BENCHMARK.json lists.
struct RunResult {
  long attempted = 0;
  long failed = 0;
  bool valid = true;  ///< false = checks could not run (not a failure count)
  std::map<std::string, double> metrics;
  /// Human-readable lines printed before the result (failures, layer
  /// shares, the trace file path).
  std::vector<std::string> notes;
};

/// Linear-interpolated percentile (p in [0, 100]) of unsorted samples;
/// 0 for an empty set.
double percentile(std::vector<double> v, double p);

inline double median(const std::vector<double>& v) {
  return percentile(v, 50.0);
}

/// Percentile every end-to-end timing metric reports. The host slows
/// the VM's cores in episodes of several seconds (every op 30-70%
/// slower, with no steal to show for it); a low percentile over the
/// whole run reads the program's own cost as long as part of the run
/// fell outside such episodes, where a median or a tail reads how much
/// of the run fell inside them. README.md has the measurements.
inline constexpr double kTimingPct = 10.0;

/// The host's speed, read from a harness-owned reference loop: a
/// dependent walk through a random cycle over 16 MiB, so every step
/// waits on the shared last-level cache. Neighbours on the host slow
/// it in step with the solver (per-op correlation 0.89 on multimode;
/// dividing each solve by the loop time measured just before it cut
/// the spread of multimode's p10 op time over ten runs from 0.22 to
/// 0.09, README.md). No library code runs in it, so a change to the
/// program never moves it.
class ReferenceLoop {
 public:
  /// Time of one pass on a quiet host, ms: the unit the end-to-end
  /// timing metrics are scaled to.
  static constexpr double kNominalMs = 16.0;
  ReferenceLoop();  ///< builds the cycle (untimed, ~0.1 s)
  double run_ms();  ///< one timed pass
  /// kNominalMs / `loop_ms`: multiply a wall time measured at a speed
  /// where the loop took `loop_ms` to get it at the nominal speed.
  static double scale(double loop_ms) { return kNominalMs / loop_ms; }
  /// Memory the cycle keeps resident, MiB (peak_rss_mb leaves it out).
  double resident_mb() const {
    return static_cast<double>(next_.size() * sizeof(next_[0])) /
           (1024.0 * 1024.0);
  }

 private:
  std::vector<std::uint32_t> next_;
  std::uint32_t at_ = 0;
};

/// "<what> (ms, not bounded): p10 .., p50 .., p70 .., p90 .., n .."
/// — the distribution behind a timing metric, printed as a note.
std::string distribution_note(const std::string& what,
                              const std::vector<double>& ms);

/// The suite circuit `name`, placed in the orientation the seed picks:
/// one of the eight symmetries of the square die (mirror x, mirror y,
/// transpose). Every image has the same zone partition, wire lengths,
/// islands and loads, so it poses the identical optimization problem —
/// work and results do not depend on the seed — while the input the
/// program receives does.
wm::ClockTree seeded_design(const std::string& name, const wm::CellLibrary& lib,
                            std::uint64_t seed);

/// The single nominal mode over the tree's islands — the ModeSet
/// clk_wavemin optimizes against.
wm::ModeSet single_mode_set(const wm::ClockTree& tree);

/// Per-node cell name, adjustable-delay codes and XOR polarity: the
/// assignment an optimization run leaves on a tree.
struct NodeAssignment {
  std::string cell;
  std::vector<int> adj_codes;
  std::vector<std::uint8_t> xor_negative;
  bool operator==(const NodeAssignment&) const = default;
};
std::vector<NodeAssignment> assignment_of(const wm::ClockTree& tree);

/// Peak resident set of this process so far, in MiB.
double self_peak_rss_mb();

/// Host steal time so far (all CPUs, /proc/stat), in seconds: time the
/// hypervisor ran something else while this machine wanted its vCPUs.
/// Recorded around every timed window, since it inflates wall times.
double steal_seconds();

/// "# host steal during the window: ..." note for a window of
/// `window_s` seconds that began at steal_seconds() == `steal0`.
std::string steal_note(double steal0, double window_s);

} // namespace perfbench
