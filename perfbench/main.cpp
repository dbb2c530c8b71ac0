// perfbench — the WaveMin benchmark harness (README.md).
//
//   perfbench --workload <sweep-dp|sweep-build|multimode|serve-mix>
//             --seed <n> --seconds <s> --trace <0|1>
//             [--kernel auto|scalar] [--work-dir <dir>]
//             [--daemon <wavemin_served>] [--source <sha>]
//
// Run from the repository root: the metric names and units come from
// BENCHMARK.json. Prints provenance and notes, then as its last line
// one JSON object {"correct", "attempted", "failed", "metrics"}: the
// end-to-end metrics with --trace 0, the per-layer ones with --trace 1.
// Exit 0 after a completed run (check `correct`), 2 on a refused
// build or bad usage, 3 when the run is invalid and reports nothing.

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/options.hpp"
#include "mosp/vecops.hpp"
#include "util/error.hpp"
#include "util/json.hpp"
#include "util/log.hpp"
#include "workloads.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_CXX_FLAGS
#define PERFBENCH_CXX_FLAGS ""
#endif

using namespace perfbench;

namespace {

struct MetricDef {
  std::string name;
  std::string unit;
};

/// The metrics BENCHMARK.json lists under `section`, in its order.
std::vector<MetricDef> declared(const wm::json::Value& bench,
                                const char* section) {
  const wm::json::Value* list = bench.find(section);
  if (list == nullptr || !list->is_array()) {
    throw wm::Error(std::string("BENCHMARK.json has no ") + section);
  }
  std::vector<MetricDef> out;
  for (const wm::json::Value& m : list->array) {
    out.push_back({m.get_string("name", section), m.get_string("unit", section)});
  }
  return out;
}

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "<sweep-dp|sweep-build|multimode|serve-mix> --seed <n> "
               "--seconds <s> --trace <0|1> [--kernel auto|scalar] "
               "[--work-dir d] [--daemon path] [--source sha]\n",
               why.c_str());
  std::exit(2);
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

/// Refuse to time a build whose numbers would not describe a release
/// binary: verify hooks on by default (no NDEBUG) or sanitizers.
std::string build_refusal() {
  if (wm::kVerifyInvariantsDefault) {
    return "verify_invariants defaults on (built without NDEBUG)";
  }
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  return "sanitizer instrumentation compiled in";
#endif
  if (std::string(PERFBENCH_CXX_FLAGS).find("-fsanitize") !=
      std::string::npos) {
    return "built with -fsanitize";
  }
  return {};
}

std::string number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

} // namespace

int main(int argc, char** argv) {
  RunOptions run;
  std::string source = "unknown";
  bool have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) usage("missing value for " + a);
    const std::string v = argv[++i];
    if (a == "--workload") {
      run.workload = v;
    } else if (a == "--seed") {
      run.seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (a == "--seconds") {
      run.seconds = std::atof(v.c_str());
    } else if (a == "--trace") {
      run.trace = v == "1";
      have_trace = v == "0" || v == "1";
    } else if (a == "--kernel") {
      if (v == "scalar") {
        run.kernel = wm::mosp::Kernel::Scalar;
      } else if (v != "auto") {
        usage("--kernel wants auto or scalar");
      }
    } else if (a == "--work-dir") {
      run.work_dir = v;
    } else if (a == "--daemon") {
      run.daemon_path = v;
    } else if (a == "--source") {
      source = v;
    } else {
      usage("unknown option " + a);
    }
  }
  const bool solver = run.workload == "sweep-dp" ||
                      run.workload == "sweep-build" ||
                      run.workload == "multimode";
  if (!solver && run.workload != "serve-mix") usage("unknown workload");
  if (!(run.seconds > 0.0) || !have_trace) usage("bad --seconds or --trace");
  const std::string refusal = build_refusal();
  if (!refusal.empty()) {
    std::fprintf(stderr, "perfbench: refusing to time this build: %s\n",
                 refusal.c_str());
    return 2;
  }
  if (run.work_dir.empty()) run.work_dir = ".bench_work/" + run.workload;
  std::filesystem::create_directories(run.work_dir);
  wm::set_log_level(wm::LogLevel::Silent);

  const wm::mosp::VecOps& ops = wm::mosp::vec_ops(
      run.kernel == wm::mosp::Kernel::Scalar ? wm::mosp::Kernel::Scalar
                                             : wm::mosp::Kernel::Auto);
  std::printf(
      "{\"provenance\": {\"source\": %s, \"nproc\": %u, \"cpu\": %s, "
      "\"build_type\": %s, \"mosp_backend\": %s, \"simd_available\": %s, "
      "\"workload\": %s, \"seed\": %llu, \"seconds\": %s, \"trace\": %d}}\n",
      wm::json::quote(source).c_str(), std::thread::hardware_concurrency(),
      wm::json::quote(cpu_model()).c_str(),
      wm::json::quote(PERFBENCH_BUILD_TYPE).c_str(),
      wm::json::quote(ops.name).c_str(),
      wm::mosp::simd_available() ? "true" : "false",
      wm::json::quote(run.workload).c_str(),
      static_cast<unsigned long long>(run.seed), number(run.seconds).c_str(),
      run.trace ? 1 : 0);
  std::fflush(stdout);

  RunResult r;
  try {
    r = solver ? run_solver_workload(run) : run_serve_workload(run);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 3;
  }
  if (r.attempted > 0) {
    r.metrics["ok_frac"] = static_cast<double>(r.attempted - r.failed) /
                           static_cast<double>(r.attempted);
  }
  for (const std::string& n : r.notes) std::printf("# %s\n", n.c_str());
  if (!r.valid) {
    std::fprintf(stderr, "perfbench: run invalid, no result reported\n");
    return 3;
  }

  // BENCHMARK.json is the metric catalogue: every end-to-end metric it
  // lists must be measured; a per-layer metric this workload's layers
  // never reach reads 0 and is named in a note; anything measured but
  // not listed is a catalogue drift.
  std::string metrics;
  std::string not_reached;
  try {
    std::ifstream in("BENCHMARK.json");
    std::stringstream text;
    text << in.rdbuf();
    const wm::json::Value bench = wm::json::parse(text.str());
    const std::vector<MetricDef> e2e = declared(bench, "end_to_end");
    const std::vector<MetricDef> layer = declared(bench, "per_layer");
    for (const auto& [name, value] : r.metrics) {
      auto listed = [&](const MetricDef& m) { return m.name == name; };
      if (std::none_of(e2e.begin(), e2e.end(), listed) &&
          std::none_of(layer.begin(), layer.end(), listed)) {
        throw wm::Error("metric " + name + " is not in BENCHMARK.json");
      }
    }
    for (const MetricDef& m : run.trace ? layer : e2e) {
      const auto it = r.metrics.find(m.name);
      if (it == r.metrics.end() && !run.trace) {
        throw wm::Error("end-to-end metric not measured: " + m.name);
      }
      if (it == r.metrics.end()) not_reached += " " + m.name;
      metrics += (metrics.empty() ? "\"" : ", \"") + m.name +
                 "\": {\"value\": " +
                 number(it == r.metrics.end() ? 0.0 : it->second) +
                 ", \"unit\": \"" + m.unit + "\"}";
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 3;
  }
  if (!not_reached.empty()) {
    std::printf("# layers this workload does not reach (reported as 0):%s\n",
                not_reached.c_str());
  }
  const bool correct = r.attempted > 0 && r.failed == 0;
  std::printf(
      "{\"correct\": %s, \"attempted\": %ld, \"failed\": %ld, "
      "\"metrics\": {%s}}\n",
      correct ? "true" : "false", r.attempted, r.failed, metrics.c_str());
  return 0;
}
