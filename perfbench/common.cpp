#include "common.hpp"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <fstream>
#include <sstream>
#include <thread>

namespace perfbench {

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = p / 100.0 * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (rank - static_cast<double>(lo));
}

ReferenceLoop::ReferenceLoop() : next_(std::size_t{1} << 22) {
  // One cycle through every slot in a seeded random order (Sattolo).
  for (std::uint32_t i = 0; i < next_.size(); ++i) next_[i] = i;
  std::uint64_t x = 0x9e3779b97f4a7c15ULL;
  for (std::size_t i = next_.size() - 1; i > 0; --i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    std::swap(next_[i], next_[x % i]);
  }
}

double ReferenceLoop::run_ms() {
  const auto t0 = Clock::now();
  std::uint32_t at = at_;
  for (int i = 0; i < 100000; ++i) at = next_[at];
  at_ = at;  // the next pass continues the walk, so the loop is not dead
  return ms_since(t0);
}

std::string distribution_note(const std::string& what,
                              const std::vector<double>& ms) {
  std::ostringstream os;
  os << what << " (ms, not bounded):";
  for (const double p : {10.0, 50.0, 70.0, 90.0}) {
    os << " p" << p << ' ' << percentile(ms, p);
  }
  os << ", n " << ms.size();
  return os.str();
}

wm::ClockTree seeded_design(const std::string& name,
                            const wm::CellLibrary& lib, std::uint64_t seed) {
  const wm::BenchmarkSpec& spec = wm::spec_by_name(name);
  wm::ClockTree tree = wm::make_benchmark(spec, lib);
  const unsigned symmetry = static_cast<unsigned>(seed % 8);
  const double die = spec.die;
  for (std::size_t i = 0; i < tree.size(); ++i) {
    wm::Point& p = tree.node(static_cast<wm::NodeId>(i)).pos;
    if ((symmetry & 4u) != 0) std::swap(p.x, p.y);
    if ((symmetry & 1u) != 0) p.x = die - p.x;
    if ((symmetry & 2u) != 0) p.y = die - p.y;
  }
  return tree;
}

wm::ModeSet single_mode_set(const wm::ClockTree& tree) {
  int max_island = 0;
  for (const wm::TreeNode& n : tree.nodes()) {
    max_island = std::max(max_island, n.island);
  }
  return wm::ModeSet::single(max_island + 1);
}

std::vector<NodeAssignment> assignment_of(const wm::ClockTree& tree) {
  std::vector<NodeAssignment> out;
  out.reserve(tree.size());
  for (const wm::TreeNode& n : tree.nodes()) {
    out.push_back({n.cell->name, n.adj_codes, n.xor_negative});
  }
  return out;
}

double self_peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}


double steal_seconds() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  double user = 0, nice = 0, sys = 0, idle = 0, iowait = 0, irq = 0,
         softirq = 0, steal = 0;
  in >> cpu >> user >> nice >> sys >> idle >> iowait >> irq >> softirq >> steal;
  if (!in || cpu != "cpu") return 0.0;
  return steal / static_cast<double>(sysconf(_SC_CLK_TCK));
}

std::string steal_note(double steal0, double window_s) {
  const double stolen = steal_seconds() - steal0;
  const double vcpu_s =
      window_s * std::max(1u, std::thread::hardware_concurrency());
  std::ostringstream os;
  os << "host steal during the window: " << stolen << " s, "
     << (vcpu_s > 0.0 ? 100.0 * stolen / vcpu_s : 0.0)
     << "% of vCPU time (wall times include it)";
  return os.str();
}

} // namespace perfbench
