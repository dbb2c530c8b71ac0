// Solver workloads: sweep-dp, sweep-build and multimode (README.md).
//
// Closed loop, one caller. One op solves the workload's design list
// once, in order, on fresh clone()s of the trees generated at set-up.
// The untraced ops call the library's entry points (clk_wavemin /
// clk_wavemin_m) exactly as a user would. The traced ops replay the
// same flow through its public calls — ZoneMap, preprocess,
// enumerate_intersections, then build_slots, build_zone_mosp and
// dispatch_solve per (zone, sink-mask) memo miss — with a span around
// each call, and must land on the same model_peak bit for bit.

#include "workloads.hpp"

#include <algorithm>
#include <limits>
#include <map>
#include <memory>
#include <numeric>
#include <optional>
#include <sstream>
#include <thread>

#include "adb/allocation.hpp"
#include "cells/characterizer.hpp"
#include "core/evaluate.hpp"
#include "core/intervals.hpp"
#include "core/noise_model.hpp"
#include "core/sampling.hpp"
#include "core/solver_dispatch.hpp"
#include "core/wavemin.hpp"
#include "core/wavemin_m.hpp"
#include "timing/arrival.hpp"
#include "trace.hpp"
#include "tree/zone.hpp"

namespace perfbench {
namespace {

struct SolverSpec {
  std::vector<std::string> designs;  ///< op order
  bool multimode = false;
  double kappa = 20.0;
  int samples = 158;
  unsigned threads = 1;
};

SolverSpec solver_spec(const std::string& workload) {
  SolverSpec s;
  if (workload == "sweep-dp") {
    s.designs = {"s35932"};
  } else if (workload == "sweep-build") {
    s.designs = {"s38417", "s38584"};
    s.threads = std::clamp(std::thread::hardware_concurrency(), 1u, 4u);
  } else {
    s.designs = {"s38584", "ispd09f31"};
    s.multimode = true;
    s.kappa = 110.0;
    s.samples = 32;  // per mode: 4 modes x 32 = 128-dimensional arcs
  }
  return s;
}

struct Design {
  std::string name;
  wm::ClockTree tree;
  wm::ModeSet modes;
};

/// Everything built before the timed window. Trees hold Cell pointers
/// into `lib`, so a Setup is never moved (always behind unique_ptr).
struct Setup {
  wm::CellLibrary lib;
  std::optional<wm::Characterizer> chr;
  std::vector<Design> designs;
};

std::unique_ptr<Setup> set_up(const SolverSpec& spec, std::uint64_t seed,
                              Tracer* tr) {
  auto s = std::make_unique<Setup>();
  s->lib = wm::CellLibrary::nangate45_like();
  for (const std::string& name : spec.designs) {
    Design d;
    d.name = name;
    {
      const ScopedSpan span(tr, "cts.make_benchmark");
      d.tree = seeded_design(name, s->lib, seed);
    }
    if (spec.multimode) {
      d.modes = wm::make_mode_set(wm::spec_by_name(name));
    } else {
      d.modes = single_mode_set(d.tree);
    }
    s->designs.push_back(std::move(d));
  }
  wm::CharacterizerOptions co;
  if (spec.multimode) {
    std::vector<wm::Volt> vdds;
    for (const Design& d : s->designs) {
      for (const wm::Volt v : d.modes.distinct_vdds()) {
        if (std::find(vdds.begin(), vdds.end(), v) == vdds.end()) {
          vdds.push_back(v);
        }
      }
    }
    std::sort(vdds.begin(), vdds.end());
    co.vdds = vdds;
  }
  {
    const ScopedSpan span(tr, "cells.characterize");
    s->chr.emplace(s->lib, co);
  }
  return s;
}

wm::WaveMinOptions solve_options(const SolverSpec& spec,
                                 const RunOptions& run, unsigned threads) {
  wm::WaveMinOptions o;
  o.kappa = spec.kappa;
  o.samples = spec.samples;
  o.threads = threads;
  o.mosp_kernel = run.kernel;
  return o;
}

struct Solved {
  bool success = false;
  double model_peak = 0.0;
};

/// One design through the library entry point, mutating `tree`.
Solved solve(const Setup& s, const Design& d, const SolverSpec& spec,
             const wm::WaveMinOptions& opts, wm::ClockTree& tree) {
  if (spec.multimode) {
    const wm::WaveMinMResult r =
        wm::clk_wavemin_m(tree, s.lib, *s.chr, d.modes, opts);
    return {r.opt.success, r.opt.model_peak};
  }
  const wm::WaveMinResult r = wm::clk_wavemin(tree, s.lib, *s.chr, opts);
  return {r.success, r.model_peak};
}

struct Reference {
  double model_peak = 0.0;
  std::vector<NodeAssignment> assignment;
};

/// Empty when `tree` (just optimized) reproduces the reference and
/// meets kappa in every mode; else what went wrong.
std::string check_solved(const Design& d, const Reference& ref,
                         const Solved& got, const wm::ClockTree& tree,
                         double kappa) {
  if (!got.success) return d.name + ": no feasible intersection";
  if (got.model_peak != ref.model_peak) {
    return d.name + ": model_peak " + std::to_string(got.model_peak) +
           " != reference " + std::to_string(ref.model_peak);
  }
  if (assignment_of(tree) != ref.assignment) {
    return d.name + ": cell assignment differs from the reference";
  }
  const double skew = wm::worst_skew(tree, d.modes);
  if (!(skew <= kappa)) {
    return d.name + ": worst skew " + std::to_string(skew) +
           " ps exceeds kappa " + std::to_string(kappa);
  }
  return {};
}

// --- traced replay ---------------------------------------------------

/// Spans the replay records around the library's public calls; each is
/// one per-layer metric pair, "<name>_ms" and "<name>_share".
constexpr const char* kReplayLayers[] = {
    "core.preprocess", "core.intervals", "core.slots",
    "core.build",      "mosp.solve",     "adb.allocate"};

struct ZoneOutcome {
  double worst = 0.0;
  std::size_t labels = 0;
  bool beam_capped = false;
};

/// Counts one replayed op accumulates (per-layer metrics).
struct ReplayCounts {
  std::size_t intersections = 0;
  std::size_t graph_builds = 0;
  std::size_t memo_lookups = 0;
  std::size_t memo_hits = 0;
  std::size_t labels_created = 0;
  std::size_t labels_pruned_incumbent = 0;
  std::size_t labels_pruned_dominated = 0;
  std::size_t labels_merged_grid = 0;
  std::size_t winner_labels = 0;
  std::size_t beam_capped_zones = 0;
  std::uint64_t arena_peak_bytes = 0;
  double solve_ms_max = 0.0;
  long adb_inserted = 0;
};

/// run_wavemin's flow for one pass, through its public calls. Returns
/// the min over intersections of the max over zones (run_wavemin's
/// model_peak), or nullopt when no intersection is feasible.
std::optional<double> replay_pass(Tracer& tr, const Setup& s,
                                  const wm::ClockTree& tree,
                                  const wm::ModeSet& modes,
                                  const wm::WaveMinOptions& opts,
                                  ReplayCounts& c) {
  const std::vector<const wm::Cell*> assignable =
      s.lib.assignment_library();
  std::optional<wm::ZoneMap> zones;
  wm::Preprocessed pre;
  {
    const ScopedSpan span(&tr, "core.preprocess");
    zones.emplace(tree, opts.zone_tile);
    pre = wm::preprocess(tree, *zones, modes, assignable, *s.chr, s.lib);
  }
  std::vector<std::vector<std::size_t>> zone_sinks(zones->zones().size());
  for (std::size_t i = 0; i < pre.sinks.size(); ++i) {
    zone_sinks[static_cast<std::size_t>(pre.sinks[i].zone)].push_back(i);
  }
  std::vector<wm::Intersection> inters;
  {
    const ScopedSpan span(&tr, "core.intervals");
    inters = wm::enumerate_intersections(
        pre, opts.kappa - opts.skew_guard_band, opts.dof_beam);
  }
  c.intersections += inters.size();
  if (inters.empty()) return std::nullopt;

  // Memo key: zone index followed by the zone sinks' candidate masks —
  // the exact identity run_wavemin's hashed key stands for.
  auto key_of = [&](std::size_t z, const wm::Intersection& x) {
    std::vector<std::uint32_t> k{static_cast<std::uint32_t>(z)};
    for (const std::size_t i : zone_sinks[z]) k.push_back(x.masks[i]);
    return k;
  };
  std::map<std::vector<std::uint32_t>, ZoneOutcome> memo;
  double best = std::numeric_limits<double>::infinity();
  const wm::Intersection* best_x = nullptr;
  for (const wm::Intersection& x : inters) {
    double worst = 0.0;
    for (std::size_t z = 0; z < zone_sinks.size(); ++z) {
      if (zone_sinks[z].empty()) continue;
      ++c.memo_lookups;
      std::vector<std::uint32_t> key = key_of(z, x);
      auto it = memo.find(key);
      if (it != memo.end()) {
        ++c.memo_hits;
      } else {
        std::vector<wm::SampleSlot> slots;
        {
          const ScopedSpan span(&tr, "core.slots");
          slots = wm::build_slots(pre, zone_sinks[z], x, opts.samples,
                                  opts.period);
        }
        std::optional<wm::MospGraph> g;
        {
          const ScopedSpan span(&tr, "core.build");
          g.emplace(wm::build_zone_mosp(pre, zone_sinks[z],
                                        zones->zones()[z], x, *s.chr, modes,
                                        slots, opts));
        }
        wm::MospStats st;
        const std::int32_t id = tr.begin("mosp.solve");
        const wm::MospSolution sol = wm::dispatch_solve(*g, opts, &st);
        tr.end(id);
        const Span& sp = tr.spans()[static_cast<std::size_t>(id)];
        c.solve_ms_max = std::max(
            c.solve_ms_max, static_cast<double>(sp.end_ns - sp.start_ns) / 1e6);
        ++c.graph_builds;
        c.labels_created += st.labels_created;
        c.labels_pruned_incumbent += st.labels_pruned_incumbent;
        c.labels_pruned_dominated += st.labels_pruned_dominated;
        c.labels_merged_grid += st.labels_merged_grid;
        c.arena_peak_bytes = std::max(c.arena_peak_bytes, st.arena_peak_bytes);
        it = memo.emplace(std::move(key),
                          ZoneOutcome{sol.worst, st.labels_created,
                                      st.beam_capped})
                 .first;
      }
      worst = std::max(worst, it->second.worst);
    }
    if (best_x == nullptr || worst < best) {
      best = worst;
      best_x = &x;
    }
  }
  for (std::size_t z = 0; z < zone_sinks.size(); ++z) {
    if (zone_sinks[z].empty()) continue;
    const ZoneOutcome& o = memo.at(key_of(z, *best_x));
    c.winner_labels += o.labels;
    if (o.beam_capped) ++c.beam_capped_zones;
  }
  return best;
}

/// clk_wavemin / clk_wavemin_m through replay_pass; the allocate_adbs
/// call and every pass get their own span. Returns model_peak or
/// nullopt (infeasible).
std::optional<double> replay_design(Tracer& tr, const Setup& s,
                                    const Design& d, const SolverSpec& spec,
                                    const wm::WaveMinOptions& opts,
                                    ReplayCounts& c) {
  wm::ClockTree tree = d.tree.clone();
  auto pass = [&](const wm::WaveMinOptions& o) {
    const ScopedSpan span(&tr, "core.run_wavemin");
    return replay_pass(tr, s, tree, d.modes, o, c);
  };
  std::optional<double> peak = pass(opts);
  if (peak || !spec.multimode) return peak;
  {
    const ScopedSpan span(&tr, "adb.allocate");
    c.adb_inserted +=
        wm::allocate_adbs(tree, s.lib, d.modes, opts.kappa).adbs_inserted;
  }
  peak = pass(opts);
  if (!peak && opts.dof_beam != 0) {
    wm::WaveMinOptions wide = opts;
    wide.dof_beam = 0;
    peak = pass(wide);
  }
  return peak;
}

} // namespace

RunResult run_solver_workload(const RunOptions& run) {
  const SolverSpec spec = solver_spec(run.workload);
  RunResult out;
  Tracer tracer;
  Tracer* tr = run.trace ? &tracer : nullptr;
  ReferenceLoop reference;

  // Set-up: library, characterization and tree generation, repeated
  // so setup_s is a median (each at the reference loop's nominal
  // speed, timed just before it); the last repetition's objects are
  // used.
  constexpr int kSetups = 41;
  std::vector<double> setup_s;
  std::unique_ptr<Setup> s;
  for (int k = 0; k < kSetups; ++k) {
    tracer.set_op(-1 - k);
    const double scale = ReferenceLoop::scale(reference.run_ms());
    const auto t0 = Clock::now();
    s = set_up(spec, run.seed, tr);
    setup_s.push_back(ms_since(t0) / 1000.0 * scale);
  }
  out.metrics["setup_s"] = median(setup_s);

  // Reference (one untimed op through the entry point), then one more
  // untimed warm-up op that must already reproduce it.
  const wm::WaveMinOptions opts = solve_options(spec, run, spec.threads);
  std::vector<Reference> refs;
  double model_peak_sum = 0.0;
  for (const Design& d : s->designs) {
    wm::ClockTree tree = d.tree.clone();
    const Solved got = solve(*s, d, spec, opts, tree);
    refs.push_back({got.model_peak, assignment_of(tree)});
    model_peak_sum += got.model_peak;
    if (!got.success) out.notes.push_back("reference: " + d.name + " infeasible");
  }
  for (std::size_t i = 0; i < s->designs.size(); ++i) {
    wm::ClockTree tree = s->designs[i].tree.clone();
    const Solved got = solve(*s, s->designs[i], spec, opts, tree);
    const std::string why =
        check_solved(s->designs[i], refs[i], got, tree, spec.kappa);
    if (!why.empty()) out.notes.push_back("warm-up: " + why);
  }

  // The traced run interleaves untraced ops (serial, so the overhead
  // ratio isolates the replay and its spans) with traced replays.
  const wm::WaveMinOptions untraced_opts =
      run.trace ? solve_options(spec, run, 1) : opts;

  // Untraced runs time the reference loop before every design solve and
  // scale the solve's wall time to the loop's nominal speed (common.hpp);
  // an op's scaled time is the sum over its designs. `op_ms` keeps the
  // raw wall times.
  reference.run_ms();
  std::vector<double> op_ms, reference_ms, scaled_op_ms, design_ms,
      traced_op_ms;
  std::vector<std::int32_t> traced_ops;
  std::vector<ReplayCounts> traced_counts;
  std::vector<wm::ClockTree> last_trees;
  const double steal0 = steal_seconds();
  const auto window0 = Clock::now();
  while (ms_since(window0) < run.seconds * 1000.0) {
    const bool traced = run.trace && out.attempted % 2 == 1;
    const auto op = static_cast<std::int32_t>(out.attempted);
    ++out.attempted;
    std::string why;
    if (traced) {
      tracer.set_op(op);
      ReplayCounts c;
      const std::int32_t span = tracer.begin("op");
      for (std::size_t i = 0; i < s->designs.size() && why.empty(); ++i) {
        const ScopedSpan ds(&tracer, "design");
        const std::optional<double> peak =
            replay_design(tracer, *s, s->designs[i], spec, opts, c);
        if (!peak || *peak != refs[i].model_peak) {
          why = s->designs[i].name +
                ": traced replay's min-max differs from run_wavemin";
        }
      }
      tracer.end(span);
      const Span& sp = tracer.spans()[static_cast<std::size_t>(span)];
      traced_op_ms.push_back(static_cast<double>(sp.end_ns - sp.start_ns) /
                             1e6);
      traced_ops.push_back(op);
      traced_counts.push_back(c);
    } else {
      std::vector<wm::ClockTree> trees;
      for (const Design& d : s->designs) trees.push_back(d.tree.clone());
      std::vector<Solved> got(trees.size());
      std::vector<double> per(trees.size());
      std::vector<double> scaled(trees.size());
      for (std::size_t i = 0; i < trees.size(); ++i) {
        const double scale =
            run.trace ? 1.0
                      : ReferenceLoop::scale(
                            reference_ms.emplace_back(reference.run_ms()));
        const auto ti = Clock::now();
        got[i] = solve(*s, s->designs[i], spec, untraced_opts, trees[i]);
        per[i] = ms_since(ti);
        scaled[i] = per[i] * scale;
      }
      op_ms.push_back(std::accumulate(per.begin(), per.end(), 0.0));
      scaled_op_ms.push_back(std::accumulate(scaled.begin(), scaled.end(), 0.0));
      for (std::size_t i = 0; i < trees.size() && why.empty(); ++i) {
        why = check_solved(s->designs[i], refs[i], got[i], trees[i],
                           spec.kappa);
      }
      if (why.empty()) {
        design_ms.insert(design_ms.end(), scaled.begin(), scaled.end());
      }
      last_trees = std::move(trees);
    }
    if (!why.empty()) {
      ++out.failed;
      out.notes.push_back("op " + std::to_string(op) + ": " + why);
    }
  }
  const double window_s = ms_since(window0) / 1000.0;
  out.notes.push_back(steal_note(steal0, window_s));

  if (!run.trace) {
    out.metrics["solve_ms_p10"] = percentile(scaled_op_ms, kTimingPct);
    out.metrics["latency_p10_ms"] = percentile(design_ms, kTimingPct);
    out.notes.push_back(distribution_note("op wall time", op_ms));
    out.notes.push_back(distribution_note("reference loop", reference_ms));
    out.notes.push_back(distribution_note("op at nominal speed", scaled_op_ms));
    out.notes.push_back(distribution_note("design solve at nominal speed",
                                          design_ms));
    out.metrics["peak_rss_mb"] = self_peak_rss_mb() - reference.resident_mb();
    out.metrics["model_peak_ua"] = model_peak_sum;
    double sim = 0.0;
    for (std::size_t i = 0; i < last_trees.size(); ++i) {
      sim += wm::evaluate_design(last_trees[i], s->designs[i].modes)
                 .peak_current;
    }
    out.metrics["sim_peak_ua"] = sim;
    out.notes.push_back(std::to_string(op_ms.size()) + " ops, " +
                        std::to_string(design_ms.size()) +
                        " design solves in " + std::to_string(window_s) +
                        " s");
    return out;
  }

  // --- per-layer numbers from the traced ops -------------------------
  const SelfByOp by_op = tracer.self_ms_by_op();
  std::vector<std::int32_t> setup_ops;
  for (int k = 0; k < kSetups; ++k) setup_ops.push_back(-1 - k);
  for (const char* layer : {"cells.characterize", "cts.make_benchmark"}) {
    out.metrics[std::string(layer) + "_ms"] =
        median(self_ms_of(by_op, setup_ops, layer));
  }
  // Each layer's "<name>_ms" and "<name>_share" (of its traced op);
  // what no layer covers is the replay's own bookkeeping.
  std::vector<double> uncovered = traced_op_ms;
  for (const char* layer : kReplayLayers) {
    const std::vector<double> ms = self_ms_of(by_op, traced_ops, layer);
    std::vector<double> share;
    for (std::size_t k = 0; k < ms.size(); ++k) {
      share.push_back(ms[k] / traced_op_ms[k]);
      uncovered[k] -= ms[k];
    }
    out.metrics[std::string(layer) + "_ms"] = median(ms);
    out.metrics[std::string(layer) + "_share"] = median(share);
  }
  for (std::size_t k = 0; k < uncovered.size(); ++k) {
    uncovered[k] /= traced_op_ms[k];
  }
  out.metrics["harness.self_share"] = median(uncovered);

  // Counts repeat exactly op to op; report the first traced op's.
  if (!traced_counts.empty()) {
    const ReplayCounts& c = traced_counts.front();
    out.metrics["core.intersections"] = static_cast<double>(c.intersections);
    out.metrics["core.graph_builds"] = static_cast<double>(c.graph_builds);
    out.metrics["core.memo_hit_ratio"] =
        c.memo_lookups > 0 ? static_cast<double>(c.memo_hits) /
                                 static_cast<double>(c.memo_lookups)
                           : 0.0;
    out.metrics["mosp.labels_created"] = static_cast<double>(c.labels_created);
    out.metrics["mosp.labels_pruned_incumbent"] =
        static_cast<double>(c.labels_pruned_incumbent);
    out.metrics["mosp.labels_pruned_dominated"] =
        static_cast<double>(c.labels_pruned_dominated);
    out.metrics["mosp.labels_merged_grid"] =
        static_cast<double>(c.labels_merged_grid);
    out.metrics["mosp.beam_capped_zones"] =
        static_cast<double>(c.beam_capped_zones);
    out.metrics["mosp.arena_peak_mb"] =
        static_cast<double>(c.arena_peak_bytes) / (1024.0 * 1024.0);
    out.metrics["mosp.winner_label_ratio"] =
        c.labels_created > 0 ? static_cast<double>(c.winner_labels) /
                                   static_cast<double>(c.labels_created)
                             : 0.0;
    out.metrics["adb.inserted"] = static_cast<double>(c.adb_inserted);
  }
  std::vector<double> max_solve;
  for (const ReplayCounts& c : traced_counts) max_solve.push_back(c.solve_ms_max);
  out.metrics["mosp.solve_ms_max"] = median(max_solve);

  const double traced = median(traced_op_ms);
  const double untraced = median(op_ms);
  out.metrics["trace.op_ms_p50"] = traced;
  out.metrics["trace.untraced_op_ms_p50"] = untraced;
  out.metrics["trace.overhead_ratio"] = untraced > 0.0 ? traced / untraced : 0.0;

  std::ostringstream shares;
  shares << "layer self time / share of the traced op:";
  for (const std::string layer : kReplayLayers) {
    shares << ' ' << layer << ' ' << out.metrics[layer + "_ms"] << " ms ("
           << 100.0 * out.metrics[layer + "_share"] << "%)";
  }
  shares << " harness " << 100.0 * out.metrics["harness.self_share"] << '%';
  out.notes.push_back(shares.str());
  out.notes.push_back(std::to_string(traced_op_ms.size()) + " traced, " +
                      std::to_string(op_ms.size()) + " untraced ops");
  const std::string trace_path = run.work_dir + "/trace.json";
  tracer.write(trace_path, "");
  out.notes.push_back("spans written to " + trace_path);
  return out;
}

} // namespace perfbench
