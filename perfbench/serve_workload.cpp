// serve-mix: an open loop against wavemin_served in pool mode.
//
// Set-up compiles the cell library into a blob, writes the job trees
// and boots the daemon (--pool-workers 3 --blob <blob>, every other
// option at its default, the journal's fsync policy included) until
// every pool worker has restored the blob. One client process drives
// it over a single connection: jobs fall due on a seeded schedule at a
// fixed rate, each submitted with "wait": true and followed on the same
// write by a status request, whose reply is the admission ack; the
// held submit reply is the terminal frame. Latency runs from a job's
// due time to that frame, so a stalled generator or daemon shows.

#include "workloads.hpp"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <deque>
#include <filesystem>
#include <fstream>
#include <memory>
#include <optional>
#include <sstream>
#include <thread>
#include <unordered_map>

#include "cells/characterizer.hpp"
#include "core/evaluate.hpp"
#include "core/wavemin.hpp"
#include "io/blob.hpp"
#include "io/tree_io.hpp"
#include "serve/protocol.hpp"
#include "timing/arrival.hpp"
#include "trace.hpp"
#include "util/error.hpp"
#include "util/json.hpp"
#include "util/posix_io.hpp"
#include "util/rng.hpp"

namespace perfbench {
namespace {

namespace fs = std::filesystem;

constexpr int kPoolWorkers = 3;
constexpr int kBoots = 5;               // set-up repetitions (setup_s median)
constexpr double kJobsPerSecond = 5.0;  // offered load, well below capacity
constexpr double kLatencyLimitMs = 2000.0;  // goodput limit (a note)
constexpr double kStatsEveryMs = 1000.0;
/// Idle time before the next due job that lets the reference loop run,
/// and the least time between two of its passes.
constexpr double kReferenceGapMs = 3.0 * ReferenceLoop::kNominalMs;
constexpr double kReferenceEveryMs = 200.0;

struct JobClass {
  const char* design;
  double share;
};
constexpr JobClass kMix[] = {
    {"s15850", 0.60}, {"ispd09f31", 0.25}, {"s35932", 0.15}};
constexpr std::size_t kClasses = std::size(kMix);
/// The class whose service is almost all solving (sweep-dp's design):
/// solve_ms_p10 reads its ack->terminal time, where a solver change
/// shows as it does on sweep-dp. The small class's service is mostly
/// protocol and process wake-ups.
constexpr std::size_t kSolverClass = 2;

// --- daemon process ----------------------------------------------------

/// Owns one wavemin_served process: SIGTERM (drain) on stop, SIGKILL if
/// it has not exited within the grace period, always reaped.
class Daemon {
 public:
  Daemon(const std::string& binary, const std::vector<std::string>& args,
         const std::string& log_path) {
    pid_ = ::fork();
    if (pid_ < 0) throw wm::Error("fork failed");
    if (pid_ == 0) {
      const int log = ::open(log_path.c_str(),
                             O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
      if (log >= 0) {
        ::dup2(log, 1);
        ::dup2(log, 2);
      }
      std::vector<char*> argv{const_cast<char*>(binary.c_str())};
      for (const std::string& a : args) argv.push_back(const_cast<char*>(a.c_str()));
      argv.push_back(nullptr);
      ::execv(binary.c_str(), argv.data());
      _exit(127);
    }
  }
  ~Daemon() { stop(); }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  pid_t pid() const { return pid_; }

  void stop() {
    if (pid_ <= 0) return;
    ::kill(pid_, SIGTERM);
    int status = 0;
    for (int i = 0; i < 1000; ++i) {  // 10 s drain grace
      if (::waitpid(pid_, &status, WNOHANG) == pid_) {
        pid_ = -1;
        return;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    ::kill(pid_, SIGKILL);
    ::waitpid(pid_, &status, 0);
    pid_ = -1;
  }

 private:
  pid_t pid_ = -1;
};

/// Children of `parent` (by /proc ppid).
std::vector<pid_t> children_of(pid_t parent) {
  std::vector<pid_t> out;
  for (const auto& e : fs::directory_iterator("/proc")) {
    const std::string name = e.path().filename().string();
    if (name.empty() || name.find_first_not_of("0123456789") != std::string::npos) {
      continue;
    }
    std::ifstream in(e.path() / "stat");
    std::string stat;
    std::getline(in, stat);
    const std::size_t close = stat.rfind(')');
    if (close == std::string::npos) continue;
    char state = 0;
    long ppid = 0;
    if (std::sscanf(stat.c_str() + close + 1, " %c %ld", &state, &ppid) == 2 &&
        ppid == parent) {
      out.push_back(static_cast<pid_t>(std::stol(name)));
    }
  }
  return out;
}

/// Peak resident set (VmHWM) of a process in MiB, 0 if unreadable.
double peak_rss_mb(pid_t pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::atof(line.c_str() + 6) / 1024.0;  // kB
    }
  }
  return 0.0;
}

/// Kill and reap whatever is still parented to this process (pool
/// workers orphaned by a daemon that died uncleanly land here, since
/// the harness registers as their subreaper).
void reap_leftovers() {
  for (const pid_t p : children_of(::getpid())) {
    ::kill(p, SIGKILL);
    int status = 0;
    ::waitpid(p, &status, 0);
  }
}

// --- client connection -------------------------------------------------

class Conn {
 public:
  explicit Conn(const std::string& path) {
    fd_ = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (fd_ < 0 || path.size() >= sizeof addr.sun_path) {
      close_fd();
      throw wm::Error("cannot open a socket for " + path);
    }
    std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
      close_fd();
      throw wm::Error("cannot connect to " + path);
    }
  }
  ~Conn() { close_fd(); }
  Conn(const Conn&) = delete;
  Conn& operator=(const Conn&) = delete;

  void send(const std::string& frames) {
    if (!wm::write_all(fd_, frames.data(), frames.size())) {
      throw wm::Error("daemon connection lost on write");
    }
  }

  /// Complete lines that arrive within `timeout_ms` (possibly none).
  std::vector<std::string> read_lines(double timeout_ms) {
    std::vector<std::string> lines;
    take_lines(&lines);
    if (!lines.empty()) return lines;
    pollfd p{fd_, POLLIN, 0};
    const double t = std::max(0.0, timeout_ms);
    timespec ts{static_cast<time_t>(t / 1000.0),
                static_cast<long>(std::fmod(t, 1000.0) * 1e6)};
    const int rc = ::ppoll(&p, 1, &ts, nullptr);
    if (rc < 0 && errno != EINTR) throw wm::Error("poll failed");
    if (rc > 0) {
      char buf[1 << 15];
      const ssize_t n = wm::retry_read(fd_, buf, sizeof buf);
      if (n <= 0) throw wm::Error("daemon closed the connection");
      buf_.append(buf, static_cast<std::size_t>(n));
      take_lines(&lines);
    }
    return lines;
  }

  /// One request, its one reply (nothing else may be in flight).
  wm::json::Value roundtrip(const std::string& frame) {
    send(frame + "\n");
    const auto t0 = Clock::now();
    while (ms_since(t0) < 30000.0) {
      const std::vector<std::string> lines = read_lines(1000.0);
      if (!lines.empty()) return wm::json::parse(lines.front());
    }
    throw wm::Error("daemon did not answer " + frame);
  }

 private:
  void take_lines(std::vector<std::string>* out) {
    std::size_t start = 0;
    for (std::size_t nl; (nl = buf_.find('\n', start)) != std::string::npos;
         start = nl + 1) {
      out->push_back(buf_.substr(start, nl - start));
    }
    buf_.erase(0, start);
  }
  void close_fd() {
    if (fd_ >= 0) ::close(fd_);
    fd_ = -1;
  }

  int fd_ = -1;
  std::string buf_;
};

double counter(const wm::json::Value& stats, const char* name) {
  const wm::json::Value* c = stats.find("counters");
  return c == nullptr ? 0.0 : c->get_number_or(name, 0.0);
}

// --- set-up --------------------------------------------------------------

struct Served {
  std::unique_ptr<wm::CellLibrary> lib;  // trees below point into it
  std::vector<std::string> tree_paths;   // per class
  std::unique_ptr<Daemon> daemon;
  std::unique_ptr<Conn> conn;
  std::string spool;
};

Served boot(const RunOptions& run, int k, Tracer& tr) {
  Served s;
  s.lib = std::make_unique<wm::CellLibrary>(wm::CellLibrary::nangate45_like());
  std::optional<wm::Characterizer> chr;
  {
    const ScopedSpan span(&tr, "cells.characterize");
    chr.emplace(*s.lib);
  }
  for (const JobClass& c : kMix) {
    const ScopedSpan span(&tr, "cts.make_benchmark");
    const std::string path = run.work_dir + "/" + c.design + ".ctree";
    wm::save_tree(path, seeded_design(c.design, *s.lib, run.seed));
    s.tree_paths.push_back(path);
  }
  const std::string blob = run.work_dir + "/lib.wmblob";
  {
    const ScopedSpan span(&tr, "io.blob_compile");
    wm::blob::write_blob(blob, *s.lib, *chr);
  }
  const ScopedSpan span(&tr, "serve.boot");
  s.spool = run.work_dir + "/spool" + std::to_string(k);
  fs::remove_all(s.spool);
  fs::create_directories(s.spool);
  const std::string sock = run.work_dir + "/d" + std::to_string(k) + ".sock";
  fs::remove(sock);
  s.daemon = std::make_unique<Daemon>(
      run.daemon_path,
      std::vector<std::string>{"--socket", sock, "--spool", s.spool,
                               "--pool-workers", std::to_string(kPoolWorkers),
                               "--blob", blob},
      run.work_dir + "/daemon" + std::to_string(k) + ".log");
  const auto t0 = Clock::now();
  while (!s.conn) {
    try {
      s.conn = std::make_unique<Conn>(sock);
    } catch (const wm::Error&) {
      if (ms_since(t0) > 30000.0) throw;
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  }
  // Ready = every pool worker has mapped the blob, not merely the
  // socket answering.
  while (counter(s.conn->roundtrip(wm::serve::dump_simple("stats")),
                 "serve.pool_blob_restored") < kPoolWorkers) {
    if (ms_since(t0) > 30000.0) {
      throw wm::Error("pool workers did not restore the blob");
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  return s;
}

// --- the open loop ------------------------------------------------------

struct Job {
  std::size_t cls = 0;
  std::string id;
  std::string tree;  ///< input tree path
  Clock::time_point due, sent, ack, done;
  bool acked = false;
  bool terminal = false;
  std::string state;  ///< terminal state, or the submit's error code
  std::string out;    ///< result tree path
};

struct Snapshot {
  double t_ms = 0.0;  ///< since the schedule started
  double queue_depth = 0.0;  ///< daemon: admitted, not yet dispatched
  double outstanding = 0.0;  ///< client: submitted, not yet terminal
};

bool is_terminal_state(const std::string& s) {
  return s == "done" || s == "degraded" || s == "infeasible" ||
         s == "failed" || s == "quarantined" || s == "drained";
}

/// Submit every job at its due time and collect terminal frames until
/// all are terminal. Stats snapshots go out every kStatsEveryMs while
/// jobs are still falling due. With `reference`, the reference loop
/// runs (times into `reference_ms`) at most every kReferenceEveryMs,
/// when nothing is in flight and the next job is not due for
/// kReferenceGapMs, so it never holds up a reply or a submit.
void drive(Conn& conn, std::vector<Job>& jobs, std::vector<Snapshot>* snaps,
           ReferenceLoop* reference = nullptr,
           std::vector<double>* reference_ms = nullptr) {
  enum class Expect { Ack, Stats };
  std::deque<std::pair<Expect, std::size_t>> pending;
  std::unordered_map<std::string, std::size_t> by_id;
  for (std::size_t i = 0; i < jobs.size(); ++i) by_id[jobs[i].id] = i;
  const auto start = Clock::now();
  const auto hard_end = (jobs.empty() ? start : jobs.back().due) +
                        std::chrono::seconds(120);
  auto next_stats = start + std::chrono::milliseconds(
                                static_cast<long>(kStatsEveryMs));
  std::size_t next = 0;
  std::size_t open = jobs.size();
  auto next_reference = start;

  auto handle = [&](const std::string& line, Clock::time_point now) {
    const wm::json::Value v = wm::json::parse(line);
    if (v.find("counters") != nullptr) {
      if (pending.empty() || pending.front().first != Expect::Stats) {
        throw wm::Error("unexpected stats frame");
      }
      pending.pop_front();
      if (snaps != nullptr) {
        const auto outstanding = std::count_if(
            jobs.begin(), jobs.begin() + static_cast<std::ptrdiff_t>(next),
            [](const Job& j) { return !j.terminal; });
        snaps->push_back({ms_between(start, now),
                          v.get_number_or("queue_depth", 0.0),
                          static_cast<double>(outstanding)});
      }
      return;
    }
    if (!v.get_bool_or("ok", false)) {
      if (pending.empty() || pending.front().first != Expect::Ack) {
        throw wm::Error("unexpected error frame: " + line);
      }
      Job& j = jobs[pending.front().second];
      if (v.get_string_or("error", "") == "not-found") {
        // The status reply that follows a refused submit.
        pending.pop_front();
        j.acked = true;
        j.ack = now;
      }
      if (!j.terminal) {  // the submit itself was refused (shed etc.)
        j.terminal = true;
        j.done = now;
        j.state = "refused:" + v.get_string_or("error", "?");
        --open;
      }
      return;
    }
    const wm::json::Value* jv = v.find("job");
    if (jv == nullptr) throw wm::Error("unexpected frame: " + line);
    const auto it = by_id.find(jv->get_string_or("id", ""));
    if (it == by_id.end()) return;
    Job& j = jobs[it->second];
    const std::string state = jv->get_string_or("state", "");
    const bool is_ack = !pending.empty() &&
                        pending.front().first == Expect::Ack &&
                        pending.front().second == it->second && !j.acked;
    if (is_ack) {
      pending.pop_front();
      j.acked = true;
      j.ack = now;
    }
    if (is_terminal_state(state) && !j.terminal) {
      j.terminal = true;
      j.done = now;
      j.state = state;
      j.out = jv->get_string_or("out", "");
      --open;
    }
  };

  while (next < jobs.size() || open > 0 || !pending.empty()) {
    auto now = Clock::now();
    if (now > hard_end) {
      for (Job& j : jobs) {
        if (!j.terminal) j.state = "no terminal state within 120 s";
      }
      return;
    }
    while (next < jobs.size() && jobs[next].due <= now) {
      Job& j = jobs[next];
      wm::serve::JobSpec spec;
      spec.id = j.id;
      spec.tree = j.tree;
      conn.send(wm::serve::dump_submit(spec, /*wait=*/true) + "\n" +
                wm::serve::dump_status(j.id) + "\n");
      j.sent = Clock::now();
      pending.emplace_back(Expect::Ack, next);
      ++next;
      now = Clock::now();
    }
    if (snaps != nullptr && next < jobs.size() && now >= next_stats) {
      conn.send(wm::serve::dump_simple("stats") + "\n");
      pending.emplace_back(Expect::Stats, 0);
      next_stats += std::chrono::milliseconds(static_cast<long>(kStatsEveryMs));
    }
    if (reference != nullptr && now >= next_reference && pending.empty() &&
        open == jobs.size() - next && next < jobs.size() &&
        ms_between(now, jobs[next].due) >= kReferenceGapMs) {
      reference_ms->push_back(reference->run_ms());
      next_reference = now + std::chrono::milliseconds(
                                 static_cast<long>(kReferenceEveryMs));
      continue;
    }
    Clock::time_point wake = hard_end;
    if (next < jobs.size()) {
      wake = std::min(wake, jobs[next].due);
      if (snaps != nullptr) wake = std::min(wake, next_stats);
    }
    for (const std::string& line : conn.read_lines(ms_between(Clock::now(), wake))) {
      handle(line, Clock::now());
    }
  }
}

/// `n` jobs over `seconds`: exact class counts from the mix, in a
/// seeded order, each due at a seeded point of its own 1/rate slot.
std::vector<Job> schedule(std::uint64_t seed, double seconds,
                          Clock::time_point t0) {
  const auto n = static_cast<std::size_t>(kJobsPerSecond * seconds + 0.5);
  std::vector<std::size_t> classes;
  for (std::size_t c = 0; c < kClasses; ++c) {
    const std::size_t count =
        c + 1 == kClasses
            ? n - classes.size()
            : static_cast<std::size_t>(kMix[c].share * static_cast<double>(n) + 0.5);
    classes.insert(classes.end(), count, c);
  }
  wm::Rng rng(seed * 0x9e3779b97f4a7c15ULL + 0x5e57e);
  for (std::size_t i = classes.size(); i > 1; --i) {
    std::swap(classes[i - 1],
              classes[static_cast<std::size_t>(rng.uniform_int(
                  0, static_cast<std::int64_t>(i) - 1))]);
  }
  std::vector<Job> jobs(n);
  const double slot_ms = 1000.0 / kJobsPerSecond;
  for (std::size_t k = 0; k < n; ++k) {
    jobs[k].cls = classes[k];
    jobs[k].id = "s" + std::to_string(seed) + "-" + std::to_string(k);
    jobs[k].due = t0 + std::chrono::microseconds(static_cast<long>(
                           1000.0 * slot_ms *
                           (static_cast<double>(k) + rng.uniform(0.0, 1.0))));
  }
  return jobs;
}

/// Stops the daemon and reaps every process the run started, on every
/// exit path.
class StopOnExit {
 public:
  explicit StopOnExit(Served* s) : s_(s) {}
  ~StopOnExit() {
    s_->conn.reset();
    if (s_->daemon) s_->daemon->stop();
    reap_leftovers();
  }
  StopOnExit(const StopOnExit&) = delete;
  StopOnExit& operator=(const StopOnExit&) = delete;

 private:
  Served* s_;
};

std::uint64_t file_size(const std::string& path) {
  std::error_code ec;
  const auto n = fs::file_size(path, ec);
  return ec ? 0 : n;
}

} // namespace

RunResult run_serve_workload(const RunOptions& run) {
  if (run.daemon_path.empty()) throw wm::Error("serve-mix needs --daemon");
  // Pool workers orphaned by a crashed daemon are reparented here, so
  // nothing this run started can outlive it.
  ::prctl(PR_SET_CHILD_SUBREAPER, 1);
  // A daemon that dies mid-write must surface as an error (and the
  // cleanup below), not kill the harness.
  ::signal(SIGPIPE, SIG_IGN);
  RunResult out;
  Tracer tracer;
  ReferenceLoop reference;

  // Set-up, kBoots times, each at the reference loop's nominal speed
  // (timed just before it); the last daemon stays up for the run.
  std::vector<double> setup_s;
  Served s;
  const StopOnExit stop{&s};
  for (int k = 0; k < kBoots; ++k) {
    tracer.set_op(-1 - k);
    if (s.daemon) s.daemon->stop();
    s = Served{};
    reap_leftovers();
    const double scale = ReferenceLoop::scale(reference.run_ms());
    const auto t0 = Clock::now();
    s = boot(run, k, tracer);
    setup_s.push_back(ms_since(t0) / 1000.0 * scale);
  }
  out.metrics["setup_s"] = median(setup_s);

  {
    // In-process references from the very bytes the daemon reads.
    std::vector<std::vector<NodeAssignment>> ref_assign;
    std::vector<double> inproc_ms(kClasses, 0.0);
    double model_peak_sum = 0.0;
    {
      const wm::Characterizer chr(*s.lib);
      for (std::size_t c = 0; c < kClasses; ++c) {
        std::vector<double> times;
        for (int r = 0; r < (run.trace ? 3 : 1); ++r) {
          wm::ClockTree tree = wm::load_tree(s.tree_paths[c], *s.lib);
          wm::WaveMinOptions o;
          o.mosp_kernel = run.kernel;
          const auto t0 = Clock::now();
          const wm::WaveMinResult res = wm::clk_wavemin(tree, *s.lib, chr, o);
          times.push_back(ms_since(t0));
          if (r == 0) {
            ref_assign.push_back(assignment_of(tree));
            model_peak_sum += res.model_peak;
          }
        }
        inproc_ms[c] = median(times);
      }
    }

    // Warm-up: one job per class, untimed, before the schedule.
    std::vector<Job> warm(kClasses);
    for (std::size_t c = 0; c < kClasses; ++c) {
      warm[c].cls = c;
      warm[c].id = "warm" + std::to_string(c);
      warm[c].tree = s.tree_paths[c];
      warm[c].due = Clock::now();
    }
    drive(*s.conn, warm, nullptr);
    const wm::json::Value before =
        s.conn->roundtrip(wm::serve::dump_simple("stats"));
    const std::uint64_t journal0 = file_size(s.spool + "/jobs.wmj");

    const auto t0 = Clock::now() + std::chrono::milliseconds(20);
    std::vector<Job> jobs = schedule(run.seed, run.seconds, t0);
    for (Job& j : jobs) j.tree = s.tree_paths[j.cls];
    std::vector<Snapshot> snaps;
    std::vector<double> reference_ms;
    const double steal0 = steal_seconds();
    drive(*s.conn, jobs, &snaps, run.trace ? nullptr : &reference,
          &reference_ms);
    if (!run.trace && reference_ms.empty()) {
      throw wm::Error("the schedule left no gap for the reference loop");
    }
    out.notes.push_back(steal_note(steal0, ms_since(t0) / 1000.0));

    const wm::json::Value after =
        s.conn->roundtrip(wm::serve::dump_simple("stats"));
    const std::uint64_t journal1 = file_size(s.spool + "/jobs.wmj");
    double rss = 0.0;
    for (const pid_t p : children_of(s.daemon->pid())) {
      rss = std::max(rss, peak_rss_mb(p));
    }
    out.metrics["peak_rss_mb"] = rss;

    // --- output checks ---------------------------------------------------
    std::vector<std::vector<double>> latency_by_class(kClasses);
    std::vector<double> latency, service, admit, late;
    std::vector<double> solver_service;  // ack->terminal, kSolverClass jobs
    std::vector<std::optional<std::string>> sample_out(kClasses);
    long good = 0;
    for (const Job& j : warm) {
      if (j.state != "done") {
        out.notes.push_back("warm-up job " + j.id + " ended " + j.state);
      }
    }
    for (std::size_t k = 0; k < jobs.size(); ++k) {
      const Job& j = jobs[k];
      ++out.attempted;
      late.push_back(ms_between(j.due, j.sent));
      if (j.acked) admit.push_back(ms_between(j.sent, j.ack));
      std::string why;
      if (j.state != "done") {
        why = "ended " + (j.state.empty() ? std::string("unfinished") : j.state);
      } else {
        try {
          const wm::ClockTree got = wm::load_tree(j.out, *s.lib);
          const double skew = wm::worst_skew(got, single_mode_set(got));
          if (assignment_of(got) != ref_assign[j.cls]) {
            why = "assignment differs from the in-process reference";
          } else if (!(skew <= wm::serve::JobSpec{}.kappa)) {
            why = "worst skew " + std::to_string(skew) + " ps exceeds kappa";
          }
        } catch (const std::exception& e) {
          why = std::string("result unreadable: ") + e.what();
        }
      }
      if (!why.empty()) {
        ++out.failed;
        out.notes.push_back("job " + j.id + " (" + kMix[j.cls].design + "): " + why);
        continue;
      }
      const double l = ms_between(j.due, j.done);
      latency.push_back(l);
      latency_by_class[j.cls].push_back(l);
      service.push_back(ms_between(j.ack, j.done));
      if (j.cls == kSolverClass) solver_service.push_back(service.back());
      if (l <= kLatencyLimitMs) ++good;
      if (!sample_out[j.cls]) sample_out[j.cls] = j.out;

      const auto job_span = tracer.record("serve.job", j.due, j.done, -1,
                                          static_cast<std::int32_t>(k));
      tracer.record("serve.gen_late", j.due, j.sent, job_span,
                    static_cast<std::int32_t>(k));
      tracer.record("serve.admit", j.sent, j.ack, job_span,
                    static_cast<std::int32_t>(k));
      tracer.record("serve.ack_terminal", j.ack, j.done, job_span,
                    static_cast<std::int32_t>(k));
    }
    const double characterized = counter(after, "serve.pool_characterized");
    if (characterized != 0.0) {
      ++out.failed;
      out.notes.push_back("pool workers characterized in-process (" +
                          std::to_string(characterized) +
                          " rows): the blob was not used");
    }

    // Backlog: the run is only a sample of steady state if the daemon's
    // queue (jobs admitted and waiting for a slot, 0 while the pool
    // keeps up) did not grow from the first half of the schedule to the
    // second. Jobs in flight are reported but not tested: one s35932
    // job holds a slot for a third of a second, so their count swings.
    double depth[2] = {0.0, 0.0}, n[2] = {0.0, 0.0}, depth_max = 0.0;
    double outstanding = 0.0;
    for (const Snapshot& sn : snaps) {
      const int half = sn.t_ms < run.seconds * 500.0 ? 0 : 1;
      depth[half] += sn.queue_depth;
      n[half] += 1.0;
      depth_max = std::max(depth_max, sn.queue_depth);
      outstanding += sn.outstanding;
    }
    for (int h = 0; h < 2; ++h) depth[h] /= std::max(1.0, n[h]);
    std::ostringstream backlog;
    backlog << "daemon queue depth mean " << depth[0] << " in the first half, "
            << depth[1] << " in the second; jobs submitted and not yet "
            << "terminal, mean " << outstanding / std::max(1.0, n[0] + n[1]);
    out.notes.push_back(backlog.str());
    if (depth[1] > depth[0] + 1.0) {
      out.valid = false;
      out.notes.push_back("queue depth grew across the run: offered load "
                          "is at or past saturation");
    }

    // Timing metrics at the reference loop's nominal speed, scaled by
    // the loop's median over the idle gaps of the schedule. latency_p10_ms
    // covers the large classes only: the small class's latency (~10 ms,
    // mostly process wake-ups) moved 26% between two sets of ten runs
    // of the same code, past any bound, so it is a note.
    const double scale =
        run.trace ? 1.0 : ReferenceLoop::scale(median(reference_ms));
    std::vector<double> large_latency;
    for (std::size_t c = 1; c < kClasses; ++c) {
      large_latency.insert(large_latency.end(), latency_by_class[c].begin(),
                           latency_by_class[c].end());
    }
    out.metrics["solve_ms_p10"] =
        scale * percentile(solver_service, kTimingPct);
    out.metrics["latency_p10_ms"] = scale * percentile(large_latency, kTimingPct);
    out.notes.push_back(distribution_note("reference loop", reference_ms));
    out.notes.push_back(distribution_note("job ack->terminal", service));
    out.notes.push_back(distribution_note(
        std::string(kMix[kSolverClass].design) + " job ack->terminal",
        solver_service));
    out.notes.push_back(distribution_note("job latency", latency));
    for (std::size_t c = 0; c < kClasses; ++c) {
      out.notes.push_back(distribution_note(
          std::string(kMix[c].design) + " job latency", latency_by_class[c]));
    }
    Clock::time_point last_done = t0;
    for (const Job& j : jobs) {
      if (j.terminal) last_done = std::max(last_done, j.done);
    }
    out.notes.push_back(
        "goodput (jobs within " + std::to_string(kLatencyLimitMs) +
        " ms per second of run, not bounded): " +
        std::to_string(static_cast<double>(good) /
                       (ms_between(t0, last_done) / 1000.0)));
    out.metrics["model_peak_ua"] = model_peak_sum;
    double sim = 0.0;
    for (std::size_t c = 0; c < kClasses; ++c) {
      if (!sample_out[c]) continue;
      const wm::ClockTree t = wm::load_tree(*sample_out[c], *s.lib);
      sim += wm::evaluate_design(t, single_mode_set(t)).peak_current;
    }
    out.metrics["sim_peak_ua"] = sim;

    // --- per-layer ---------------------------------------------------------
    const auto by_op = tracer.self_ms_by_op();
    std::vector<std::int32_t> setup_ops;
    for (int k = 0; k < kBoots; ++k) setup_ops.push_back(-1 - k);
    for (const char* layer : {"cells.characterize", "cts.make_benchmark",
                              "io.blob_compile", "serve.boot"}) {
      out.metrics[std::string(layer) + "_ms"] =
          median(self_ms_of(by_op, setup_ops, layer));
    }
    out.metrics["serve.admit_ms"] = median(admit);
    out.metrics["serve.gen_late_ms"] =
        late.empty() ? 0.0 : *std::max_element(late.begin(), late.end());
    for (std::size_t c = 0; c < kClasses; ++c) {
      out.metrics[std::string("serve.overhead_ms.") + kMix[c].design] =
          median(latency_by_class[c]) - inproc_ms[c];
    }
    auto delta = [&](const char* name) {
      return counter(after, name) - counter(before, name);
    };
    const double finished = delta("serve.done") + delta("serve.degraded");
    out.metrics["serve.shards_per_job"] =
        finished > 0.0 ? delta("serve.shards_done") / finished : 0.0;
    out.metrics["serve.retries"] = delta("serve.retries");
    out.metrics["serve.shard_retries"] = delta("serve.shard_retries");
    out.metrics["serve.journal_bytes_per_job"] =
        jobs.empty() ? 0.0
                     : (static_cast<double>(journal1) -
                        static_cast<double>(journal0)) /
                           static_cast<double>(jobs.size());
    if (delta("serve.journal_compactions") > 0.0) {
      out.notes.push_back("journal compacted during the run: "
                          "serve.journal_bytes_per_job undercounts");
    }
    out.metrics["serve.queue_depth_max"] = depth_max;

    std::vector<double> share_late, share_admit, share_service;
    for (std::size_t k = 0; k < jobs.size(); ++k) {
      const Job& j = jobs[k];
      if (j.state != "done") continue;
      const double total = ms_between(j.due, j.done);
      if (total <= 0.0) continue;
      share_late.push_back(ms_between(j.due, j.sent) / total);
      share_admit.push_back(ms_between(j.sent, j.ack) / total);
      share_service.push_back(ms_between(j.ack, j.done) / total);
    }
    out.notes.push_back(
        "job latency shares (median): generator lateness " +
        std::to_string(100.0 * median(share_late)) + "%, submit->ack " +
        std::to_string(100.0 * median(share_admit)) + "%, ack->terminal " +
        std::to_string(100.0 * median(share_service)) + "%");
    std::string inproc = std::to_string(jobs.size()) + " jobs at " +
                         std::to_string(kJobsPerSecond) +
                         "/s; in-process solve p50 (ms):";
    for (std::size_t c = 0; c < kClasses; ++c) {
      inproc += std::string(" ") + kMix[c].design + ' ' +
                std::to_string(inproc_ms[c]);
    }
    out.notes.push_back(inproc);

    if (run.trace) {
      std::string snaps_json = "\"stats\": [";
      for (std::size_t i = 0; i < snaps.size(); ++i) {
        snaps_json += (i == 0 ? "" : ", ") + std::string("{\"t_ms\": ") +
                      std::to_string(snaps[i].t_ms) + ", \"queue_depth\": " +
                      std::to_string(snaps[i].queue_depth) +
                      ", \"outstanding\": " +
                      std::to_string(snaps[i].outstanding) +
                      "}";
      }
      snaps_json += "]";
      const std::string trace_path = run.work_dir + "/trace.json";
      tracer.write(trace_path, snaps_json);
      out.notes.push_back("spans written to " + trace_path);
    }
  }
  return out;
}

} // namespace perfbench
