#pragma once
// In-memory span recorder for the traced run.
//
// A span is one call into a layer of the library (or one phase of a
// served job), recorded from the harness's own code: name, start, end,
// the enclosing span and the op it belongs to. Spans stay in memory
// and are written once, when the run ends. A span's self time is its
// duration minus the time its direct children cover.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common.hpp"

namespace perfbench {

/// Per op: span name -> summed self time (ms).
using SelfByOp = std::map<std::int32_t, std::map<std::string, double>>;

struct Span {
  std::string name;
  std::int64_t start_ns = 0;  ///< since the tracer was created
  std::int64_t end_ns = 0;
  std::int32_t parent = -1;   ///< index into the span list, -1 = root
  std::int32_t op = -1;       ///< op (or job) index, -1 = set-up
};

class Tracer {
 public:
  Tracer() : t0_(Clock::now()) {}

  /// Open a span under the innermost open one.
  std::int32_t begin(const char* name);
  void end(std::int32_t id);

  /// Record a finished span with explicit times (asynchronous phases
  /// such as a served job's queue-to-terminal interval).
  std::int32_t record(const char* name, Clock::time_point start,
                      Clock::time_point end, std::int32_t parent,
                      std::int32_t op);

  void set_op(std::int32_t op) { op_ = op; }

  const std::vector<Span>& spans() const { return spans_; }

  /// Summed self time per op and span name; set-up spans are filed
  /// under the negative op ids the caller gave them.
  SelfByOp self_ms_by_op() const;

  /// Write every span as one JSON document (plus caller-supplied extra
  /// top-level fields, already serialized).
  void write(const std::string& path, const std::string& extra_json) const;

 private:
  std::int64_t ns(Clock::time_point t) const;
  /// Self time of every span (same indexing as spans()).
  std::vector<std::int64_t> self_ns() const;

  Clock::time_point t0_;
  std::vector<Span> spans_;
  std::vector<std::int32_t> open_;
  std::int32_t op_ = -1;
};

/// Self time of the spans named `name` in each of `ops` (0 where an op
/// has none).
std::vector<double> self_ms_of(const SelfByOp& by_op,
                               const std::vector<std::int32_t>& ops,
                               const std::string& name);

/// RAII span; a null tracer makes it a no-op (the untimed paths).
class ScopedSpan {
 public:
  ScopedSpan(Tracer* t, const char* name)
      : t_(t), id_(t != nullptr ? t->begin(name) : -1) {}
  ~ScopedSpan() {
    if (t_ != nullptr) t_->end(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* t_;
  std::int32_t id_;
};

} // namespace perfbench
