#include "trace.hpp"

#include <cstdio>

#include "util/error.hpp"
#include "util/json.hpp"

namespace perfbench {

std::int64_t Tracer::ns(Clock::time_point t) const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(t - t0_)
      .count();
}

std::int32_t Tracer::begin(const char* name) {
  Span s;
  s.name = name;
  s.parent = open_.empty() ? -1 : open_.back();
  s.op = op_;
  s.start_ns = ns(Clock::now());
  spans_.push_back(std::move(s));
  const auto id = static_cast<std::int32_t>(spans_.size() - 1);
  open_.push_back(id);
  return id;
}

void Tracer::end(std::int32_t id) {
  spans_[static_cast<std::size_t>(id)].end_ns = ns(Clock::now());
  WM_ASSERT(!open_.empty() && open_.back() == id, "spans must nest");
  open_.pop_back();
}

std::int32_t Tracer::record(const char* name, Clock::time_point start,
                            Clock::time_point end, std::int32_t parent,
                            std::int32_t op) {
  Span s;
  s.name = name;
  s.start_ns = ns(start);
  s.end_ns = ns(end);
  s.parent = parent;
  s.op = op;
  spans_.push_back(std::move(s));
  return static_cast<std::int32_t>(spans_.size() - 1);
}

std::vector<std::int64_t> Tracer::self_ns() const {
  std::vector<std::int64_t> self(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    self[i] = spans_[i].end_ns - spans_[i].start_ns;
  }
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      self[static_cast<std::size_t>(s.parent)] -= s.end_ns - s.start_ns;
    }
  }
  return self;
}

SelfByOp Tracer::self_ms_by_op() const {
  const std::vector<std::int64_t> self = self_ns();
  SelfByOp out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    out[spans_[i].op][spans_[i].name] += static_cast<double>(self[i]) / 1e6;
  }
  return out;
}

std::vector<double> self_ms_of(const SelfByOp& by_op,
                               const std::vector<std::int32_t>& ops,
                               const std::string& name) {
  std::vector<double> out;
  out.reserve(ops.size());
  for (const std::int32_t op : ops) {
    double v = 0.0;
    if (const auto it = by_op.find(op); it != by_op.end()) {
      if (const auto l = it->second.find(name); l != it->second.end()) {
        v = l->second;
      }
    }
    out.push_back(v);
  }
  return out;
}

void Tracer::write(const std::string& path,
                   const std::string& extra_json) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) throw wm::Error("cannot write trace file " + path);
  std::fprintf(f, "{\"spans\": [");
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "%s\n{\"name\": %s, \"start_ns\": %lld, \"end_ns\": %lld, "
                 "\"parent\": %d, \"op\": %d}",
                 i == 0 ? "" : ",", wm::json::quote(s.name).c_str(),
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns), s.parent, s.op);
  }
  std::fprintf(f, "]%s%s}\n", extra_json.empty() ? "" : ", ",
               extra_json.c_str());
  std::fclose(f);
}

} // namespace perfbench
