#pragma once
// In-memory span recorder for the benchmark's traced runs.
//
// Spans are taken around calls into the library's public functions from
// the benchmark's own code: name, start, end, the enclosing span and the
// op the span belongs to. Nothing is written until the run ends. A span
// may carry a work count (flops, contributions, elements) so a layer's
// rate is measured where the work happens.

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "fpna/obs/clock.hpp"

namespace perfbench {

class Tracer {
 public:
  struct Span {
    const char* name = "";
    std::uint64_t start_ns = 0;
    std::uint64_t end_ns = 0;
    std::int32_t parent = -1;
    std::uint32_t op = 0;
    double work = 0.0;
  };

  /// Per-name totals over every recorded span.
  struct Totals {
    std::uint64_t calls = 0;
    double total_ns = 0.0;
    double work = 0.0;
  };

  /// Opens a span on construction and closes it on destruction. A null or
  /// disabled tracer makes it a no-op, so traced code paths can run with
  /// spans off to measure what the spans cost.
  class Scope {
   public:
    Scope(Tracer* tracer, const char* name, double work = 0.0)
        : tracer_(tracer != nullptr && tracer->enabled_ ? tracer : nullptr) {
      if (tracer_ != nullptr) index_ = tracer_->open(name, work);
    }
    ~Scope() {
      if (tracer_ != nullptr) tracer_->close(index_);
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_;
    std::int32_t index_ = -1;
  };

  bool enabled() const noexcept { return enabled_; }
  void set_enabled(bool on) noexcept { enabled_ = on; }
  void set_op(std::uint32_t op) noexcept { op_ = op; }

  /// Records a span whose interval was measured elsewhere (the server's
  /// own admission and completion stamps). Returns its index.
  std::int32_t add(const char* name, std::uint64_t start_ns,
                   std::uint64_t end_ns, std::int32_t parent = -1,
                   double work = 0.0) {
    spans_.push_back({name, start_ns, end_ns, parent, op_, work});
    return static_cast<std::int32_t>(spans_.size() - 1);
  }

  const std::vector<Span>& spans() const noexcept { return spans_; }

  /// Self time of every span: its duration minus the part of it that its
  /// child spans cover.
  std::vector<double> self_ns() const {
    std::vector<double> self(spans_.size());
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      self[i] = duration(spans_[i]);
    }
    for (const Span& s : spans_) {
      if (s.parent < 0) continue;
      const Span& p = spans_[static_cast<std::size_t>(s.parent)];
      const std::uint64_t lo = std::max(s.start_ns, p.start_ns);
      const std::uint64_t hi = std::min(s.end_ns, p.end_ns);
      if (hi > lo) self[static_cast<std::size_t>(s.parent)] -= double(hi - lo);
    }
    return self;
  }

  std::map<std::string, Totals> totals() const {
    std::map<std::string, Totals> out;
    for (const Span& s : spans_) {
      Totals& t = out[s.name];
      ++t.calls;
      t.total_ns += duration(s);
      t.work += s.work;
    }
    return out;
  }

  /// Share of the wall time of spans named `root` that their direct
  /// children cover.
  double coverage(const char* root) const {
    const std::vector<double> self = self_ns();
    double total = 0.0;
    double uncovered = 0.0;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      if (std::string(spans_[i].name) != root) continue;
      total += duration(spans_[i]);
      uncovered += self[i];
    }
    return total > 0.0 ? 1.0 - uncovered / total : 0.0;
  }

  /// Chrome trace-event JSON (load in Perfetto or chrome://tracing) of the
  /// first `limit` spans; each workload goes on its own thread row.
  void write_chrome(std::ofstream& out, int tid, std::size_t limit,
                    bool& first) const {
    const std::vector<double> self = self_ns();
    for (std::size_t i = 0; i < std::min(limit, spans_.size()); ++i) {
      const Span& s = spans_[i];
      out << (first ? "\n" : ",\n") << "{\"name\":\"" << s.name
          << "\",\"ph\":\"X\",\"pid\":0,\"tid\":" << tid
          << ",\"ts\":" << double(s.start_ns) * 1e-3
          << ",\"dur\":" << duration(s) * 1e-3 << ",\"args\":{\"op\":" << s.op
          << ",\"parent\":" << s.parent << ",\"self_us\":" << self[i] * 1e-3
          << ",\"work\":" << s.work << "}}";
      first = false;
    }
  }

 private:
  static double duration(const Span& s) noexcept {
    return s.end_ns > s.start_ns ? double(s.end_ns - s.start_ns) : 0.0;
  }

  std::int32_t open(const char* name, double work) {
    const std::int32_t parent = stack_.empty() ? -1 : stack_.back();
    spans_.push_back({name, fpna::obs::now_ns(), 0, parent, op_, work});
    const auto index = static_cast<std::int32_t>(spans_.size() - 1);
    stack_.push_back(index);
    return index;
  }

  void close(std::int32_t index) {
    spans_[static_cast<std::size_t>(index)].end_ns = fpna::obs::now_ns();
    stack_.pop_back();
  }

  bool enabled_ = true;
  std::uint32_t op_ = 0;
  std::vector<Span> spans_;
  std::vector<std::int32_t> stack_;
};

}  // namespace perfbench
