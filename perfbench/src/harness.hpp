#pragma once
// Shared pieces of the benchmark: the run plan, the workload interface,
// the metric list fpna_perfbench prints, and the seeded input helpers.

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <type_traits>
#include <vector>

#include "fpna/obs/clock.hpp"
#include "fpna/obs/recorder.hpp"
#include "fpna/stats/descriptive.hpp"
#include "fpna/util/rng.hpp"
#include "trace.hpp"

namespace perfbench {

/// How one measurement loop runs. Op i's inputs are a pure function of
/// (seed, i); the loop runs ops in index order until `seconds` have passed
/// and at least `min_ops` ops have run.
struct RunPlan {
  double seconds = 10.0;
  std::uint64_t min_ops = 20;
  /// Index of the op whose output gets one bit flipped before its check
  /// (-1: none). Proves that the checks can fail.
  std::int64_t corrupt_op = -1;
};

/// Op wall times in microseconds, counted in logarithmic bins 1/128 of an
/// octave (0.54 %) wide. Its memory does not grow with throughput (it is
/// part of peak_rss_mb), and histograms of separate stretches of a loop
/// merge exactly.
class LatencyHistogram {
 public:
  void add(double us) {
    if (counts_.empty()) counts_.assign(kBins, 0);
    const double bin = us > 1.0 ? std::log2(us) * kBinsPerOctave : 0.0;
    ++counts_[std::min(kBins - 1, static_cast<std::size_t>(bin))];
    ++count_;
  }

  void merge(const LatencyHistogram& other) {
    if (other.count_ == 0) return;
    if (counts_.empty()) counts_.assign(kBins, 0);
    for (std::size_t b = 0; b < kBins; ++b) counts_[b] += other.counts_[b];
    count_ += other.count_;
  }

  std::uint64_t count() const noexcept { return count_; }

  /// Linear interpolation between the sorted values around rank
  /// p * (count - 1), as stats::quantile does, each value placed inside
  /// its bin by its rank among the bin's values.
  double quantile(double p) const {
    if (count_ == 0) return 0.0;
    const double rank = p * double(count_ - 1);
    const auto lo = static_cast<std::uint64_t>(rank);
    const double a = value_at(lo);
    const double b = lo + 1 < count_ ? value_at(lo + 1) : a;
    return a + (rank - double(lo)) * (b - a);
  }

 private:
  static constexpr double kBinsPerOctave = 128.0;
  static constexpr std::size_t kBins = 128 * 27;  // 1 us to 2^27 us (134 s)

  /// The k-th smallest value (0-based).
  double value_at(std::uint64_t k) const {
    std::uint64_t below = 0;
    std::size_t b = 0;
    while (below + counts_[b] <= k) below += counts_[b++];
    const double within = (double(k - below) + 0.5) / double(counts_[b]);
    return std::exp2((double(b) + within) / kBinsPerOctave);
  }

  std::vector<std::uint32_t> counts_;
  std::uint64_t count_ = 0;
};

/// The VM's CPU time so far, in clock ticks, from the first line of
/// /proc/stat: all of it, and the part the hypervisor gave to other
/// guests (steal).
struct CpuTimes {
  std::uint64_t total = 0;
  std::uint64_t steal = 0;
};

inline CpuTimes cpu_times() {
  std::ifstream in("/proc/stat");
  std::string label;
  in >> label;
  CpuTimes t;
  // user nice system idle iowait irq softirq steal
  for (int field = 0; field < 8; ++field) {
    std::uint64_t ticks = 0;
    if (!(in >> ticks)) break;
    t.total += ticks;
    if (field == 7) t.steal = ticks;
  }
  return t;
}

inline double steal_pct(const CpuTimes& from, const CpuTimes& to) {
  const double ticks = double(to.total - from.total);
  return ticks > 0 ? 100.0 * double(to.steal - from.steal) / ticks : 0.0;
}

/// Steal ticks above which a stretch of a loop (one op, or one slice of
/// serving) is run and checked but not timed: the median over the loop's
/// stretches. Time the hypervisor takes from this VM stalls whatever
/// runs; the stretches it hit hardest say more about the host than about
/// the program, and they are at most half of the loop.
inline std::uint64_t steal_cutoff(std::vector<std::uint64_t> steal) {
  if (steal.empty()) return 0;
  const auto mid = steal.begin() + static_cast<std::ptrdiff_t>(steal.size() / 2);
  std::nth_element(steal.begin(), mid, steal.end());
  return *mid;
}

/// Number of equal parts, in time order, that a loop's stretches are cut
/// into for op_p99_us.
constexpr std::size_t kTailParts = 5;

/// Per-op wall times and the outcome counts of one measurement loop. In a
/// traced loop, ops alternate between the library's entry points with no
/// spans (`op_us`) and the decomposed, traced path (`traced_us`). Only the
/// stretches within the steal cutoff are timed.
struct Measurement {
  LatencyHistogram op_us;
  /// op_us split by the part of the loop each op ran in.
  std::array<LatencyHistogram, kTailParts> op_us_part;
  LatencyHistogram traced_us;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// Library ops in op_us, and the wall time of the stretches they ran in.
  std::uint64_t timed_ops = 0;
  double timed_s = 0.0;
  /// Share of the VM's CPU time stolen over the whole loop, in percent.
  double steal_pct = 0.0;

  /// op_p99_us: the median of the p99s of the loop's kTailParts parts. A
  /// host stall of a second or less reaches one part, so it cannot set the
  /// result alone, as it does for the p99 of the whole loop when ops are
  /// few (a 15 s run of 0.1 s ops has its p99 among its two slowest ops).
  double p99_us() const {
    std::vector<double> p99;
    for (const LatencyHistogram& h : op_us_part) {
      if (h.count() > 0) p99.push_back(h.quantile(0.99));
    }
    return p99.empty() ? 0.0
                       : fpna::stats::quantile(std::span<const double>(p99), 0.5);
  }
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};
using MetricList = std::vector<Metric>;

class Workload {
 public:
  virtual ~Workload() = default;

  /// Builds the inputs and the reference outputs every op is checked
  /// against. Everything is a pure function of `seed`. Calling it again
  /// rebuilds from scratch.
  virtual void setup(std::uint64_t seed) = 0;

  /// Fingerprint of the generated inputs (the benchmark's tests check that
  /// it is a pure function of the seed).
  virtual std::uint64_t input_digest() const = 0;

  /// Untraced (`tracer` null): the library's entry points, timed end to
  /// end. Traced: every other op is decomposed into the public calls it is
  /// made of, with spans on; the ops between them stay untraced.
  virtual Measurement measure(const RunPlan& plan, Tracer* tracer) = 0;

  /// Extra traced calls outside the ops (same-shape comparisons, one-shot
  /// layer calls). Runs after measure() in traced runs only.
  virtual void probe(Tracer& /*tracer*/) {}

  /// Per-layer metrics derived from the spans this workload recorded.
  virtual void layer_metrics(const Tracer& tracer, MetricList& out) const = 0;

  /// Fingerprint of the outputs of the first ops of the last measure() call
  /// (empty when the workload does not track one).
  virtual std::string output_fingerprint() const { return {}; }
};

std::unique_ptr<Workload> make_infer_nd();
std::unique_ptr<Workload> make_train_ddp();
std::unique_ptr<Workload> make_serve_closed();
std::unique_ptr<Workload> make_sum_sweep();

/// Stream seed for one purpose of one run: distinct purposes and distinct
/// run seeds give independent streams.
inline std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t purpose) {
  std::uint64_t s = seed * 0x9e3779b97f4a7c15ULL + purpose;
  return fpna::util::splitmix64(s);
}

/// Feeds integers into a fingerprint, one 64-bit word each.
template <typename Int>
void feed_ints(fpna::obs::Fingerprint& f, const std::vector<Int>& values) {
  for (const Int v : values) f.feed(static_cast<std::uint64_t>(v));
}

/// Flips the sign bit of `value`: the injected single-bit corruption. A
/// sign flip moves a value by twice its magnitude, so bitwise checks and
/// error-bound checks alike must catch it.
template <typename T>
void flip_sign_bit(T& value) {
  static_assert(sizeof(T) == 4 || sizeof(T) == 8);
  using Bits = std::conditional_t<sizeof(T) == 4, std::uint32_t, std::uint64_t>;
  Bits bits;
  std::memcpy(&bits, &value, sizeof bits);
  bits ^= Bits{1} << (8 * sizeof(T) - 1);
  std::memcpy(&value, &bits, sizeof bits);
}

/// Drives a workload whose ops run one after another on the calling
/// thread. `run_op(i, tracer, corrupt)` runs op i through the library's
/// entry points when `tracer` is null and decomposed with spans otherwise,
/// and returns whether its output passed the check. Each op is one
/// stretch of the steal cutoff.
template <typename RunOp>
Measurement run_sequential(const RunPlan& plan, Tracer* tracer,
                           RunOp&& run_op) {
  struct Op {
    double us;
    std::uint64_t steal;
    bool traced;
  };
  std::vector<Op> ops;
  Measurement m;
  const CpuTimes first = cpu_times();
  CpuTimes before = first;
  const std::uint64_t t0 = fpna::obs::now_ns();
  const auto budget_ns = static_cast<std::uint64_t>(plan.seconds * 1e9);
  for (std::uint64_t i = 0;; ++i) {
    const std::uint64_t now = fpna::obs::now_ns();
    if (i >= plan.min_ops && now - t0 >= budget_ns) break;
    const bool traced = tracer != nullptr && i % 2 == 1;
    if (tracer != nullptr) {
      tracer->set_enabled(traced);
      tracer->set_op(static_cast<std::uint32_t>(i));
    }
    const bool corrupt = static_cast<std::int64_t>(i) == plan.corrupt_op;
    const std::uint64_t start = fpna::obs::now_ns();
    bool ok = false;
    {
      Tracer::Scope op(tracer, "op");
      ok = run_op(i, traced ? tracer : nullptr, corrupt);
    }
    const double us = double(fpna::obs::now_ns() - start) * 1e-3;
    const CpuTimes after = cpu_times();
    ops.push_back({us, after.steal - before.steal, traced});
    before = after;
    ++m.attempted;
    if (!ok) ++m.failed;
  }
  if (tracer != nullptr) tracer->set_enabled(true);
  m.steal_pct = steal_pct(first, before);

  std::vector<std::uint64_t> steal;
  for (const Op& op : ops) steal.push_back(op.steal);
  const std::uint64_t cutoff = steal_cutoff(std::move(steal));
  for (std::size_t j = 0; j < ops.size(); ++j) {
    const Op& op = ops[j];
    if (op.steal > cutoff) continue;
    if (op.traced) {
      m.traced_us.add(op.us);
      continue;
    }
    m.op_us.add(op.us);
    m.op_us_part[j * kTailParts / ops.size()].add(op.us);
    ++m.timed_ops;
    m.timed_s += op.us * 1e-6;
  }
  return m;
}

}  // namespace perfbench
