// sum-sweep: one 2^20-double array (the paper's 1M-element size, 8 MB:
// above a core's L2, inside the shared L3) summed by every reduction the
// paper compares - deterministic cpu_sum specs, a pooled exact-merge sum,
// an ND completion-order cpu_sum and the simulated GPU kernels SPTR, SPA
// and AO on the V100 profile.
//
// Why: the fp fold, the reduce layer and the sim block engine carry this
// op; they are nearly absent from the other workloads.

#include <array>
#include <cmath>
#include <cstring>
#include <limits>

#include "fpna/core/run_context.hpp"
#include "fpna/fp/accumulator.hpp"
#include "fpna/fp/reduction_spec.hpp"
#include "fpna/reduce/cpu_sum.hpp"
#include "fpna/reduce/gpu_sum.hpp"
#include "fpna/sim/device.hpp"
#include "fpna/sim/device_profile.hpp"
#include "fpna/util/thread_pool.hpp"
#include "harness.hpp"

namespace perfbench {
namespace {

constexpr std::size_t kElements = std::size_t{1} << 20;
constexpr std::size_t kArrays = 4;  // even: U(0,10), odd: N(0,1)
constexpr std::size_t kChunks = 4;

/// The deterministic specs, each checked bitwise. `pooled` runs the
/// 4 chunks on the 2-worker pool (exact merge: same bits as unpooled).
struct DSpec {
  const char* spec;
  const char* span;  // "@" written as "-"
  const char* fold_span;
  bool pooled;
};
constexpr std::array<DSpec, 5> kSpecs{{
    {"serial", "reduce.cpu_sum.serial", "fp.fold.serial", false},
    {"pairwise", "reduce.cpu_sum.pairwise", "fp.fold.pairwise", false},
    {"kahan@simd8", "reduce.cpu_sum.kahan-simd8", "fp.fold.kahan-simd8", false},
    {"superaccumulator", "reduce.cpu_sum.superaccumulator",
     "fp.fold.superaccumulator", false},  // kExact
    {"binned", "reduce.cpu_sum.binned", "fp.fold.binned", true},
}};

/// Index in kSpecs of the correctly rounded sum the ND results are
/// checked against.
constexpr std::size_t kExact = 3;

struct GpuMethod {
  fpna::sim::SumMethod method;
  const char* span;
  const char* metric;
};
constexpr std::array<GpuMethod, 3> kGpu{{
    {fpna::sim::SumMethod::kSPTR, "reduce.gpu_sum.sptr", "reduce.gpu_sum.sptr.ms"},
    {fpna::sim::SumMethod::kSPA, "reduce.gpu_sum.spa", "reduce.gpu_sum.spa.ms"},
    {fpna::sim::SumMethod::kAO, "reduce.gpu_sum.ao", "reduce.gpu_sum.ao.ms"},
}};

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

class SumSweep final : public Workload {
 public:
  void setup(std::uint64_t seed) override {
    state_.reset();
    state_ = std::make_unique<State>(seed);
  }

  std::uint64_t input_digest() const override {
    fpna::obs::Fingerprint f;
    for (const auto& a : state_->arrays) f.feed(std::span<const double>(a));
    feed_ints(f, state_->order);
    return f.value();
  }

  Measurement measure(const RunPlan& plan, Tracer* tracer) override {
    return run_sequential(plan, tracer, [&](std::uint64_t i, Tracer* t,
                                            bool corrupt) {
      return run_op(i, t, corrupt);
    });
  }

  void probe(Tracer& tracer) override {
    // The registry's one-shot fold of each spec, single thread.
    const auto& data = state_->arrays[0];
    tracer.set_op(0);
    for (int rep = 0; rep < 3; ++rep) {
      for (std::size_t k = 0; k < kSpecs.size(); ++k) {
        Tracer::Scope span(&tracer, kSpecs[k].fold_span, double(kElements));
        (void)fpna::fp::reduce<double>(state_->specs[k],
                                       std::span<const double>(data));
      }
    }
  }

  void layer_metrics(const Tracer& tracer, MetricList& out) const override {
    const auto totals = tracer.totals();
    const auto ns_per_elem = [&](const char* name) {
      const auto& t = totals.at(name);
      return t.total_ns / t.work;
    };
    for (const DSpec& s : kSpecs) {
      out.push_back({std::string(s.fold_span) + ".ns_per_elem",
                     ns_per_elem(s.fold_span), "ns"});
    }
    for (const DSpec& s : kSpecs) {
      out.push_back({std::string(s.span) + ".ns_per_elem", ns_per_elem(s.span),
                     "ns"});
    }
    out.push_back({"reduce.cpu_sum.nd.ns_per_elem",
                   ns_per_elem("reduce.cpu_sum.nd"), "ns"});
    out.push_back({"reduce.cpu_sum.superaccumulator_over_serial",
                   ns_per_elem(kSpecs[kExact].span) /
                       ns_per_elem("reduce.cpu_sum.serial"),
                   "ratio"});
    for (const GpuMethod& g : kGpu) {
      const auto& t = totals.at(g.span);
      out.push_back({g.metric, t.total_ns * 1e-6 / double(t.calls), "ms"});
    }
  }

 private:
  struct Reference {
    std::array<double, kSpecs.size()> d{};
    double sptr = 0.0;
    double exact = 0.0;
    /// gamma_{n-1} * sum |x|: the worst-case error of any association of
    /// the sum in double, so every ND order must land inside it.
    double bound = 0.0;
  };

  struct State {
    explicit State(std::uint64_t seed)
        : nd_seed(derive_seed(seed, 3)),
          pool(2),
          device(fpna::sim::DeviceProfile::v100()) {
      for (const DSpec& s : kSpecs) {
        specs.push_back(fpna::fp::parse_reduction_spec(s.spec));
      }
      fpna::util::Xoshiro256pp rng(derive_seed(seed, 1));
      for (std::size_t a = 0; a < kArrays; ++a) {
        std::vector<double> values(kElements);
        if (a % 2 == 0) {
          const fpna::util::UniformReal u(0.0, 10.0);
          for (double& v : values) v = u(rng);
        } else {
          fpna::util::Normal n(0.0, 1.0);
          for (double& v : values) v = n(rng);
        }
        arrays.push_back(std::move(values));
      }
      for (std::size_t i = 0; i < 256; ++i) {
        order.push_back(static_cast<std::uint32_t>(rng() % kArrays));
      }
      for (const auto& values : arrays) {
        const std::span<const double> data(values);
        Reference r;
        for (std::size_t k = 0; k < kSpecs.size(); ++k) {
          r.d[k] = fpna::reduce::cpu_sum(data, context(k, false), kChunks);
        }
        fpna::core::RunContext run(nd_seed, 0);
        r.sptr = fpna::reduce::gpu_sum(device, data,
                                       fpna::sim::SumMethod::kSPTR, run)
                     .value;
        r.exact = r.d[kExact];
        std::vector<double> magnitudes(values.size());
        for (std::size_t k = 0; k < values.size(); ++k) {
          magnitudes[k] = std::fabs(values[k]);
        }
        const double u = std::numeric_limits<double>::epsilon() / 2;
        const double n1 = double(values.size() - 1);
        r.bound = n1 * u / (1.0 - n1 * u) *
                  fpna::fp::reduce<double>(
                      fpna::fp::AlgorithmId::kSuperaccumulator,
                      std::span<const double>(magnitudes));
        references.push_back(r);
      }
    }

    fpna::core::EvalContext context(std::size_t k, bool allow_pool) {
      fpna::core::EvalContext ctx;
      ctx.accumulator = specs[k];
      if (allow_pool && kSpecs[k].pooled) ctx.pool = &pool;
      return ctx;
    }

    std::uint64_t nd_seed;
    fpna::util::ThreadPool pool;
    fpna::sim::SimDevice device;
    std::vector<fpna::fp::ReductionSpec> specs;
    std::vector<std::vector<double>> arrays;
    std::vector<std::uint32_t> order;
    std::vector<Reference> references;
  };

  bool run_op(std::uint64_t i, Tracer* tracer, bool corrupt) {
    State& s = *state_;
    const std::size_t a = s.order[i % s.order.size()];
    const std::span<const double> data(s.arrays[a]);
    const Reference& ref = s.references[a];
    const double n = double(kElements);
    bool ok = true;

    for (std::size_t k = 0; k < kSpecs.size(); ++k) {
      double v = 0.0;
      {
        Tracer::Scope span(tracer, kSpecs[k].span, n);
        v = fpna::reduce::cpu_sum(data, s.context(k, true), kChunks);
      }
      if (corrupt && k == 0) flip_sign_bit(v);
      ok = ok && same_bits(v, ref.d[k]);
    }

    fpna::core::RunContext run(s.nd_seed, i);
    const auto within = [&](double v) {
      return std::fabs(v - ref.exact) <= ref.bound;
    };
    {
      double v = 0.0;
      {
        Tracer::Scope span(tracer, "reduce.cpu_sum.nd", n);
        v = fpna::reduce::cpu_sum(
            data, fpna::core::EvalContext::nondeterministic_on(run), kChunks);
      }
      ok = ok && within(v);
    }
    for (const GpuMethod& g : kGpu) {
      double v = 0.0;
      {
        Tracer::Scope span(tracer, g.span, n);
        v = fpna::reduce::gpu_sum(s.device, data, g.method, run).value;
      }
      ok = ok && (g.method == fpna::sim::SumMethod::kSPTR ? same_bits(v, ref.sptr)
                                                          : within(v));
    }
    return ok;
  }

  std::unique_ptr<State> state_;
};

}  // namespace

std::unique_ptr<Workload> make_sum_sweep() {
  return std::make_unique<SumSweep>();
}

}  // namespace perfbench
