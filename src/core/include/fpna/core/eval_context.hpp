#pragma once
// EvalContext: the one execution context every reduction layer takes.
//
// The seed grew five parallel context conventions - fp free functions with
// ad-hoc parameters, reduce's (RunContext&, num_threads) pairs, collective's
// optional RunContext*, tensor's OpContext and the dl trainer's config
// booleans. EvalContext subsumes them: it bundles
//
//   * run        - identity/entropy of one run of a non-deterministic
//                  kernel (nullptr selects the deterministic path);
//   * profile    - the simulated device whose scheduler policy orders
//                  asynchronous commits (nullptr: default H100);
//   * pool       - a shared thread pool for real-thread execution paths;
//   * accumulator- the fp::ReductionSpec (storage dtype x accumulate
//                  dtype x registry algorithm) every inner reduction
//                  routes through (default: native/native/serial, which
//                  reproduces the historic values bit for bit);
//   * deterministic_override - per-context override of the global
//                  DeterminismContext switch (unset: defer to the global);
//   * recorder   - nullable observability sink (obs::Recorder): trace
//                  spans, bit-provenance and metrics when attached,
//                  bit-identical no-ops when nullptr.
//
// tensor::OpContext is an alias of this type, so tensor ops and everything
// layered on them (dl) take the same context as reduce and collective.

#include <optional>

#include "fpna/core/determinism.hpp"
#include "fpna/core/run_context.hpp"
#include "fpna/fp/reduction_spec.hpp"
#include "fpna/sim/device_profile.hpp"

namespace fpna::util {
class ThreadPool;
}

namespace fpna::obs {
class Recorder;
}

namespace fpna::core {

struct EvalContext {
  /// Run identity for the non-deterministic path; nullptr selects the
  /// deterministic implementation.
  RunContext* run = nullptr;
  /// Device whose scheduler policy orders the atomic commits; nullptr
  /// selects the default (H100) profile.
  const sim::DeviceProfile* profile = nullptr;
  /// Thread pool for real-thread execution (wall-clock measurement and
  /// genuine OS-scheduled variability); nullptr: simulated/serial paths.
  util::ThreadPool* pool = nullptr;
  /// The reduction every inner accumulation routes through: storage
  /// dtype x accumulate dtype x registry-selected algorithm. An
  /// fp::AlgorithmId converts implicitly (native dtypes), so historic
  /// `ctx.accumulator = AlgorithmId::kKahan` call sites keep compiling
  /// and keep their bits. Unset means "the kernel's historic default" -
  /// native/native/serial almost everywhere, but e.g. TPRC's host tail is
  /// historically vectorised - and is distinguishable from an explicit
  /// kSerial request, which always means serial. The default reproduces
  /// the seed's hand-rolled loops bitwise.
  std::optional<fp::ReductionSpec> accumulator{};
  /// Tri-state determinism override: unset defers to the process-wide
  /// DeterminismContext switch; set forces this context one way.
  std::optional<bool> deterministic_override{};
  /// Observability sink: trace spans, bit-provenance records and metrics
  /// flow here when set. nullptr (the default) is the certified-identical
  /// path - instrumented kernels do nothing beyond this null check, and
  /// tracing itself never touches the computed values, so a recorder can
  /// never move bits.
  obs::Recorder* recorder = nullptr;
  /// Scale factor on the race probability of plain *stores* (index_copy,
  /// scatter, non-accumulating index_put). Accumulations race whenever
  /// two requests overlap in flight, but a store's outcome flips only
  /// when the final two writes land essentially simultaneously - a far
  /// rarer coincidence. The default is calibrated so duplicate-index
  /// write ops land in the paper's Table 5 Vermv band (~1e-6) instead of
  /// flipping winners on most runs. Tests raise it to 1.0 to exercise the
  /// mechanics quickly.
  double store_race_scale = 1e-4;

  /// The profile actually in effect.
  const sim::DeviceProfile& effective_profile() const noexcept {
    return profile != nullptr ? *profile : default_profile();
  }

  /// The full reduction spec in effect for kernels whose historic
  /// default is the native serial fold (i.e. all of them except noted
  /// special cases, which consult the optional directly). Dtype-aware
  /// kernels fold through fp::Fold<N>::of(reduction_in_effect()).
  fp::ReductionSpec reduction_in_effect() const noexcept {
    return accumulator.value_or(fp::ReductionSpec{});
  }

  /// Whether deterministic implementations are required in this context
  /// (the override beats the global switch).
  bool deterministic_in_effect() const noexcept {
    return deterministic_override.value_or(DeterminismContext::deterministic());
  }

  /// True iff an op should take its non-deterministic path.
  bool nondeterministic() const noexcept {
    return run != nullptr && !deterministic_in_effect();
  }

  static const sim::DeviceProfile& default_profile() noexcept {
    static const sim::DeviceProfile kDefault = sim::DeviceProfile::h100();
    return kDefault;
  }

  /// Convenience: this context with a different registry-selected
  /// reduction (per-bucket selection in comm, per-row sweeps in bench).
  /// Takes the full spec; a bare fp::AlgorithmId converts implicitly.
  EvalContext with_accumulator(fp::ReductionSpec spec) const noexcept {
    EvalContext copy = *this;
    copy.accumulator = spec;
    return copy;
  }

  /// Convenience: this context running on `pool` (nullptr: serial). The
  /// pool-parallel kernel paths are bitwise identical to serial, so this
  /// swaps wall-clock behaviour only (thread sweeps in bench/tests).
  EvalContext with_pool(util::ThreadPool* p) const noexcept {
    EvalContext copy = *this;
    copy.pool = p;
    return copy;
  }

  /// Convenience: this context observed by `r` (nullptr detaches). Pure
  /// observation - identical bits with or without it.
  EvalContext with_recorder(obs::Recorder* r) const noexcept {
    EvalContext copy = *this;
    copy.recorder = r;
    return copy;
  }

  /// Convenience: a context committed to the non-deterministic path (the
  /// seed's reduce/collective entry points never consulted the global
  /// switch; their wrappers preserve that via this factory).
  static EvalContext nondeterministic_on(
      RunContext& run, const sim::DeviceProfile* profile = nullptr) noexcept {
    EvalContext ctx;
    ctx.run = &run;
    ctx.profile = profile;
    ctx.deterministic_override = false;
    return ctx;
  }
};

}  // namespace fpna::core
