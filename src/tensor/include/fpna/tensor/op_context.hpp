#pragma once
// Execution context for tensor ops - now the unified core::EvalContext.
//
// A default-constructed context runs the deterministic implementation with
// the serial accumulator. Supplying a RunContext opts into the
// non-deterministic (atomic-scatter) implementation, whose commit order is
// drawn from the run's generator under the given device profile's
// contention policy - unless the determinism override / global
// DeterminismContext switch forces the deterministic path, exactly like
// torch.use_deterministic_algorithms does for CUDA kernels. The
// `accumulator` field selects which registry algorithm deterministic
// reductions route through.

#include "fpna/core/determinism.hpp"
#include "fpna/core/eval_context.hpp"

namespace fpna::tensor {

using OpContext = core::EvalContext;

/// Convenience: ND context on the default device.
inline OpContext nd_context(core::RunContext& run,
                            const sim::DeviceProfile* profile = nullptr) {
  OpContext ctx;
  ctx.run = &run;
  ctx.profile = profile;
  return ctx;
}

}  // namespace fpna::tensor
