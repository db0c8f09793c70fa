#include "fpna/reduce/gpu_sum.hpp"

#include <stdexcept>
#include <vector>

#include "fpna/fp/fold.hpp"
#include "fpna/reduce/block_sum.hpp"
#include "fpna/util/permutation.hpp"

namespace fpna::reduce {

namespace {

using sim::SumMethod;

/// AO: one same-address atomicAdd per element. The commit order of the
/// atomics is the scheduler's contention-arbitration order over all n
/// elements; the result is the accumulator's fold in that order.
double run_ao(sim::SimDevice& device, std::span<const double> data,
              const core::EvalContext& ctx) {
  auto rng = ctx.run->fork(0xA0);
  const std::vector<std::size_t> order =
      device.scheduler().atomic_commit_order(data.size(), rng);
  return fp::Fold<double>::of(ctx.reduction_in_effect())
      .sum_gather(data.data(), order.data(), order.size());
}

/// SPA: deterministic block tree, then one atomicAdd per block. Executed
/// through the block engine: blocks run in commit order and their
/// fetch_add calls land in that order.
double run_spa(sim::SimDevice& device, std::span<const double> data,
               const core::EvalContext& ctx, std::size_t nt, std::size_t nb) {
  auto rng = ctx.run->fork(0x5BA);
  sim::AtomicDouble result(0.0);
  const sim::LaunchConfig config{nb, nt, nt};
  device.launch(config, rng, [&](sim::BlockCtx& block) {
    const double partial = block_partial_sum(data, block.block_id(), nt, nb,
                                             ctx.reduction_in_effect());
    block.syncthreads();
    result.fetch_add(partial);
  });
  return result.load();
}

/// SPTR / SPRG: deterministic block tree; partials published with
/// __threadfence; the last block through the retirement counter reduces
/// them (tree for SPTR, serial recursive sum for SPRG). The reading order
/// is the fixed index order, so the value is commit-order independent.
double run_single_pass_deterministic(sim::SimDevice& device,
                                     std::span<const double> data,
                                     const core::EvalContext& ctx,
                                     std::size_t nt, std::size_t nb,
                                     bool tree_tail) {
  auto rng = ctx.run->fork(tree_tail ? 0x5B78 : 0x5B76);
  std::vector<double> partials(nb, 0.0);
  std::vector<bool> published(nb, false);
  sim::RetirementCounter retirement(static_cast<unsigned>(nb));
  double result = 0.0;

  const sim::LaunchConfig config{nb, nt, nt};
  device.launch(config, rng, [&](sim::BlockCtx& block) {
    const std::size_t b = block.block_id();
    partials[b] =
        block_partial_sum(data, b, nt, nb, ctx.reduction_in_effect());
    block.threadfence();  // publish partials[b] before retiring
    published[b] = true;

    const unsigned prev = retirement.fetch_inc();
    const bool am_last = prev == static_cast<unsigned>(nb) - 1;
    block.syncthreads();
    if (!am_last) return;

    for (const bool p : published) {
      if (!p) {
        throw std::logic_error(
            "SPTR/SPRG: retirement counter fired before all partials were "
            "published");
      }
    }
    if (tree_tail) {
      result = tree_sum(partials);
    } else {
      // Tail through the selected accumulator, fixed index order, the
      // stream seeded from partials[0] (the native serial fold keeps the
      // seed's partials[0] + partials[1] + ... bit for bit).
      const fp::Fold<double>& fold =
          fp::Fold<double>::of(ctx.reduction_in_effect());
      fp::FoldStates<double> tail(fold, 1);
      fold.seed(tail[0], partials[0]);
      fold.add_run(tail[0], partials.data() + 1, nb - 1, 1);
      fold.results(tail[0], &result, 1);
    }
  });
  return result;
}

/// TPRC: first kernel writes block partials; stream order inserts a
/// barrier before the device-to-host copy; the host computes the final
/// sum. With the accumulator unset the host loop compiles with
/// vectorisation (4 lanes), the rounding pattern the paper notes TPRC is
/// sensitive to; any explicit selection (kSerial included) replaces it.
double run_tprc(sim::SimDevice& device, std::span<const double> data,
                const core::EvalContext& ctx, std::size_t nt, std::size_t nb) {
  auto rng = ctx.run->fork(0x79C);
  std::vector<double> partials(nb, 0.0);
  const sim::LaunchConfig config{nb, nt, nt};
  device.launch(config, rng, [&](sim::BlockCtx& block) {
    partials[block.block_id()] = block_partial_sum(
        data, block.block_id(), nt, nb, ctx.reduction_in_effect());
  });
  // Kernel-to-copy stream dependency: the copy sees all partials. An
  // explicitly selected accumulator (including kSerial) runs the host
  // tail; with the accumulator unset the tail is the historic host loop,
  // which compiles vectorised.
  return fp::reduce(ctx.accumulator.value_or(fp::AlgorithmId::kVectorized),
                    std::span<const double>(partials));
}

/// CU: vendor library sum. Internally a two-pass tree with library-chosen
/// tiling (the paper lists its parameters as "unknown"); deterministic by
/// construction, value differs from SPTR because the tiling differs. A
/// vendor black box does not honour the caller's accumulator selection:
/// its per-tile pass is pinned to the registry's serial algorithm.
double run_cu(std::span<const double> data) {
  constexpr std::size_t kLibraryTile = 2048;
  const std::size_t tiles = (data.size() + kLibraryTile - 1) / kLibraryTile;
  std::vector<double> partials(tiles == 0 ? 1 : tiles, 0.0);
  for (std::size_t t = 0; t < partials.size(); ++t) {
    const std::size_t begin = t * kLibraryTile;
    const std::size_t len = std::min(kLibraryTile, data.size() - begin);
    partials[t] =
        fp::reduce(fp::AlgorithmId::kSerial, data.subspan(begin, len));
  }
  return tree_sum(partials);
}

}  // namespace

std::size_t default_grid_blocks(std::size_t n, std::size_t nt) noexcept {
  if (nt == 0) return 1;
  const std::size_t blocks = (n + nt - 1) / nt;
  return blocks == 0 ? 1 : blocks;
}

GpuSumResult gpu_sum(sim::SimDevice& device, std::span<const double> data,
                     sim::SumMethod method, const core::EvalContext& ctx,
                     std::size_t nt, std::size_t nb) {
  if (nt == 0) throw std::invalid_argument("gpu_sum: nt == 0");
  if (ctx.run == nullptr) {
    throw std::invalid_argument(
        "gpu_sum: EvalContext.run must be set (supplies the launch's "
        "scheduling entropy)");
  }
  if (nb == 0) nb = default_grid_blocks(data.size(), nt);

  GpuSumResult result;
  result.method = method;
  result.nt = nt;
  result.nb = nb;
  result.modeled_time_us =
      sim::estimated_sum_time_us(device.profile(), method, data.size(), nt, nb);

  switch (method) {
    case SumMethod::kAO:
      result.value = run_ao(device, data, ctx);
      break;
    case SumMethod::kSPA:
      result.value = run_spa(device, data, ctx, nt, nb);
      break;
    case SumMethod::kSPTR:
      result.value =
          run_single_pass_deterministic(device, data, ctx, nt, nb, true);
      break;
    case SumMethod::kSPRG:
      result.value =
          run_single_pass_deterministic(device, data, ctx, nt, nb, false);
      break;
    case SumMethod::kTPRC:
      result.value = run_tprc(device, data, ctx, nt, nb);
      break;
    case SumMethod::kCU:
      result.value = run_cu(data);
      break;
  }
  return result;
}

GpuSumResult gpu_sum(sim::SimDevice& device, std::span<const double> data,
                     sim::SumMethod method, core::RunContext& ctx,
                     std::size_t nt, std::size_t nb) {
  return gpu_sum(device, data, method,
                 core::EvalContext::nondeterministic_on(ctx), nt, nb);
}

GpuSumResult gpu_sum_sptr_missing_fence(sim::SimDevice& device,
                                        std::span<const double> data,
                                        core::RunContext& ctx, std::size_t nt,
                                        std::size_t nb) {
  if (nt == 0) {
    throw std::invalid_argument("gpu_sum_sptr_missing_fence: nt == 0");
  }
  if (nb == 0) nb = default_grid_blocks(data.size(), nt);

  auto rng = ctx.fork(0xBAD);
  std::vector<double> partials(nb, 0.0);
  // Without __threadfence, a block's global write may still sit in its
  // SM's store queue when the "last" block (by a racy unfenced counter
  // read) starts the tail: model the race by having each block observe
  // only partials from blocks that committed before it.
  std::vector<bool> visible(nb, false);
  double result = 0.0;

  // The racy reader is whichever block a contention-order draw puts last.
  auto order_rng = ctx.fork(0xBAD2);
  const auto order = device.scheduler().commit_order(
      nb, sim::SchedulerPolicy::kContentionMixture, order_rng);
  const std::size_t reader = order.back();

  const sim::LaunchConfig config{nb, nt, nt};
  device.launch(config, rng, [&](sim::BlockCtx& block) {
    const std::size_t b = block.block_id();
    partials[b] = block_partial_sum(data, b, nt, nb);
    // NOTE: no block.threadfence() here - that is the injected bug. The
    // write becomes visible only one commit slot later.
    if (b != reader) {
      visible[b] = block.commit_position() + 2 < nb;
      return;
    }
    double acc = 0.0;
    for (std::size_t i = 0; i < nb; ++i) {
      acc += (visible[i] || i == b) ? partials[i] : 0.0;  // stale read
    }
    result = acc;
  });

  GpuSumResult out;
  out.method = sim::SumMethod::kSPTR;
  out.nt = nt;
  out.nb = nb;
  out.value = result;
  out.modeled_time_us = sim::estimated_sum_time_us(
      device.profile(), sim::SumMethod::kSPTR, data.size(), nt, nb);
  return out;
}

}  // namespace fpna::reduce
