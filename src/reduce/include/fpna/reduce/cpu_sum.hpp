#pragma once
// CPU parallel reductions (paper SIII.B): the OpenMP-style "normal" (non-
// deterministic) and "ordered" (deterministic) reductions of Listings 2-3,
// plus reproducible alternatives.
//
// The unified entry point is cpu_sum(data, EvalContext, num_threads): the
// context selects the reduction spec (registry algorithm + storage /
// accumulate dtypes - addends quantize to the storage dtype and each
// chunk's stream runs at the accumulate dtype), the combination order
// (deterministic index order vs a completion order drawn from the
// RunContext) and the execution substrate (simulated chunks vs real
// threads on ctx.pool). The historic entry points below are thin,
// bitwise-compatible wrappers over it.

#include <cstddef>
#include <span>

#include "fpna/core/eval_context.hpp"
#include "fpna/core/run_context.hpp"
#include "fpna/util/thread_pool.hpp"

namespace fpna::reduce {

/// Chunked reduction through the context's registry-selected accumulator:
/// one accumulator per static chunk, the partial states merged in
/// chunk-index order (deterministic) or in a completion order drawn
/// from ctx.run (when ctx.nondeterministic()); the first partial in that
/// order is the total, so one chunk gives fp::reduce's bits for the spec.
/// With ctx.pool set the chunks run on real threads; merge order stays
/// chunk-index (deterministic) unless the context opts into
/// non-determinism - by carrying a run identity or explicitly setting
/// deterministic_override = false - in which case the merge happens in
/// genuine OS completion order under a mutex. For exact-merge algorithms
/// (superaccumulator, binned) the result is bitwise independent of the
/// chunking and merge order. `num_threads` always fixes the chunk
/// boundaries (and therefore the bits for non-exact-merge accumulators),
/// whether or not a pool runs them.
double cpu_sum(std::span<const double> data, const core::EvalContext& ctx,
               std::size_t num_threads = 4);

/// Serial left-to-right sum (the reference the paper's Table 3 rows are
/// compared against).
double cpu_sum_serial(std::span<const double> data) noexcept;

/// OpenMP `parallel for ordered reduction(+:sum)` equivalent (Listing 2):
/// the ordered construct forces the adds to retire in iteration order, so
/// the value equals the serial sum regardless of thread count. Computed
/// here by its defining property (deterministic by construction).
double cpu_sum_ordered(std::span<const double> data,
                       std::size_t num_threads = 4) noexcept;

/// OpenMP "normal" reduction equivalent (Listing 2 without `ordered`):
/// static chunks are summed privately, then combined in *completion
/// order*, which the OpenMP specification leaves unspecified. The
/// completion order is drawn from `ctx`.
double cpu_sum_unordered(std::span<const double> data, core::RunContext& ctx,
                         std::size_t num_threads = 4);

/// Same algorithm executed with real threads on `pool`: each worker sums
/// a static chunk and merges into the shared accumulator under a mutex in
/// whatever order the OS schedules - genuine non-determinism where the
/// host has parallelism. Used for wall-clock benches.
double cpu_sum_threads(std::span<const double> data, util::ThreadPool& pool);

/// Deterministic chunked reduction: static chunks, partials combined in
/// chunk-index order (what a deterministic tree reduction runtime does).
/// Parallel-friendly and order-fixed, but its value differs from the
/// serial sum (different association).
double cpu_sum_chunked_deterministic(std::span<const double> data,
                                     std::size_t num_threads = 4) noexcept;

/// Reproducible sum via the superaccumulator: bitwise identical for any
/// permutation of the input and any chunking/thread count.
double cpu_sum_reproducible(std::span<const double> data,
                            std::size_t num_threads = 4);

}  // namespace fpna::reduce
