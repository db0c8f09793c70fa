#pragma once
// Building blocks shared by the simulated GPU reduction kernels: the
// deterministic per-block partial sums (grid-stride accumulation followed
// by the shared-memory halving tree of the paper's Listing 1) and the
// power-of-two tree over a partial array. The grid-stride accumulation of
// each thread routes through a registry-selected accumulator; the serial
// default reproduces Listing 1 bit for bit.

#include <cstddef>
#include <span>
#include <vector>

#include "fpna/fp/reduction_spec.hpp"

namespace fpna::reduce {

/// Shared-memory halving tree over `values`, zero-padded to the next power
/// of two: for offset = m/2 .. 1: v[i] += v[i + offset]. This is exactly
/// the association order of Listing 1's block reduction, and is a pure
/// function of the input order.
double tree_sum(std::span<const double> values);

/// The partial sum block `block_id` produces in the paper's kernels:
/// thread t accumulates the grid-stride elements
///   data[block_id*nt + t + k*nt*nb],  k = 0, 1, ...
/// through the spec's accumulator (in k order, addends quantized to the
/// spec's storage dtype, the stream running at its accumulate dtype),
/// then the block tree combines the nt rounded thread values in double.
/// Deterministic for fixed (data, nt, nb, spec); a bare AlgorithmId
/// converts to the native spec, which reproduces the historic bits.
double block_partial_sum(
    std::span<const double> data, std::size_t block_id, std::size_t nt,
    std::size_t nb,
    const fp::ReductionSpec& accumulator = fp::AlgorithmId::kSerial);

/// All nb block partials (convenience for the kernel implementations).
std::vector<double> all_block_partials(
    std::span<const double> data, std::size_t nt, std::size_t nb,
    const fp::ReductionSpec& accumulator = fp::AlgorithmId::kSerial);

}  // namespace fpna::reduce
