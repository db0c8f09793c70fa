#pragma once
// Dense FP32 linear algebra for the GNN stack. Deterministic by
// construction: fixed loop orders and accumulation in float (matching the
// FP32 arithmetic of the framework kernels the paper studies). Shapes are
// [rows, cols] rank-2 tensors.
//
// Every kernel takes a core::EvalContext (defaulted, so historic call
// sites keep compiling):
//
//   * ctx.pool        - row-blocked pool-parallel execution. The chunk
//                       boundaries derive from the output size alone and
//                       every output element is produced by exactly one
//                       task running the same inner loop as the serial
//                       path, so the pooled result is bitwise identical
//                       to serial *by construction* - for every registry
//                       accumulator and every thread count (certified in
//                       dl_test).
//   * ctx.accumulator - the fp::ReductionSpec each inner dot-product /
//                       column reduction streams through. The algorithm
//                       axis picks the registry accumulator; the
//                       *storage* dtype quantizes the operands (bf16 x
//                       bf16 products are exact in binary32, the
//                       tensor-core MAC semantics) and the *accumulate*
//                       dtype is where the per-element stream runs. The
//                       default (native serial) reproduces the seed
//                       loops bit for bit, and pooled execution stays
//                       bitwise identical to serial for every dtype
//                       combination (certified in dl_test).
//
// The one deliberate exception is matmul_split_k, which re-associates the
// inner dimension to extend the paper's Table 1 permuted-sum story to the
// dense kernels.

#include <span>

#include "fpna/core/eval_context.hpp"
#include "fpna/tensor/tensor.hpp"

namespace fpna::dl {

using Matrix = tensor::Tensor<float>;

/// C = A[m,k] * B[k,n].
Matrix matmul(const Matrix& a, const Matrix& b,
              const core::EvalContext& ctx = {});

/// out[j] = dot(x, W[:, j]) for j in [0, W.cols): one row of matmul(x, W),
/// overwriting `out` - the serving path's per-request kernel. It runs
/// matmul's own row fold (same ascending-p stream, same quantized-x == 0
/// sparsity skip), quantizing both operands per product instead of
/// copying the weight, so the row is bitwise matmul's row for every
/// spec. Composition (bias +=, the float add() between SageConv's self
/// and neighbour branches) is the caller's job.
void linear_row(std::span<const float> x, const Matrix& weight,
                std::span<float> out, const core::EvalContext& ctx = {});

/// C = A^T[m,k] * B[m,n] -> [k,n] (used for weight gradients).
Matrix matmul_transpose_a(const Matrix& a, const Matrix& b,
                          const core::EvalContext& ctx = {});

/// C = A[m,k] * B^T[n,k] -> [m,n] (used for input gradients).
Matrix matmul_transpose_b(const Matrix& a, const Matrix& b,
                          const core::EvalContext& ctx = {});

/// Deliberately non-deterministic k-split matmul: the inner dimension is
/// partitioned into `splits` contiguous chunks, each chunk's partial dot
/// products are computed (and rounded to float) independently, and the
/// partials then combine per element with plain float adds in an order
/// drawn from ctx.run - the dense-kernel analogue of the paper's Table 1
/// permuted sums. A deterministic context combines in chunk order, so the
/// result is a pure function of (A, B, splits); with ctx.run set (and
/// determinism off) every run re-associates the dot products and the low
/// bits move for ill-conditioned inputs. splits == 1 is bitwise identical
/// to matmul.
Matrix matmul_split_k(const Matrix& a, const Matrix& b, std::size_t splits,
                      const core::EvalContext& ctx = {});

/// C = A + B (shape-checked).
Matrix add(const Matrix& a, const Matrix& b,
           const core::EvalContext& ctx = {});

/// Adds row vector `bias` [1,n] or [n] to every row of `a` in place.
void add_bias_rows(Matrix& a, const Matrix& bias,
                   const core::EvalContext& ctx = {});

/// Column sums -> [n] (bias gradient). Each column folds its rows in
/// ascending order through the context accumulator.
Matrix column_sums(const Matrix& a, const core::EvalContext& ctx = {});

/// Gathers rows: out[i, :] = x[indices[i], :]. Deterministic.
Matrix gather_rows(const Matrix& x, const std::vector<std::int64_t>& indices,
                   const core::EvalContext& ctx = {});

}  // namespace fpna::dl
