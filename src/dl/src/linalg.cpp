#include "fpna/dl/linalg.hpp"

#include <algorithm>
#include <numeric>
#include <optional>
#include <stdexcept>
#include <span>
#include <vector>

#include "fpna/fp/fold.hpp"
#include "fpna/obs/recorder.hpp"
#include "fpna/util/permutation.hpp"
#include "fpna/util/thread_pool.hpp"
#include "parallel_blocks.hpp"

namespace fpna::dl {

using detail::for_each_row_block;

namespace {

/// Fingerprint of rows [r0, r1) of a row-major matrix (read-only).
std::uint64_t row_range_bits(const Matrix& m, std::int64_t r0,
                             std::int64_t r1) {
  const std::int64_t n = m.size(1);
  obs::Fingerprint print;
  for (std::int64_t i = r0 * n; i < r1 * n; ++i) print.feed(m.flat(i));
  return print.value();
}

/// Execution-invariant row-block provenance: block boundaries come from
/// the same size-derived rule the pool dispatch uses, but are recomputed
/// here and fingerprinted from the *calling* thread in block order - so
/// serial, 2-thread and 8-thread runs of a deterministic kernel emit
/// byte-identical records (the thread-invariance obs_test relies on it).
void emit_row_block_provenance(obs::Recorder* recorder, const char* site,
                               const Matrix& c, std::int64_t work_per_row,
                               const std::string& spec) {
  if (recorder == nullptr) return;
  const std::int64_t rows = c.size(0);
  const auto ranges = core::even_chunks(
      static_cast<std::size_t>(rows),
      detail::size_derived_chunks(rows, work_per_row));
  for (std::size_t blk = 0; blk < ranges.size(); ++blk) {
    const auto [lo, hi] = ranges[blk];
    recorder->provenance(
        {site, "row_block", static_cast<std::int64_t>(blk), -1, spec,
         row_range_bits(c, static_cast<std::int64_t>(lo),
                        static_cast<std::int64_t>(hi)),
         static_cast<std::uint64_t>((hi - lo) * c.size(1))});
  }
}

void require_rank2(const Matrix& m, const char* name) {
  if (m.dim() != 2) {
    throw std::invalid_argument(std::string(name) + ": expected rank-2");
  }
}

/// The dense kernels' dtype discipline (tensor-core semantics): the
/// spec's *storage* dtype quantizes the operands - a bf16 x bf16 product
/// is exact in binary32, so the float multiply in the folds models the
/// MAC units exactly - and the *accumulate* dtype is where each output
/// element's contribution stream runs.
///
/// Storage-quantized view of an operand: the operand itself unless the
/// storage dtype quantizes a float kernel, else a quantized copy made
/// once per kernel call, so the folds never re-quantize an element they
/// re-read (matmul reads every b element m times).
const Matrix& quantized_operand(const fp::ReductionSpec& spec,
                                const Matrix& m,
                                std::optional<Matrix>& store) {
  if (spec.storage != fp::Dtype::kBf16) return m;
  store.emplace(m);
  fp::round_to<float>(fp::Dtype::kBf16, store->vec());
  return *store;
}

/// The fold table of the kernels that quantize their operands up front
/// (quantized_operand): the storage axis is spent, so they fold with the
/// identity quantizer.
const fp::Fold<float>& operand_fold(fp::ReductionSpec spec) {
  spec.storage = fp::Dtype::kNative;
  return fp::Fold<float>::of(spec);
}

/// matmul restricted to inner indices [k_begin, k_end) of already
/// storage-quantized operands: the building block of both matmul (full
/// range) and matmul_split_k (one chunk per call). Row-blocked over the
/// output; each row is one fold_row. Under the native serial spec this
/// is the classic in-place `c += a * b` chain, bit for bit.
void matmul_k_range(Matrix& c, const Matrix& qa, const Matrix& qb,
                    std::int64_t k_begin, std::int64_t k_end,
                    const core::EvalContext& ctx) {
  const std::int64_t m = qa.size(0), k = qa.size(1), n = qb.size(1);
  const std::span<const float> a = qa.data(), b = qb.data();
  const std::span<float> out = c.data();
  const fp::Fold<float>& fold = operand_fold(ctx.reduction_in_effect());
  for_each_row_block(ctx, m, (k_end - k_begin) * n,
                     [&](std::int64_t r0, std::int64_t r1) {
    for (std::int64_t i = r0; i < r1; ++i) {
      fold.fold_row(a, i * k, 1, b, k_begin, k_end,
                    out.subspan(static_cast<std::size_t>(i * n),
                                static_cast<std::size_t>(n)));
    }
  }, "dl.matmul.block");
}

}  // namespace

Matrix matmul(const Matrix& a, const Matrix& b, const core::EvalContext& ctx) {
  require_rank2(a, "matmul(a)");
  require_rank2(b, "matmul(b)");
  const std::int64_t m = a.size(0), k = a.size(1), n = b.size(1);
  if (b.size(0) != k) throw std::invalid_argument("matmul: inner mismatch");

  Matrix c(tensor::Shape{m, n}, 0.0f);
  {
    obs::Span span(ctx.recorder, "dl.matmul");
    span.arg("m", m);
    span.arg("k", k);
    span.arg("n", n);
    if (ctx.recorder != nullptr) {
      span.arg("spec", fp::to_string(ctx.reduction_in_effect()));
      ctx.recorder->metrics().counter("dl.matmul.calls").increment();
      ctx.recorder->metrics()
          .counter("dl.matmul.flops")
          .add(static_cast<std::uint64_t>(2 * m * k * n));
    }
    std::optional<Matrix> qa_store, qb_store;
    const fp::ReductionSpec spec = ctx.reduction_in_effect();
    matmul_k_range(c, quantized_operand(spec, a, qa_store),
                   quantized_operand(spec, b, qb_store), 0, k, ctx);
  }
  if (ctx.recorder != nullptr) {
    const std::string spec = fp::to_string(ctx.reduction_in_effect());
    emit_row_block_provenance(ctx.recorder, "dl.matmul", c, k * n, spec);
    ctx.recorder->provenance({"dl.matmul", "result", -1, -1, spec,
                              row_range_bits(c, 0, m),
                              static_cast<std::uint64_t>(c.numel())});
  }
  return c;
}

Matrix matmul_transpose_a(const Matrix& a, const Matrix& b,
                          const core::EvalContext& ctx) {
  require_rank2(a, "matmul_transpose_a(a)");
  require_rank2(b, "matmul_transpose_a(b)");
  const std::int64_t m = a.size(0), k = a.size(1), n = b.size(1);
  if (b.size(0) != m) {
    throw std::invalid_argument("matmul_transpose_a: outer mismatch");
  }
  // Row-blocked over the *output* rows (the k dimension of A): output
  // row p is fold_row over column p of A (stride k) against the rows of
  // B - per element the ascending-i stream of the i-p-j loop, wholly
  // owned by one task.
  Matrix c(tensor::Shape{k, n}, 0.0f);
  const fp::ReductionSpec spec = ctx.reduction_in_effect();
  std::optional<Matrix> qa_store, qb_store;
  const std::span<const float> qa = quantized_operand(spec, a, qa_store).data();
  const std::span<const float> qb = quantized_operand(spec, b, qb_store).data();
  const std::span<float> out = c.data();
  const fp::Fold<float>& fold = operand_fold(spec);
  for_each_row_block(ctx, k, m * n, [&](std::int64_t p0, std::int64_t p1) {
    for (std::int64_t p = p0; p < p1; ++p) {
      fold.fold_row(qa, p, k, qb, 0, m,
                    out.subspan(static_cast<std::size_t>(p * n),
                                static_cast<std::size_t>(n)));
    }
  }, "dl.matmul_transpose_a.block");
  return c;
}

Matrix matmul_transpose_b(const Matrix& a, const Matrix& b,
                          const core::EvalContext& ctx) {
  require_rank2(a, "matmul_transpose_b(a)");
  require_rank2(b, "matmul_transpose_b(b)");
  const std::int64_t m = a.size(0), k = a.size(1), n = b.size(0);
  if (b.size(1) != k) {
    throw std::invalid_argument("matmul_transpose_b: inner mismatch");
  }
  // A dot product per element, p ascending, with no sparsity skip.
  Matrix c(tensor::Shape{m, n}, 0.0f);
  const fp::ReductionSpec spec = ctx.reduction_in_effect();
  std::optional<Matrix> qa_store, qb_store;
  const std::span<const float> qa = quantized_operand(spec, a, qa_store).data();
  const std::span<const float> qb = quantized_operand(spec, b, qb_store).data();
  const std::span<float> out = c.data();
  const fp::Fold<float>& fold = operand_fold(spec);
  for_each_row_block(ctx, m, k * n, [&](std::int64_t r0, std::int64_t r1) {
    for (std::int64_t i = r0; i < r1; ++i) {
      fold.dot_row(qa.data() + i * k, qb.data(), k,
                   out.subspan(static_cast<std::size_t>(i * n),
                               static_cast<std::size_t>(n)));
    }
  }, "dl.matmul_transpose_b.block");
  return c;
}

Matrix matmul_split_k(const Matrix& a, const Matrix& b, std::size_t splits,
                      const core::EvalContext& ctx) {
  require_rank2(a, "matmul_split_k(a)");
  require_rank2(b, "matmul_split_k(b)");
  const std::int64_t m = a.size(0), k = a.size(1), n = b.size(1);
  if (b.size(0) != k) {
    throw std::invalid_argument("matmul_split_k: inner mismatch");
  }
  if (splits == 0) {
    throw std::invalid_argument("matmul_split_k: splits == 0");
  }
  const auto s = static_cast<std::int64_t>(
      std::min<std::size_t>(splits, static_cast<std::size_t>(
                                        std::max<std::int64_t>(1, k))));

  // Quantize the operands once for all the chunks.
  const fp::ReductionSpec spec = ctx.reduction_in_effect();
  std::optional<Matrix> qa_store, qb_store;
  const Matrix& qa = quantized_operand(spec, a, qa_store);
  const Matrix& qb = quantized_operand(spec, b, qb_store);

  obs::Span span(ctx.recorder, "dl.matmul_split_k");
  span.arg("m", m);
  span.arg("k", k);
  span.arg("n", n);
  span.arg("splits", static_cast<std::int64_t>(s));
  const std::string spec_str =
      ctx.recorder != nullptr ? fp::to_string(spec) : std::string();

  // Per-chunk partials: contiguous near-even k ranges, each computed with
  // the deterministic kernel (pool and accumulator per ctx). Partials are
  // deterministic even on the non-deterministic path - only the combine
  // order below draws entropy - so their provenance records pin the
  // divergence search onto the combine steps.
  std::vector<Matrix> partials;
  partials.reserve(static_cast<std::size_t>(s));
  const std::int64_t base = k / s, rem = k % s;
  std::int64_t k_begin = 0;
  for (std::int64_t t = 0; t < s; ++t) {
    const std::int64_t k_end = k_begin + base + (t < rem ? 1 : 0);
    partials.emplace_back(tensor::Shape{m, n}, 0.0f);
    matmul_k_range(partials.back(), qa, qb, k_begin, k_end, ctx);
    if (ctx.recorder != nullptr) {
      ctx.recorder->provenance(
          {"dl.matmul_split_k", "partial", t, -1, spec_str,
           row_range_bits(partials.back(), 0, m),
           static_cast<std::uint64_t>(partials.back().numel())});
    }
    k_begin = k_end;
  }

  // Combine order: chunk order on the deterministic path, a fresh draw
  // from the run's entropy otherwise. One order per *call* - every
  // element re-associates the same way, as a k-split GEMM's fixed (but
  // schedule-dependent) reduction tree would.
  std::vector<std::size_t> order(static_cast<std::size_t>(s));
  std::iota(order.begin(), order.end(), std::size_t{0});
  if (ctx.nondeterministic()) {
    order = util::random_permutation(order.size(), ctx.run->rng());
  }

  // The first partial is copied (so splits == 1 is bitwise matmul); the
  // rest fold in with plain float adds - the re-association under study.
  Matrix c = partials[order[0]];
  const std::span<float> sum = c.data();
  if (ctx.recorder == nullptr) {
    for_each_row_block(ctx, m, (s - 1) * n, [&](std::int64_t r0,
                                                std::int64_t r1) {
      for (std::size_t t = 1; t < order.size(); ++t) {
        const std::span<const float> part = partials[order[t]].data();
        for (auto i = static_cast<std::size_t>(r0 * n);
             i < static_cast<std::size_t>(r1 * n); ++i) {
          sum[i] += part[i];
        }
      }
    });
    return c;
  }

  // Traced combine: one row-blocked pass per partial instead of one
  // fused pass, which exposes the running sum after every fold for a
  // per-step fingerprint. Bitwise identical to the fused loop - each
  // element still folds the partials in exactly order[1..s-1] sequence;
  // only the loop nest (and the number of pool barriers) changes. This
  // is the record the first-divergence localizer keys on: two runs with
  // different combine orders share every "partial" record and split at
  // combine step 0.
  ctx.recorder->provenance({"dl.matmul_split_k", "combine_step", 0,
                            static_cast<std::int64_t>(order[0]), spec_str,
                            row_range_bits(c, 0, m),
                            static_cast<std::uint64_t>(c.numel())});
  for (std::size_t t = 1; t < order.size(); ++t) {
    const std::span<const float> part = partials[order[t]].data();
    for_each_row_block(ctx, m, n, [&](std::int64_t r0, std::int64_t r1) {
      for (auto i = static_cast<std::size_t>(r0 * n);
           i < static_cast<std::size_t>(r1 * n); ++i) {
        sum[i] += part[i];
      }
    }, "dl.matmul_split_k.combine");
    ctx.recorder->provenance({"dl.matmul_split_k", "combine_step",
                              static_cast<std::int64_t>(t),
                              static_cast<std::int64_t>(order[t]), spec_str,
                              row_range_bits(c, 0, m),
                              static_cast<std::uint64_t>(c.numel())});
  }
  return c;
}

Matrix add(const Matrix& a, const Matrix& b, const core::EvalContext& ctx) {
  if (!a.same_shape(b)) throw std::invalid_argument("add: shape mismatch");
  Matrix c = a;
  const std::span<float> sum = c.data();
  const std::span<const float> addend = b.data();
  for_each_row_block(ctx, c.numel(), 1, [&](std::int64_t i0, std::int64_t i1) {
    for (auto i = static_cast<std::size_t>(i0);
         i < static_cast<std::size_t>(i1); ++i) {
      sum[i] += addend[i];
    }
  });
  return c;
}

void add_bias_rows(Matrix& a, const Matrix& bias,
                   const core::EvalContext& ctx) {
  require_rank2(a, "add_bias_rows(a)");
  const std::int64_t n = a.size(1);
  if (bias.numel() != n) {
    throw std::invalid_argument("add_bias_rows: bias length mismatch");
  }
  const std::span<float> rows = a.data();
  const std::span<const float> b = bias.data();
  for_each_row_block(ctx, a.size(0), n, [&](std::int64_t r0, std::int64_t r1) {
    for (std::int64_t i = r0; i < r1; ++i) {
      const std::span<float> row =
          rows.subspan(static_cast<std::size_t>(i * n), b.size());
      for (std::size_t j = 0; j < b.size(); ++j) row[j] += b[j];
    }
  });
}

Matrix column_sums(const Matrix& a, const core::EvalContext& ctx) {
  require_rank2(a, "column_sums");
  const std::int64_t m = a.size(0), n = a.size(1);
  Matrix out(tensor::Shape{n}, 0.0f);
  // Column-blocked: each column folds its rows in ascending order. A
  // plain reduction, so the storage dtype quantizes the addends (not
  // operand pairs as in the matmuls).
  const fp::ReductionSpec spec = ctx.reduction_in_effect();
  std::optional<Matrix> qa_store;
  const std::span<const float> qa = quantized_operand(spec, a, qa_store).data();
  const std::span<float> sums = out.data();
  const fp::Fold<float>& fold = operand_fold(spec);
  for_each_row_block(ctx, n, m, [&](std::int64_t j0, std::int64_t j1) {
    for (std::int64_t j = j0; j < j1; ++j) {
      sums[static_cast<std::size_t>(j)] = fold.sum_run(qa.data() + j, m, n);
    }
  });
  return out;
}

void linear_row(std::span<const float> x, const Matrix& weight,
                std::span<float> out, const core::EvalContext& ctx) {
  require_rank2(weight, "linear_row(weight)");
  const std::int64_t k = weight.size(0), n = weight.size(1);
  if (static_cast<std::int64_t>(x.size()) != k ||
      static_cast<std::int64_t>(out.size()) != n) {
    throw std::invalid_argument("linear_row: shape mismatch");
  }
  // matmul's fold for one row. The operands are quantized per MAC here
  // rather than copied: a copy of the weight per request would cost more
  // than the row.
  fp::Fold<float>::of(ctx.reduction_in_effect())
      .fold_row(x, 0, 1, weight.data(), 0, k, out);
}

Matrix gather_rows(const Matrix& x, const std::vector<std::int64_t>& indices,
                   const core::EvalContext& ctx) {
  require_rank2(x, "gather_rows");
  const std::int64_t cols = x.size(1);
  const std::int64_t rows = x.size(0);
  Matrix out(tensor::Shape{static_cast<std::int64_t>(indices.size()), cols},
             0.0f);
  const std::span<const float> src = x.data();
  const std::span<float> dst = out.data();
  for_each_row_block(
      ctx, static_cast<std::int64_t>(indices.size()), cols,
      [&](std::int64_t r0, std::int64_t r1) {
        for (std::int64_t i = r0; i < r1; ++i) {
          const std::int64_t r = indices[static_cast<std::size_t>(i)];
          if (r < 0 || r >= rows) {
            throw std::out_of_range("gather_rows: row index out of range");
          }
          std::copy_n(src.begin() + r * cols, cols, dst.begin() + i * cols);
        }
      });
  return out;
}

}  // namespace fpna::dl
