#include "fpna/dl/layers.hpp"

#include <algorithm>
#include <cmath>
#include <span>
#include <stdexcept>

#include "fpna/fp/fold.hpp"
#include "fpna/tensor/indexed_ops.hpp"
#include "parallel_blocks.hpp"

namespace fpna::dl {

namespace {

/// Scales row r of m by factors[r]. Rows are independent, so the pooled
/// path is trivially bitwise identical to serial.
void scale_rows(Matrix& m, const std::vector<float>& factors,
                const core::EvalContext& ctx) {
  const std::int64_t cols = m.size(1);
  if (static_cast<std::int64_t>(factors.size()) != m.size(0)) {
    throw std::invalid_argument("scale_rows: shape mismatch");
  }
  const std::span<float> values = m.data();
  detail::for_each_row_block(
      ctx, m.size(0), cols, [&](std::int64_t r0, std::int64_t r1) {
        for (std::int64_t r = r0; r < r1; ++r) {
          const float f = factors[static_cast<std::size_t>(r)];
          for (float& v : values.subspan(static_cast<std::size_t>(r * cols),
                                         static_cast<std::size_t>(cols))) {
            v *= f;
          }
        }
      });
}

std::vector<float> inverse_degrees(const Graph& graph) {
  const auto degrees = graph.in_degrees();
  std::vector<float> inv(degrees.size(), 0.0f);
  for (std::size_t v = 0; v < degrees.size(); ++v) {
    inv[v] = degrees[v] > 0 ? 1.0f / static_cast<float>(degrees[v]) : 0.0f;
  }
  return inv;
}

tensor::Tensor<std::int64_t> to_index_tensor(
    const std::vector<std::int64_t>& values) {
  return tensor::Tensor<std::int64_t>::from_data(
      tensor::Shape{static_cast<std::int64_t>(values.size())},
      std::vector<std::int64_t>(values));
}

}  // namespace

Matrix mean_aggregate(const Matrix& x, const Graph& graph,
                      const tensor::OpContext& ctx) {
  if (x.size(0) != graph.num_nodes) {
    throw std::invalid_argument("mean_aggregate: feature row count != nodes");
  }
  const Matrix messages = gather_rows(
      x, graph.edge_src, ctx);  // deterministic gather of source features
  Matrix acc(tensor::Shape{graph.num_nodes, x.size(1)}, 0.0f);
  acc = tensor::index_add(acc, 0, to_index_tensor(graph.edge_dst), messages,
                          1.0f, ctx);
  scale_rows(acc, inverse_degrees(graph), ctx);
  return acc;
}

void mean_rows_into(const Matrix& table, std::span<const std::int64_t> ids,
                    std::span<float> out, const core::EvalContext& ctx) {
  if (table.dim() != 2) {
    throw std::invalid_argument("mean_rows_into: expected rank-2 table");
  }
  const std::int64_t cols = table.size(1);
  if (static_cast<std::int64_t>(out.size()) != cols) {
    throw std::invalid_argument("mean_rows_into: output width mismatch");
  }
  for (const std::int64_t id : ids) {
    if (id < 0 || id >= table.size(0)) {
      throw std::out_of_range("mean_rows_into: row id out of range");
    }
  }
  if (ids.empty()) {
    // Degree 0: index_add leaves the zero destination untouched and the
    // row scaling multiplies by the 0.0f sentinel factor.
    std::fill(out.begin(), out.end(), 0.0f);
    return;
  }
  const float inv_deg = 1.0f / static_cast<float>(ids.size());
  const std::span<const float> t = table.data();
  // index_add's fold, one stream per column: the zero destination (out,
  // zeroed) is the stream's first element - pairwise's block boundaries
  // depend on it - then the rows in list order.
  std::fill(out.begin(), out.end(), 0.0f);
  std::vector<const float*> runs{out.data()};
  for (const std::int64_t id : ids) runs.push_back(t.data() + id * cols);
  fp::Fold<float>::of(ctx.reduction_in_effect())
      .sum_each(runs, out.size(), out.data());
  for (float& v : out) v *= inv_deg;
}

Matrix mean_aggregate_backward(const Matrix& d_out, const Graph& graph,
                               const tensor::OpContext& ctx) {
  if (d_out.size(0) != graph.num_nodes) {
    throw std::invalid_argument(
        "mean_aggregate_backward: gradient row count != nodes");
  }
  Matrix scaled = d_out;
  scale_rows(scaled, inverse_degrees(graph), ctx);
  const Matrix messages = gather_rows(scaled, graph.edge_dst, ctx);
  Matrix d_x(tensor::Shape{graph.num_nodes, d_out.size(1)}, 0.0f);
  return tensor::index_add(d_x, 0, to_index_tensor(graph.edge_src), messages,
                           1.0f, ctx);
}

Linear::Linear(std::int64_t in_features, std::int64_t out_features,
               util::Xoshiro256pp& rng)
    : weight(tensor::Shape{in_features, out_features}, 0.0f),
      bias(tensor::Shape{out_features}, 0.0f),
      grad_weight(tensor::Shape{in_features, out_features}, 0.0f),
      grad_bias(tensor::Shape{out_features}, 0.0f) {
  // Glorot/Xavier uniform.
  const double bound =
      std::sqrt(6.0 / static_cast<double>(in_features + out_features));
  const util::UniformReal dist(-bound, bound);
  for (auto& w : weight.vec()) w = static_cast<float>(dist(rng));
}

Matrix Linear::forward(const Matrix& x, const core::EvalContext& ctx) const {
  Matrix y = matmul(x, weight, ctx);
  add_bias_rows(y, bias, ctx);
  return y;
}

Matrix Linear::backward(const Matrix& x, const Matrix& d_out,
                        const core::EvalContext& ctx,
                        const GradientSink& sink) {
  grad_weight = add(grad_weight, matmul_transpose_a(x, d_out, ctx), ctx);
  if (sink) sink(&grad_weight);
  grad_bias = add(grad_bias, column_sums(d_out, ctx), ctx);
  if (sink) sink(&grad_bias);
  return matmul_transpose_b(d_out, weight, ctx);
}

void Linear::zero_grad() {
  for (auto& g : grad_weight.vec()) g = 0.0f;
  for (auto& g : grad_bias.vec()) g = 0.0f;
}

SageConv::SageConv(std::int64_t in_features, std::int64_t out_features,
                   util::Xoshiro256pp& rng)
    : lin_self(in_features, out_features, rng),
      lin_neigh(in_features, out_features, rng) {}

Matrix SageConv::forward(const Matrix& x, const Graph& graph,
                         const tensor::OpContext& ctx, Cache* cache) const {
  Matrix h_neigh = mean_aggregate(x, graph, ctx);
  Matrix out = lin_self.forward(x, ctx);
  // lin_neigh's bias is folded into lin_self's (one bias per output unit,
  // like PyG's SAGEConv); apply only the matmul here.
  out = add(out, matmul(h_neigh, lin_neigh.weight, ctx), ctx);
  if (cache != nullptr) {
    cache->x = x;
    cache->h_neigh = std::move(h_neigh);
  }
  return out;
}

Matrix SageConv::backward(const Cache& cache, const Matrix& d_out,
                          const Graph& graph, const tensor::OpContext& ctx,
                          const GradientSink& sink) {
  // Self path.
  Matrix d_x = lin_self.backward(cache.x, d_out, ctx, sink);
  // Neighbour path: through the matmul, then back through aggregation.
  lin_neigh.grad_weight = add(
      lin_neigh.grad_weight, matmul_transpose_a(cache.h_neigh, d_out, ctx),
      ctx);
  if (sink) sink(&lin_neigh.grad_weight);
  const Matrix d_h_neigh = matmul_transpose_b(d_out, lin_neigh.weight, ctx);
  const Matrix d_x_agg = mean_aggregate_backward(d_h_neigh, graph, ctx);
  return add(d_x, d_x_agg, ctx);
}

void SageConv::zero_grad() {
  lin_self.zero_grad();
  lin_neigh.zero_grad();
}

void relu_row(std::span<float> row) {
  for (float& v : row) v = v > 0.0f ? v : 0.0f;
}

Matrix relu(const Matrix& x) {
  Matrix out = x;
  relu_row(out.data());
  return out;
}

Matrix relu_backward(const Matrix& z, const Matrix& d_out) {
  if (!z.same_shape(d_out)) {
    throw std::invalid_argument("relu_backward: shape mismatch");
  }
  Matrix d_z = d_out;
  const std::span<const float> pre = z.data();
  const std::span<float> grad = d_z.data();
  for (std::size_t i = 0; i < grad.size(); ++i) {
    if (pre[i] <= 0.0f) grad[i] = 0.0f;
  }
  return d_z;
}

void log_softmax_row(std::span<float> row) {
  if (row.empty()) {
    throw std::invalid_argument("log_softmax_row: empty row");
  }
  float row_max = row[0];
  for (std::size_t c = 1; c < row.size(); ++c) {
    row_max = std::max(row_max, row[c]);
  }
  float sum = 0.0f;
  for (const float v : row) sum += std::exp(v - row_max);
  const float log_z = row_max + std::log(sum);
  for (float& v : row) v -= log_z;
}

Matrix log_softmax_rows(const Matrix& logits) {
  if (logits.dim() != 2) {
    throw std::invalid_argument("log_softmax_rows: expected rank-2");
  }
  Matrix out = logits;
  const auto cols = static_cast<std::size_t>(logits.size(1));
  for (std::int64_t r = 0; r < logits.size(0); ++r) {
    log_softmax_row(
        out.data().subspan(static_cast<std::size_t>(r) * cols, cols));
  }
  return out;
}

LossResult nll_loss_masked(const Matrix& log_probs,
                           const std::vector<std::int64_t>& labels,
                           const std::vector<char>& mask,
                           const core::EvalContext& ctx, float grad_scale) {
  if (log_probs.dim() != 2) {
    throw std::invalid_argument("nll_loss_masked: expected rank-2");
  }
  const std::int64_t rows = log_probs.size(0);
  const std::int64_t cols = log_probs.size(1);
  if (static_cast<std::int64_t>(labels.size()) != rows ||
      static_cast<std::int64_t>(mask.size()) != rows) {
    throw std::invalid_argument("nll_loss_masked: label/mask size mismatch");
  }

  std::int64_t count = 0;
  for (const char m : mask) count += m;
  if (count == 0) throw std::invalid_argument("nll_loss_masked: empty mask");

  LossResult result;
  result.d_logits = Matrix(tensor::Shape{rows, cols}, 0.0f);
  const std::span<const float> lp = log_probs.data();
  const std::span<float> d_logits = result.d_logits.data();
  const float inv_count = 1.0f / static_cast<float>(count);

  // Gradient pass (accumulator-independent); the masked per-row loss
  // terms are gathered and folded through the registry afterwards, so the
  // rows*cols softmax loop monomorphises once, not per algorithm.
  std::vector<double> loss_terms;
  loss_terms.reserve(static_cast<std::size_t>(count));
  for (std::int64_t r = 0; r < rows; ++r) {
    if (!mask[static_cast<std::size_t>(r)]) continue;
    const std::int64_t y = labels[static_cast<std::size_t>(r)];
    if (y < 0 || y >= cols) {
      throw std::out_of_range("nll_loss_masked: label out of range");
    }
    const auto row = static_cast<std::size_t>(r * cols);
    loss_terms.push_back(
        -static_cast<double>(lp[row + static_cast<std::size_t>(y)]));
    // d(logits) of mean-NLL(log_softmax): (softmax - onehot) / count. The
    // loss scale multiplies last, as its own rounding: a power-of-two
    // grad_scale shifts the exponent without touching the mantissa, so
    // the scaled gradient is exactly 2^k times the unscaled one, and
    // grad_scale == 1 is a bitwise no-op on this line.
    for (std::int64_t c = 0; c < cols; ++c) {
      const auto at = row + static_cast<std::size_t>(c);
      const float softmax = std::exp(lp[at]);
      const float onehot = c == y ? 1.0f : 0.0f;
      d_logits[at] = ((softmax - onehot) * inv_count) * grad_scale;
    }
  }
  const double loss = fp::reduce(ctx.reduction_in_effect(),
                                 std::span<const double>(loss_terms));
  result.loss = loss / static_cast<double>(count);
  return result;
}

LossResult nll_loss_masked(const Matrix& log_probs,
                           const std::vector<std::int64_t>& labels,
                           const std::vector<char>& mask) {
  return nll_loss_masked(log_probs, labels, mask, core::EvalContext{});
}

std::vector<std::int64_t> argmax_rows(const Matrix& scores) {
  if (scores.dim() != 2) {
    throw std::invalid_argument("argmax_rows: expected rank-2");
  }
  const auto cols = static_cast<std::size_t>(scores.size(1));
  std::vector<std::int64_t> out(static_cast<std::size_t>(scores.size(0)), 0);
  for (std::size_t r = 0; r < out.size(); ++r) {
    const std::span<const float> row = scores.data().subspan(r * cols, cols);
    std::size_t best = 0;
    for (std::size_t c = 1; c < cols; ++c) {
      if (row[c] > row[best]) best = c;
    }
    out[r] = static_cast<std::int64_t>(best);
  }
  return out;
}

}  // namespace fpna::dl
