#include "decomposed.hpp"

#include <utility>

#include "fpna/core/chunking.hpp"
#include "fpna/tensor/indexed_ops.hpp"
#include "fpna/util/thread_pool.hpp"

namespace perfbench {

using fpna::core::EvalContext;
using fpna::dl::Matrix;
using fpna::tensor::Shape;

namespace {

/// Nominal flops of x[rows, in] * W[in, out].
double matmul_flops(std::int64_t rows, std::int64_t in, std::int64_t out) {
  return 2.0 * double(rows) * double(in) * double(out);
}

const char* index_add_span(const EvalContext& ctx) {
  return ctx.nondeterministic() ? "tensor.index_add.nd" : "tensor.index_add.d";
}

// The library's inverse_degrees, computed on every aggregation as it is.
std::vector<float> inverse_degrees(const fpna::dl::Graph& graph) {
  const auto degrees = graph.in_degrees();
  std::vector<float> inv(degrees.size(), 0.0f);
  for (std::size_t v = 0; v < degrees.size(); ++v) {
    inv[v] = degrees[v] > 0 ? 1.0f / static_cast<float>(degrees[v]) : 0.0f;
  }
  return inv;
}

// The library's scale_rows: row r times factors[r], row-blocked on the
// context's pool with the chunk count derived from the shape. Rows are
// independent, so the bits do not depend on the blocking.
void scale_rows(Matrix& m, const std::vector<float>& factors,
                const EvalContext& ctx) {
  const std::int64_t cols = m.size(1);
  float* data = m.data().data();
  const auto body = [&](std::size_t r0, std::size_t r1, std::size_t) {
    for (std::size_t r = r0; r < r1; ++r) {
      const float f = factors[r];
      for (std::int64_t c = 0; c < cols; ++c) {
        data[static_cast<std::int64_t>(r) * cols + c] *= f;
      }
    }
  };
  const auto rows = static_cast<std::size_t>(m.size(0));
  if (ctx.pool == nullptr || ctx.pool->size() <= 1 || rows <= 1) {
    body(0, rows, 0);
    return;
  }
  ctx.pool->parallel_for(
      rows, body,
      fpna::core::size_derived_parts(rows, static_cast<std::size_t>(cols)));
}

// dl::mean_aggregate.
Matrix aggregate(const Matrix& x, const fpna::dl::Graph& graph,
                 const EvalContext& ctx, Tracer* tracer) {
  Tracer::Scope span(tracer, "dl.aggregate");
  const Matrix messages = fpna::dl::gather_rows(x, graph.edge_src, ctx);
  Matrix acc(Shape{graph.num_nodes, x.size(1)}, 0.0f);
  const auto dst_index = index_tensor(graph.edge_dst);
  {
    Tracer::Scope add(tracer, index_add_span(ctx), double(messages.numel()));
    acc = fpna::tensor::index_add(acc, 0, dst_index, messages, 1.0f, ctx);
  }
  scale_rows(acc, inverse_degrees(graph), ctx);
  return acc;
}

// dl::mean_aggregate_backward.
Matrix aggregate_backward(const Matrix& d_out, const fpna::dl::Graph& graph,
                          const EvalContext& ctx, Tracer* tracer) {
  Tracer::Scope span(tracer, "dl.aggregate_backward");
  Matrix scaled = d_out;
  scale_rows(scaled, inverse_degrees(graph), ctx);
  const Matrix messages = fpna::dl::gather_rows(scaled, graph.edge_dst, ctx);
  Matrix d_x(Shape{graph.num_nodes, d_out.size(1)}, 0.0f);
  const auto src_index = index_tensor(graph.edge_src);
  Tracer::Scope add(tracer, index_add_span(ctx), double(messages.numel()));
  return fpna::tensor::index_add(d_x, 0, src_index, messages, 1.0f, ctx);
}

// SageConv::forward.
Matrix conv_forward(const fpna::dl::SageConv& conv, const Matrix& x,
                    const fpna::dl::Graph& graph, const EvalContext& ctx,
                    Tracer* tracer, fpna::dl::SageConv::Cache* cache) {
  Matrix h_neigh = aggregate(x, graph, ctx, tracer);
  const double flops =
      matmul_flops(x.size(0), conv.in_features(), conv.out_features());
  Matrix out;
  {
    Tracer::Scope span(tracer, "dl.linear.forward", flops);
    out = conv.lin_self.forward(x, ctx);
  }
  Matrix neigh;
  {
    Tracer::Scope span(tracer, "dl.matmul", flops);
    neigh = fpna::dl::matmul(h_neigh, conv.lin_neigh.weight, ctx);
  }
  out = fpna::dl::add(out, neigh, ctx);
  if (cache != nullptr) {
    cache->x = x;
    cache->h_neigh = std::move(h_neigh);
  }
  return out;
}

// SageConv::backward.
Matrix conv_backward(fpna::dl::SageConv& conv,
                     const fpna::dl::SageConv::Cache& cache,
                     const Matrix& d_out, const fpna::dl::Graph& graph,
                     const EvalContext& ctx, Tracer* tracer,
                     const fpna::dl::GradientSink& sink) {
  const double flops = matmul_flops(cache.x.size(0), conv.in_features(),
                                    conv.out_features());
  Matrix d_x;
  {
    Tracer::Scope span(tracer, "dl.linear.backward", 2.0 * flops);
    d_x = conv.lin_self.backward(cache.x, d_out, ctx, sink);
  }
  Matrix d_h_neigh;
  {
    Tracer::Scope span(tracer, "dl.matmul", 2.0 * flops);
    conv.lin_neigh.grad_weight = fpna::dl::add(
        conv.lin_neigh.grad_weight,
        fpna::dl::matmul_transpose_a(cache.h_neigh, d_out, ctx), ctx);
    if (sink) sink(&conv.lin_neigh.grad_weight);
    d_h_neigh = fpna::dl::matmul_transpose_b(d_out, conv.lin_neigh.weight, ctx);
  }
  const Matrix d_x_agg = aggregate_backward(d_h_neigh, graph, ctx, tracer);
  return fpna::dl::add(d_x, d_x_agg, ctx);
}

}  // namespace

fpna::tensor::Tensor<std::int64_t> index_tensor(
    const std::vector<std::int64_t>& values) {
  return fpna::tensor::Tensor<std::int64_t>::from_data(
      Shape{static_cast<std::int64_t>(values.size())}, values);
}

Matrix traced_forward(const fpna::dl::GraphSageModel& model,
                      const Matrix& features, const fpna::dl::Graph& graph,
                      const EvalContext& ctx, Tracer* tracer,
                      fpna::dl::GraphSageModel::ForwardCache* cache) {
  fpna::dl::SageConv::Cache c1;
  Matrix z1 = conv_forward(model.conv1, features, graph, ctx, tracer, &c1);
  Matrix a1 = fpna::dl::relu(z1);
  fpna::dl::SageConv::Cache c2;
  Matrix logits = conv_forward(model.conv2, a1, graph, ctx, tracer, &c2);
  Matrix log_probs;
  {
    Tracer::Scope span(tracer, "dl.log_softmax");
    log_probs = fpna::dl::log_softmax_rows(logits);
  }
  if (cache != nullptr) {
    cache->conv1 = std::move(c1);
    cache->z1 = std::move(z1);
    cache->a1 = std::move(a1);
    cache->conv2 = std::move(c2);
    cache->logits = std::move(logits);
  }
  return log_probs;
}

void traced_backward(fpna::dl::GraphSageModel& model,
                     const fpna::dl::GraphSageModel::ForwardCache& cache,
                     const Matrix& d_logits, const fpna::dl::Graph& graph,
                     const EvalContext& ctx, Tracer* tracer,
                     const fpna::dl::GradientSink& sink) {
  const Matrix d_a1 = conv_backward(model.conv2, cache.conv2, d_logits, graph,
                                    ctx, tracer, sink);
  const Matrix d_z1 = fpna::dl::relu_backward(cache.z1, d_a1);
  conv_backward(model.conv1, cache.conv1, d_z1, graph, ctx, tracer, sink);
}

}  // namespace perfbench
