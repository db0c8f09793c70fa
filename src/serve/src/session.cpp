#include "fpna/serve/session.hpp"

#include <stdexcept>
#include <string>

#include "fpna/dl/layers.hpp"
#include "fpna/dl/linalg.hpp"
#include "fpna/obs/recorder.hpp"
#include "fpna/util/thread_pool.hpp"

namespace fpna::serve {

namespace {

std::uint64_t row_bits(std::span<const float> values) {
  obs::Fingerprint print;
  print.feed(values);
  return print.value();
}

/// z[j] += v[j], j ascending.
void add_into(std::span<float> z, std::span<const float> v) {
  if (v.size() != z.size()) {
    throw std::invalid_argument("row_forward: width mismatch");
  }
  for (std::size_t j = 0; j < z.size(); ++j) z[j] += v[j];
}

}  // namespace

InferenceSession::InferenceSession(const dl::GraphSageModel& model,
                                   const dl::Dataset& dataset,
                                   const core::EvalContext& ctx)
    : model_(model), features_(dataset.features) {
  if (features_.size(0) != dataset.graph.num_nodes) {
    throw std::invalid_argument(
        "InferenceSession: feature rows != deployed nodes");
  }
  // The cache rows are bitwise the offline forward's a1 because they ARE
  // the offline kernels' output (same code path, same spec, and pooled
  // execution is certified bitwise-identical to serial).
  h1_ = dl::relu(model_.conv1.forward(features_, dataset.graph, ctx));
}

std::vector<float> InferenceSession::row_forward(
    const Request& request, const core::EvalContext& ctx) const {
  const std::int64_t f = num_features(), h = hidden(), c = num_classes();
  if (static_cast<std::int64_t>(request.features.size()) != f) {
    throw std::invalid_argument("row_forward: feature width mismatch");
  }

  // Layer 1: z1 = x . W1_self + b1 + mean(neigh features) . W1_neigh.
  // Operation order mirrors SageConv::forward exactly: the self matmul's
  // fresh output, bias +=, then the neighbour matmul folded in with the
  // float add() - each add_into below is one row of those full-matrix ops.
  std::vector<float> neigh1(static_cast<std::size_t>(f));
  dl::mean_rows_into(features_, request.neighbors, neigh1, ctx);
  std::vector<float> z1(static_cast<std::size_t>(h));
  std::vector<float> tmp1(static_cast<std::size_t>(h));
  dl::linear_row(request.features, model_.conv1.lin_self.weight, z1, ctx);
  add_into(z1, model_.conv1.lin_self.bias.data());
  dl::linear_row(neigh1, model_.conv1.lin_neigh.weight, tmp1, ctx);
  add_into(z1, tmp1);
  dl::relu_row(z1);

  // Layer 2 over the layer-1 activations: the request's own a1 row is
  // the z1 just computed; the neighbours' come from the session cache.
  std::vector<float> neigh2(static_cast<std::size_t>(h));
  dl::mean_rows_into(h1_, request.neighbors, neigh2, ctx);
  std::vector<float> z2(static_cast<std::size_t>(c));
  std::vector<float> tmp2(static_cast<std::size_t>(c));
  dl::linear_row(z1, model_.conv2.lin_self.weight, z2, ctx);
  add_into(z2, model_.conv2.lin_self.bias.data());
  dl::linear_row(neigh2, model_.conv2.lin_neigh.weight, tmp2, ctx);
  add_into(z2, tmp2);
  dl::log_softmax_row(z2);
  return z2;
}

std::vector<RowOutcome> InferenceSession::batch_forward(
    std::span<const Request> batch, const core::EvalContext& ctx,
    const FaultHook& fault_hook) const {
  std::vector<RowOutcome> outcomes(batch.size());
  const auto run_row = [&](std::size_t i) {
    try {
      if (fault_hook) fault_hook(batch[i]);
      outcomes[i].log_probs = row_forward(batch[i], ctx);
    } catch (...) {
      outcomes[i].error = std::current_exception();
    }
  };

  obs::Span span(ctx.recorder, "serve.batch");
  if (ctx.recorder != nullptr) {
    span.arg("rows", static_cast<std::uint64_t>(batch.size()));
    span.arg("spec", fp::to_string(ctx.reduction_in_effect()));
  }
  if (ctx.pool != nullptr && ctx.pool->size() > 1 && batch.size() > 1) {
    // Row-parallel dispatch. Chunk boundaries are irrelevant to the
    // bits (rows share nothing); parallel_for joins every chunk before
    // rethrowing a chunk failure, so `outcomes` never outlives a
    // running worker (the join-and-rethrow contract the server's
    // promise accounting relies on).
    ctx.pool->parallel_for(batch.size(),
                           [&](std::size_t begin, std::size_t end,
                               std::size_t) {
                             for (std::size_t i = begin; i < end; ++i) {
                               run_row(i);
                             }
                           });
  } else {
    for (std::size_t i = 0; i < batch.size(); ++i) run_row(i);
  }

  if (ctx.recorder != nullptr) {
    // One record per request, emitted from the calling thread in batch
    // order; the canonical provenance sort keys on the request id, so
    // two runs that served the same request set emit identical streams
    // however the pool interleaved the rows.
    const std::string spec = fp::to_string(ctx.reduction_in_effect());
    for (std::size_t i = 0; i < batch.size(); ++i) {
      const bool failed = outcomes[i].error != nullptr;
      ctx.recorder->provenance(
          {"serve.request", failed ? "error" : "result",
           static_cast<std::int64_t>(batch[i].id), -1, spec,
           failed ? 0 : row_bits(outcomes[i].log_probs),
           static_cast<std::uint64_t>(outcomes[i].log_probs.size())});
    }
  }
  return outcomes;
}

Request InferenceSession::deployed_request(const dl::Dataset& dataset,
                                           std::int64_t node,
                                           std::uint64_t id) {
  if (node < 0 || node >= dataset.num_nodes()) {
    throw std::out_of_range("deployed_request: node out of range");
  }
  Request request;
  request.id = id;
  const std::int64_t f = dataset.features.size(1);
  request.features.resize(static_cast<std::size_t>(f));
  for (std::int64_t j = 0; j < f; ++j) {
    request.features[static_cast<std::size_t>(j)] =
        dataset.features.flat(node * f + j);
  }
  // In-edge sources in edge order: exactly index_add's issue order for
  // destination `node`, so the row-wise mean folds the same stream.
  for (std::size_t e = 0; e < dataset.graph.edge_dst.size(); ++e) {
    if (dataset.graph.edge_dst[e] == node) {
      request.neighbors.push_back(dataset.graph.edge_src[e]);
    }
  }
  return request;
}

}  // namespace fpna::serve
