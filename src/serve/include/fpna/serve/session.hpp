#pragma once
// Inference session: a trained GraphSageModel frozen for serving, plus
// the deployed-graph state a request's forward needs (the feature table
// and the layer-1 activation cache), evaluated one request-row at a time
// through dl's row kernels: linear_row (dl/linalg.hpp, matmul's own row
// fold) and mean_rows_into, relu_row and log_softmax_row (dl/layers.hpp).
//
// Serving model. A request carries its own feature row and the ids of
// its neighbours among the *deployed* nodes (the standard inductive
// trick: new nodes attach to the frozen graph). Layer 1 aggregates the
// neighbours' raw features; layer 2 aggregates their layer-1 activations
// from a cache precomputed once per session with the full-graph kernels.
// Every reduction involved - per-output-unit dot products, per-column
// neighbour means, the row softmax - is a stream defined entirely by the
// request row, so a batch of requests is just a set of independent rows:
// batch composition, batch size and thread count cannot move any
// request's bits. deployed_request() builds the request that reproduces
// a deployed node's offline forward row bitwise (certified in
// serve_test for every tested ReductionSpec).

#include <cstdint>
#include <exception>
#include <functional>
#include <span>
#include <vector>

#include "fpna/core/eval_context.hpp"
#include "fpna/dl/dataset.hpp"
#include "fpna/dl/model.hpp"

namespace fpna::serve {

/// One inference request: a feature row plus the deployed-node ids whose
/// messages it aggregates, in aggregation order (for a deployed node,
/// the graph's edge order - see deployed_request).
struct Request {
  std::uint64_t id = 0;
  std::vector<float> features;
  std::vector<std::int64_t> neighbors;
};

/// What the server hands back through the submit() future.
struct InferenceResult {
  std::vector<float> log_probs;   // [num_classes]
  std::uint64_t admitted_ns = 0;  // admission-queue entry time
  std::uint64_t completed_ns = 0; // batch completion time
};

/// Per-row outcome of a batched forward: exactly one of log_probs /
/// error is meaningful. A row failure (bad neighbour id, injected
/// fault) must fail only its own request, never its batch-mates.
struct RowOutcome {
  std::vector<float> log_probs;
  std::exception_ptr error;
};

/// Test hook: called per request before its row computation; a throw
/// becomes that row's error.
using FaultHook = std::function<void(const Request&)>;

class InferenceSession {
 public:
  /// Freezes `model` + `dataset` for serving under `ctx`'s reduction
  /// spec: copies the weights and feature table and precomputes the
  /// layer-1 activation cache with the full-graph kernels (so cached
  /// rows are bitwise the offline forward's a1). The context's pool (if
  /// any) only affects the cache build's wall clock, not its bits.
  InferenceSession(const dl::GraphSageModel& model,
                   const dl::Dataset& dataset, const core::EvalContext& ctx);

  /// One request's forward through the row-wise kernels. Pure function
  /// of (request, weights, tables, ctx spec) - the reference the batch
  /// paths are certified against.
  std::vector<float> row_forward(const Request& request,
                                 const core::EvalContext& ctx) const;

  /// Batched forward: rows computed independently (pooled over requests
  /// when ctx.pool is set), each with per-row exception containment.
  /// Emits one provenance record per request (site "serve.request",
  /// index = request id) from the calling thread in batch order when
  /// ctx.recorder is set.
  std::vector<RowOutcome> batch_forward(std::span<const Request> batch,
                                        const core::EvalContext& ctx,
                                        const FaultHook& fault_hook = {}) const;

  /// The request whose row_forward reproduces deployed node `node`'s row
  /// of the offline GraphSageModel::forward bitwise: the node's feature
  /// row plus its in-edge sources in edge order (index_add's issue
  /// order).
  static Request deployed_request(const dl::Dataset& dataset,
                                  std::int64_t node, std::uint64_t id);

  std::int64_t num_features() const noexcept { return features_.size(1); }
  std::int64_t hidden() const noexcept { return h1_.size(1); }
  std::int64_t num_classes() const noexcept {
    return model_.num_classes();
  }
  const dl::Matrix& h1_cache() const noexcept { return h1_; }

 private:
  dl::GraphSageModel model_;  // frozen copy (weights only matter)
  dl::Matrix features_;       // deployed feature table [nodes, F]
  dl::Matrix h1_;             // layer-1 activation cache [nodes, H]
};

}  // namespace fpna::serve
