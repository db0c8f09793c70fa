#pragma once
// GNN layers with explicit (manual) backward passes: Linear, GraphSAGE
// mean-aggregation convolution, ReLU, log-softmax and masked NLL loss.
//
// The single source of non-determinism in the whole stack is the
// index_add used by neighbour aggregation - in the forward direction
// (sum messages into destination nodes) and in the backward direction
// (scatter gradients back to source nodes) - exactly matching the paper's
// statement that "the only source of non-determinism in our
// implementation of this DNN is the index_add operation" (SV.B).

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "fpna/dl/graph.hpp"
#include "fpna/dl/linalg.hpp"
#include "fpna/tensor/op_context.hpp"
#include "fpna/util/rng.hpp"

namespace fpna::dl {

/// Invoked by a layer's backward as a parameter's gradient buffer
/// receives its final contribution - the DDP hook: a data-parallel
/// trainer can hand each finished gradient to a comm::BucketScheduler
/// and overlap the bucket's allreduce with the rest of the backward
/// pass, instead of waiting for every gradient to land. The argument
/// identifies the buffer (compare against the model's parameters()
/// gradient pointers). An empty sink costs one branch per parameter.
using GradientSink = std::function<void(const Matrix* grad)>;

/// Mean neighbour aggregation: out[v] = (1/deg(v)) sum_{u -> v} x[u].
/// Forward of the GraphSAGE aggregator; the sum is an index_add over the
/// edge list (ND when ctx requests it).
Matrix mean_aggregate(const Matrix& x, const Graph& graph,
                      const tensor::OpContext& ctx);

/// out[c] = (1/ids.size()) * sum over ids (in list order) of
/// table[id, c]: one row of mean_aggregate for a node whose in-edge
/// sources are `ids`, in edge order (the per-request aggregation of the
/// serving path). Per column the sum seeds with quantize(0.0f) - the
/// zero destination index_add seeds with - and folds the gathered values
/// in list order through the spec's accumulator; the mean then
/// multiplies by the float reciprocal, as mean_aggregate's row scaling
/// does. An empty id list writes zeros (a degree-0 node). Throws
/// std::out_of_range on an id outside the table.
void mean_rows_into(const Matrix& table, std::span<const std::int64_t> ids,
                    std::span<float> out, const core::EvalContext& ctx = {});

/// Backward of mean_aggregate: dX[u] += dOut[v] / deg(v) over edges
/// u -> v; itself an index_add with the edge roles swapped.
Matrix mean_aggregate_backward(const Matrix& d_out, const Graph& graph,
                               const tensor::OpContext& ctx);

/// Fully connected layer y = x W + b, weights Glorot-uniform initialised.
/// The matmuls run on ctx.pool when one is provided - bitwise identical
/// to serial for every registry accumulator (row-blocked, see linalg.hpp).
class Linear {
 public:
  Linear(std::int64_t in_features, std::int64_t out_features,
         util::Xoshiro256pp& rng);

  Matrix forward(const Matrix& x, const core::EvalContext& ctx = {}) const;

  /// Accumulates dW, db and returns dX. `x` must be the forward input.
  /// `sink` (if set) fires for grad_weight then grad_bias once each holds
  /// its final value - valid only when backward runs once per step.
  Matrix backward(const Matrix& x, const Matrix& d_out,
                  const core::EvalContext& ctx = {},
                  const GradientSink& sink = {});

  void zero_grad();

  Matrix weight;  // [in, out]
  Matrix bias;    // [out]
  Matrix grad_weight;
  Matrix grad_bias;
};

/// GraphSAGE convolution: out = x W_self + mean_agg(x) W_neigh + b.
class SageConv {
 public:
  SageConv(std::int64_t in_features, std::int64_t out_features,
           util::Xoshiro256pp& rng);

  struct Cache {
    Matrix x;        // forward input
    Matrix h_neigh;  // aggregated neighbour features
  };

  Matrix forward(const Matrix& x, const Graph& graph,
                 const tensor::OpContext& ctx, Cache* cache = nullptr) const;

  /// Returns dX (both the self path and the aggregation path). `sink`
  /// fires for lin_self.grad_weight, lin_self.grad_bias and
  /// lin_neigh.grad_weight as each receives its final contribution (the
  /// folded-bias lin_neigh.grad_bias is not a parameter and never fires).
  Matrix backward(const Cache& cache, const Matrix& d_out, const Graph& graph,
                  const tensor::OpContext& ctx,
                  const GradientSink& sink = {});

  void zero_grad();

  std::int64_t in_features() const noexcept { return lin_self.weight.size(0); }
  std::int64_t out_features() const noexcept {
    return lin_self.weight.size(1);
  }

  Linear lin_self;
  Linear lin_neigh;
};

/// Elementwise max(x, 0).
Matrix relu(const Matrix& x);
/// In-place max(v, 0) on one row; relu's body.
void relu_row(std::span<float> row);
/// dZ = dOut where z > 0, else 0.
Matrix relu_backward(const Matrix& z, const Matrix& d_out);

/// Row-wise log-softmax (numerically stabilised with the row max).
Matrix log_softmax_rows(const Matrix& logits);
/// In-place log-softmax of one row (row max, float exp-sum, subtract the
/// log-normaliser); log_softmax_rows runs it on every row. Throws
/// std::invalid_argument on an empty row.
void log_softmax_row(std::span<float> row);

struct LossResult {
  double loss = 0.0;
  /// Gradient w.r.t. the *logits* (combined log-softmax + NLL backward).
  Matrix d_logits;
};

/// Mean negative log-likelihood over masked rows. `log_probs` must be the
/// output of log_softmax_rows on the logits. The loss reduction over rows
/// routes through the context's registry-selected accumulator (the serial
/// default reproduces the historic value bitwise). `grad_scale`
/// multiplies d_logits only - the loss-scaling entry point: the reported
/// loss is never scaled, and the multiply is fused here (after the
/// mean-NLL division, one rounding) so the scaled gradient path starts
/// from a single named operation. grad_scale == 1 is bitwise identity.
LossResult nll_loss_masked(const Matrix& log_probs,
                           const std::vector<std::int64_t>& labels,
                           const std::vector<char>& mask,
                           const core::EvalContext& ctx,
                           float grad_scale = 1.0f);
LossResult nll_loss_masked(const Matrix& log_probs,
                           const std::vector<std::int64_t>& labels,
                           const std::vector<char>& mask);

/// Row-wise argmax (predictions).
std::vector<std::int64_t> argmax_rows(const Matrix& scores);

}  // namespace fpna::dl
