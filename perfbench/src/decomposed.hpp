#pragma once
// The GraphSAGE forward and backward re-enacted from dl's and tensor's
// public calls, so a traced run can time each layer from the outside.
//
// The sequence of calls, their arguments and their order are those of
// GraphSageModel::forward/backward (layers.cpp, model.cpp), including the
// order in which non-deterministic index_add calls draw from the run's
// generator. The benchmark checks the re-enacted outputs against the
// library's own, so a drift between the two shows up as failed ops.

#include <cstdint>
#include <vector>

#include "fpna/core/eval_context.hpp"
#include "fpna/dl/dataset.hpp"
#include "fpna/dl/layers.hpp"
#include "fpna/dl/linalg.hpp"
#include "fpna/dl/model.hpp"
#include "fpna/tensor/tensor.hpp"
#include "trace.hpp"

namespace perfbench {

/// The index tensor mean_aggregate builds from an edge list on every call.
fpna::tensor::Tensor<std::int64_t> index_tensor(
    const std::vector<std::int64_t>& values);

/// GraphSageModel::forward. Spans: dl.aggregate (gather, index tensor,
/// index_add, 1/deg, row scaling), dl.linear.forward, dl.matmul,
/// dl.log_softmax.
fpna::dl::Matrix traced_forward(const fpna::dl::GraphSageModel& model,
                                const fpna::dl::Matrix& features,
                                const fpna::dl::Graph& graph,
                                const fpna::core::EvalContext& ctx,
                                Tracer* tracer,
                                fpna::dl::GraphSageModel::ForwardCache* cache);

/// GraphSageModel::backward, handing each finished gradient to `sink` in
/// the library's emission order. Spans: dl.linear.backward, dl.matmul,
/// dl.aggregate_backward.
void traced_backward(fpna::dl::GraphSageModel& model,
                     const fpna::dl::GraphSageModel::ForwardCache& cache,
                     const fpna::dl::Matrix& d_logits,
                     const fpna::dl::Graph& graph,
                     const fpna::core::EvalContext& ctx, Tracer* tracer,
                     const fpna::dl::GradientSink& sink);

}  // namespace perfbench
