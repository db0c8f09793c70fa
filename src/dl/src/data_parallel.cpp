#include "fpna/dl/data_parallel.hpp"

#include <numeric>
#include <optional>
#include <span>
#include <stdexcept>
#include <utility>
#include <vector>

#include "fpna/comm/bucketed_allreduce.hpp"
#include "fpna/dl/adam.hpp"
#include "fpna/dl/layers.hpp"

namespace fpna::dl {

namespace {

void write_gradients(GraphSageModel& model,
                     const comm::TensorList<float>& tensors) {
  std::size_t t = 0;
  for (auto& [param, grad] : model.parameters()) {
    (void)param;
    const auto& flat = tensors[t++];
    std::copy(flat.begin(), flat.end(), grad->data().begin());
  }
}

}  // namespace

std::vector<std::vector<char>> shard_train_mask(
    const std::vector<char>& train_mask, std::size_t ranks,
    ShardSplit split) {
  if (ranks == 0) throw std::invalid_argument("shard_train_mask: zero ranks");
  std::vector<std::vector<char>> masks(
      ranks, std::vector<char>(train_mask.size(), 0));
  std::vector<std::size_t> train_nodes;
  for (std::size_t v = 0; v < train_mask.size(); ++v) {
    if (train_mask[v]) train_nodes.push_back(v);
  }
  if (split == ShardSplit::kRoundRobin) {
    for (std::size_t i = 0; i < train_nodes.size(); ++i) {
      masks[i % ranks][train_nodes[i]] = 1;
    }
    return masks;
  }
  const auto sizes = collective::shard_sizes(train_nodes.size(), ranks);
  std::size_t next = 0;
  for (std::size_t r = 0; r < ranks; ++r) {
    for (std::size_t i = 0; i < sizes[r]; ++i) {
      masks[r][train_nodes[next++]] = 1;
    }
  }
  return masks;
}

TrainResult train_data_parallel(const Dataset& dataset,
                                const DataParallelConfig& config,
                                core::RunContext& run) {
  comm::SimProcessGroup pg(config.ranks, config.wire);
  return train_data_parallel(dataset, config, run, pg);
}

TrainResult train_data_parallel(const Dataset& dataset,
                                const DataParallelConfig& config,
                                core::RunContext& run,
                                comm::ProcessGroup& pg) {
  if (config.base.epochs <= 0) {
    throw std::invalid_argument("train_data_parallel: epochs <= 0");
  }
  if (config.base.loss_scale.enabled()) {
    throw std::invalid_argument(
        "train_data_parallel: loss scaling is not implemented for the "
        "gradient exchange; leave base.loss_scale at kNone");
  }
  if (pg.size() != config.ranks ||
      pg.local_contributions() != config.ranks) {
    throw std::invalid_argument(
        "train_data_parallel: the group must play every configured rank");
  }
  const std::size_t ranks = config.ranks;

  // Every rank starts from the same init seed and applies identical
  // averaged gradients, so one model instance stands in for all replicas.
  // It must live at its final address before Adam takes parameter
  // pointers (same constraint as dl::train).
  TrainResult result{GraphSageModel(dataset.num_features(),
                                    config.base.hidden, dataset.num_classes,
                                    config.base.init_seed),
                     {},
                     {},
                     {},
                     0.0,
                     {},
                     0};

  const core::EvalContext local_ctx = config.base.eval_context(run);
  core::EvalContext comm_ctx;
  comm_ctx.run = &run;
  comm_ctx.pool = config.pool;
  comm_ctx.accumulator = config.comm_accumulator;

  comm::BucketedConfig bucketing;
  bucketing.bucket_cap_elements = config.bucket_cap_elements;
  bucketing.overlap = config.overlap;

  const auto rank_masks =
      shard_train_mask(dataset.train_mask, ranks, config.split);

  Adam optimizer(AdamConfig{.lr = config.base.lr});
  const auto params = result.model.parameters();
  for (const auto& [param, grad] : params) {
    optimizer.add_parameter(param, grad);
  }
  const std::size_t num_params = params.size();

  // Both exchanges run the one bucket engine. kBucketOverlap packs
  // buckets over the backward pass's emission order (reverse layer order,
  // model.backward_gradient_order) and announces each gradient as the
  // last rank's backward emits it, so each bucket fires as its last
  // tensor lands - the DDP overlap of communication with gradient
  // production. kPacked packs over tensor order and announces every slot
  // once all ranks are done.
  const bool overlap_exchange =
      config.exchange == GradientExchange::kBucketOverlap;
  std::vector<std::size_t> emit_order(num_params);
  std::iota(emit_order.begin(), emit_order.end(), std::size_t{0});
  if (overlap_exchange) emit_order = result.model.backward_gradient_order();
  std::vector<std::size_t> slot_of_param(num_params, 0);
  std::vector<std::size_t> tensor_sizes(num_params, 0);
  for (std::size_t s = 0; s < num_params; ++s) {
    slot_of_param[emit_order[s]] = s;
  }
  for (std::size_t t = 0; t < num_params; ++t) {
    tensor_sizes[t] = static_cast<std::size_t>(params[t].second->numel());
  }
  const auto param_index_of = [&](const Matrix* grad) {
    for (std::size_t t = 0; t < num_params; ++t) {
      if (params[t].second == grad) return t;
    }
    throw std::logic_error("train_data_parallel: unknown gradient buffer");
  };

  // With deterministic local kernels every replica's forward over the
  // shared weights is bitwise identical (only the loss mask differs per
  // rank), so one forward pass per epoch serves all P backward passes.
  // ND local kernels draw scheduling entropy per invocation and keep the
  // per-rank forwards.
  const bool shared_forward = !local_ctx.nondeterministic();

  for (int epoch = 0; epoch < config.base.epochs; ++epoch) {
    std::vector<comm::TensorList<float>> rank_grads(
        ranks, comm::TensorList<float>(num_params));
    double loss_total = 0.0;
    GraphSageModel::ForwardCache shared_cache;
    Matrix shared_log_probs;
    if (shared_forward) {
      shared_log_probs = result.model.forward(
          dataset.features, dataset.graph, local_ctx, &shared_cache);
    }

    // The reducer draws its per-bucket arrival seeds from `run` when it
    // is built: before the backward passes for kBucketOverlap, which
    // fires buckets during them, and after them for kPacked, where ND
    // local kernels draw from `run` first.
    std::optional<comm::OverlappedBucketAllreduce<float>> reducer;
    const auto start_exchange = [&] {
      reducer.emplace(pg, rank_grads,
                      std::span<const std::size_t>(tensor_sizes),
                      std::span<const std::size_t>(emit_order),
                      config.algorithm, comm_ctx, bucketing);
    };
    if (overlap_exchange) start_exchange();

    for (std::size_t r = 0; r < ranks; ++r) {
      GraphSageModel::ForwardCache rank_cache;
      if (!shared_forward) {
        shared_log_probs = result.model.forward(
            dataset.features, dataset.graph, local_ctx, &rank_cache);
      }
      const GraphSageModel::ForwardCache& cache =
          shared_forward ? shared_cache : rank_cache;
      const LossResult loss = nll_loss_masked(
          shared_log_probs, dataset.labels, rank_masks[r], local_ctx);
      loss_total += loss.loss;
      result.model.zero_grad();
      // Gradients land per tensor: the sink copies each finished buffer
      // into this rank's slot and, for kBucketOverlap on the last rank,
      // announces it - whose bucket's reduction then runs concurrently
      // with the remainder of this backward pass when overlap is on.
      const bool announce = overlap_exchange && r + 1 == ranks;
      const GradientSink sink = [&, r, announce](const Matrix* grad) {
        const std::size_t t = param_index_of(grad);
        rank_grads[r][t].assign(grad->data().begin(), grad->data().end());
        if (announce) reducer->notify_slot_ready(slot_of_param[t]);
      };
      result.model.backward(cache, loss.d_logits, dataset.graph, local_ctx,
                            sink);
    }
    result.epoch_losses.push_back(loss_total / static_cast<double>(ranks));

    if (!overlap_exchange) {
      start_exchange();
      for (std::size_t s = 0; s < num_params; ++s) {
        reducer->notify_slot_ready(s);
      }
    }
    comm::TensorList<float> combined = reducer->finish();
    // DDP averaging: the exchanged sum of per-shard mean-loss gradients,
    // divided by the rank count (exact for ranks == 1).
    for (auto& tensor : combined) {
      for (float& g : tensor) g /= static_cast<float>(ranks);
    }
    result.model.zero_grad();
    write_gradients(result.model, combined);
    optimizer.step();

    if (config.base.snapshot_epochs) {
      result.epoch_weights.push_back(result.model.flattened_weights());
    }
  }

  result.final_weights = result.model.flattened_weights();

  // Accuracy with the deterministic forward, mirroring dl::train.
  core::EvalContext det_ctx;
  det_ctx.accumulator = config.base.accumulator;
  const Matrix final_probs = result.model.forward(
      dataset.features, dataset.graph, det_ctx, nullptr);
  result.train_accuracy =
      accuracy(final_probs, dataset.labels, &dataset.train_mask);
  return result;
}

}  // namespace fpna::dl
