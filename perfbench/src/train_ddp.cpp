// train-ddp: one epoch of data-parallel GraphSAGE training on 4 simulated
// ranks with the reproducible superaccumulator exchange on the ring wire,
// checked bitwise against the weights trained at setup.
//
// Why: it is the deterministic training step. D index_add, the
// Linear/matmul kernels, the loss, Adam and the exchange do the work; the
// ND simulator does none.
//
// The op runs on one thread: no pool for the dense kernels or the bucket
// reductions (the D results are pool-size invariant, so the bits are the
// same). With a 2-worker pool each op kept three CPUs of a 4-vCPU VM busy,
// which draws more hypervisor steal: six 15 s runs ran 69-111 ops and
// their op_p50_us spread 0.34. On one thread, five runs right after ran
// 137-156 ops at 0.2-0.5 % steal, with a spread of 0.07.

#include <cstring>

#include "decomposed.hpp"
#include "fpna/comm/bucketed_allreduce.hpp"
#include "fpna/comm/process_group.hpp"
#include "fpna/core/run_context.hpp"
#include "fpna/dl/adam.hpp"
#include "fpna/dl/data_parallel.hpp"
#include "fpna/dl/layers.hpp"
#include "harness.hpp"

namespace perfbench {
namespace {

using fpna::dl::Matrix;

constexpr std::size_t kRanks = 4;

class TrainDdp final : public Workload {
 public:
  void setup(std::uint64_t seed) override {
    state_.reset();
    state_ = std::make_unique<State>(seed);
  }

  std::uint64_t input_digest() const override {
    fpna::obs::Fingerprint f;
    f.feed(std::span<const float>(state_->dataset.features.data()));
    feed_ints(f, state_->dataset.graph.edge_src);
    feed_ints(f, state_->dataset.graph.edge_dst);
    feed_ints(f, state_->dataset.labels);
    feed_ints(f, state_->dataset.train_mask);
    return f.value();
  }

  Measurement measure(const RunPlan& plan, Tracer* tracer) override {
    bytes_ = 0.0;
    messages_ = 0.0;
    return run_sequential(plan, tracer, [&](std::uint64_t i, Tracer* t,
                                            bool corrupt) {
      fpna::core::RunContext run(state_->seed, i);
      std::vector<double> weights =
          t == nullptr ? fpna::dl::train_data_parallel(state_->dataset,
                                                       state_->config, run)
                             .final_weights
                       : traced_train(run, t);
      if (corrupt) flip_sign_bit(weights[0]);
      return weights.size() == state_->reference.size() &&
             std::memcmp(weights.data(), state_->reference.data(),
                         weights.size() * sizeof(double)) == 0;
    });
  }

  void layer_metrics(const Tracer& tracer, MetricList& out) const override {
    const auto totals = tracer.totals();
    const double steps = double(totals.at("op").calls);
    const auto ms_per_step = [&](const char* name) {
      return totals.at(name).total_ns * 1e-6 / steps;
    };
    out.push_back({"dl.step.forward_ms", ms_per_step("dl.step.forward"), "ms"});
    out.push_back({"dl.step.loss_ms", ms_per_step("dl.step.loss"), "ms"});
    out.push_back(
        {"dl.step.backward_ms", ms_per_step("dl.step.backward"), "ms"});
    out.push_back(
        {"dl.step.optimizer_ms", ms_per_step("dl.step.optimizer"), "ms"});
    out.push_back({"comm.exchange.ms_per_step", ms_per_step("comm.exchange"),
                   "ms"});
    out.push_back({"comm.bytes_per_step", bytes_ / steps, "B"});
    out.push_back({"comm.messages_per_step", messages_ / steps, "count"});

    const auto& agg = totals.at("dl.aggregate");
    out.push_back(
        {"dl.aggregate.us", agg.total_ns * 1e-3 / double(agg.calls), "us"});
    double flops = 0.0;
    double dense_ns = 0.0;
    for (const char* name :
         {"dl.linear.forward", "dl.linear.backward", "dl.matmul"}) {
      flops += totals.at(name).work;
      dense_ns += totals.at(name).total_ns;
    }
    out.push_back({"dl.dense.gflops", flops / dense_ns, "GFLOP/s"});

    const auto& d = totals.at("tensor.index_add.d");
    out.push_back({"tensor.index_add.d.us_per_call",
                   d.total_ns * 1e-3 / double(d.calls), "us"});
    out.push_back({"tensor.index_add.d.contrib_per_us",
                   d.work / (d.total_ns * 1e-3), "1/us"});
  }

 private:
  struct State {
    explicit State(std::uint64_t run_seed)
        : seed(derive_seed(run_seed, 3)),
          dataset(make_dataset(run_seed)),
          config(make_config()) {
      fpna::core::RunContext run(seed, 0);
      reference =
          fpna::dl::train_data_parallel(dataset, config, run).final_weights;
    }

    static fpna::dl::Dataset make_dataset(std::uint64_t seed) {
      auto config = fpna::dl::DatasetConfig::small();
      config.seed = derive_seed(seed, 1);
      return fpna::dl::make_synthetic_citation_dataset(config);
    }

    static fpna::dl::DataParallelConfig make_config() {
      fpna::dl::DataParallelConfig c;
      c.base.epochs = 1;
      c.base.hidden = 16;
      c.base.deterministic = true;
      c.ranks = kRanks;
      c.algorithm = fpna::collective::Algorithm::kReproducible;
      c.wire = fpna::comm::WirePath::kRing;
      c.exchange = fpna::dl::GradientExchange::kBucketOverlap;
      c.overlap = true;  // a no-op without a pool: buckets reduce inline
      return c;
    }

    std::uint64_t seed;
    fpna::dl::Dataset dataset;
    fpna::dl::DataParallelConfig config;
    std::vector<double> reference;
  };

  // One epoch of train_data_parallel re-enacted from public calls: one
  // shared D forward, then per rank the loss and a backward whose sink
  // copies each finished gradient out. On the last rank the sink also
  // announces it to comm::OverlappedBucketAllreduce, as in the library.
  // With no pool a bucket reduces inside the notify call that closes it,
  // so comm.exchange spans those calls and finish().
  std::vector<double> traced_train(fpna::core::RunContext& run,
                                   Tracer* tracer) {
    const State& s = *state_;
    const auto& base = s.config.base;
    fpna::dl::GraphSageModel model(s.dataset.num_features(), base.hidden,
                                   s.dataset.num_classes, base.init_seed);
    fpna::dl::Adam optimizer(fpna::dl::AdamConfig{.lr = base.lr});
    const auto params = model.parameters();
    for (const auto& [param, grad] : params) optimizer.add_parameter(param, grad);
    const auto emit_order = model.backward_gradient_order();
    std::vector<std::size_t> slot_of_param(params.size());
    std::vector<std::size_t> tensor_sizes(params.size());
    for (std::size_t slot = 0; slot < emit_order.size(); ++slot) {
      slot_of_param[emit_order[slot]] = slot;
    }
    for (std::size_t t = 0; t < params.size(); ++t) {
      tensor_sizes[t] = static_cast<std::size_t>(params[t].second->numel());
    }

    const fpna::core::EvalContext local_ctx = base.eval_context(run);
    fpna::core::EvalContext comm_ctx;
    comm_ctx.run = &run;
    comm_ctx.pool = s.config.pool;
    fpna::comm::BucketedConfig bucketing;
    bucketing.bucket_cap_elements = s.config.bucket_cap_elements;
    bucketing.overlap = s.config.overlap;
    fpna::comm::SimProcessGroup pg(kRanks, s.config.wire);
    const auto masks =
        fpna::dl::shard_train_mask(s.dataset.train_mask, kRanks, s.config.split);

    fpna::dl::GraphSageModel::ForwardCache cache;
    Matrix log_probs;
    {
      Tracer::Scope span(tracer, "dl.step.forward");
      log_probs = traced_forward(model, s.dataset.features, s.dataset.graph,
                                 local_ctx, tracer, &cache);
    }
    std::vector<fpna::comm::TensorList<float>> rank_grads(
        kRanks, fpna::comm::TensorList<float>(params.size()));
    fpna::comm::OverlappedBucketAllreduce<float> reducer(
        pg, rank_grads, std::span<const std::size_t>(tensor_sizes),
        std::span<const std::size_t>(emit_order), s.config.algorithm,
        comm_ctx, bucketing);
    for (std::size_t r = 0; r < kRanks; ++r) {
      fpna::dl::LossResult loss;
      {
        Tracer::Scope span(tracer, "dl.step.loss");
        loss = fpna::dl::nll_loss_masked(log_probs, s.dataset.labels,
                                         masks[r], local_ctx);
      }
      model.zero_grad();
      const bool last_rank = r + 1 == kRanks;
      const fpna::dl::GradientSink sink = [&, r,
                                           last_rank](const Matrix* grad) {
        std::size_t t = 0;
        while (params[t].second != grad) ++t;
        rank_grads[r][t].assign(grad->data().begin(), grad->data().end());
        if (last_rank) {
          Tracer::Scope span(tracer, "comm.exchange");
          reducer.notify_slot_ready(slot_of_param[t]);
        }
      };
      Tracer::Scope span(tracer, "dl.step.backward");
      traced_backward(model, cache, loss.d_logits, s.dataset.graph, local_ctx,
                      tracer, sink);
    }
    fpna::comm::TensorList<float> combined;
    {
      Tracer::Scope span(tracer, "comm.exchange");
      combined = reducer.finish();
    }
    if (tracer->enabled()) {
      const auto traffic = pg.total_traffic();
      bytes_ += double(traffic.bytes_sent);
      messages_ += double(traffic.messages);
    }
    model.zero_grad();
    for (std::size_t t = 0; t < params.size(); ++t) {
      float* grad = params[t].second->data().data();
      for (std::size_t k = 0; k < combined[t].size(); ++k) {
        grad[k] = combined[t][k] / static_cast<float>(kRanks);
      }
    }
    {
      Tracer::Scope span(tracer, "dl.step.optimizer");
      optimizer.step();
    }
    // train_data_parallel ends with a deterministic forward for accuracy.
    fpna::core::EvalContext det_ctx;
    det_ctx.accumulator = base.accumulator;
    {
      Tracer::Scope span(tracer, "dl.eval_forward");
      (void)model.forward(s.dataset.features, s.dataset.graph, det_ctx);
    }
    return model.flattened_weights();
  }

  std::unique_ptr<State> state_;
  double bytes_ = 0.0;
  double messages_ = 0.0;
};

}  // namespace

std::unique_ptr<Workload> make_train_ddp() {
  return std::make_unique<TrainDdp>();
}

}  // namespace perfbench
