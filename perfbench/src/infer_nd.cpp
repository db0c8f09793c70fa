// infer-nd: one non-deterministic inference of a GraphSAGE model trained
// with deterministic kernels (the paper's Table 7 D-train / ND-infer
// cell), checked with Vermv against the deterministic forward.
//
// Why: the ND simulator (tensor::index_add -> commit_order) is most of
// this op, and no other workload runs it.

#include <cmath>

#include "decomposed.hpp"
#include "fpna/core/metrics.hpp"
#include "fpna/core/run_context.hpp"
#include "fpna/dl/trainer.hpp"
#include "fpna/obs/recorder.hpp"
#include "fpna/tensor/indexed_ops.hpp"
#include "fpna/tensor/op_context.hpp"
#include "harness.hpp"

namespace perfbench {
namespace {

using fpna::dl::Matrix;

/// Upper bound on Vermv (mean relative error, Eq. 1) between an ND
/// inference and the deterministic one. bench/table7_train_infer measures
/// about 5e-10 for this cell. Over the 4200 output elements one flipped
/// sign bit adds 2 / 4200, and one flip of any of the top ten mantissa
/// bits of one element adds at least 2^-11 / 4200 = 1.2e-7.
constexpr double kVermvBound = 1e-7;

/// Ops whose output bits make up the run's fingerprint.
constexpr std::uint64_t kFingerprintOps = 8;

class InferNd final : public Workload {
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
    for (std::uint64_t i = 0; i < kFingerprintOps; ++i) {
      f.feed(fpna::core::RunContext(state_->nd_seed, i).seed());
    }
    return f.value();
  }

  Measurement measure(const RunPlan& plan, Tracer* tracer) override {
    fingerprint_ = fpna::obs::Fingerprint{};
    return run_sequential(plan, tracer, [&](std::uint64_t i, Tracer* t,
                                            bool corrupt) {
      return run_op(i, t, corrupt);
    });
  }

  void probe(Tracer& tracer) override {
    // ND against D index_add on identical conv1-shaped inputs, one thread.
    const State& s = *state_;
    const Matrix messages =
        fpna::dl::gather_rows(s.dataset.features, s.dataset.graph.edge_src);
    const Matrix zeros(fpna::tensor::Shape{s.dataset.num_nodes(),
                                           s.dataset.num_features()},
                       0.0f);
    const auto dst_index = index_tensor(s.dataset.graph.edge_dst);
    const double work = double(messages.numel());
    tracer.set_op(0);
    for (std::uint64_t rep = 0; rep < 6; ++rep) {
      fpna::core::RunContext run(derive_seed(s.nd_seed, 1), rep);
      const auto nd = fpna::tensor::nd_context(run);
      {
        Tracer::Scope span(&tracer, "probe.index_add.nd", work);
        (void)fpna::tensor::index_add(zeros, 0, dst_index, messages, 1.0f,
                                      nd);
      }
      Tracer::Scope span(&tracer, "probe.index_add.d", work);
      (void)fpna::tensor::index_add(zeros, 0, dst_index, messages, 1.0f,
                                    fpna::tensor::OpContext{});
    }
  }

  void layer_metrics(const Tracer& tracer, MetricList& out) const override {
    const auto totals = tracer.totals();
    const auto& nd = totals.at("tensor.index_add.nd");
    out.push_back({"tensor.index_add.nd.us_per_call",
                   nd.total_ns * 1e-3 / double(nd.calls), "us"});
    out.push_back({"tensor.index_add.nd.contrib_per_us",
                   nd.work / (nd.total_ns * 1e-3), "1/us"});
    out.push_back({"tensor.index_add.nd.share",
                   nd.total_ns / totals.at("op").total_ns, "ratio"});
    out.push_back({"tensor.index_add.nd_over_d",
                   totals.at("probe.index_add.nd").total_ns /
                       totals.at("probe.index_add.d").total_ns,
                   "ratio"});
  }

  std::string output_fingerprint() const override {
    return fpna::obs::hex64(fingerprint_.value());
  }

 private:
  struct State {
    explicit State(std::uint64_t seed)
        : dataset(make_dataset(seed)),
          model(train(dataset, seed)),
          reference(fpna::dl::infer(model, dataset, fpna::tensor::OpContext{})),
          nd_seed(derive_seed(seed, 3)) {}

    static fpna::dl::Dataset make_dataset(std::uint64_t seed) {
      auto config = fpna::dl::DatasetConfig::small();
      config.seed = derive_seed(seed, 1);
      return fpna::dl::make_synthetic_citation_dataset(config);
    }

    static fpna::dl::GraphSageModel train(const fpna::dl::Dataset& dataset,
                                          std::uint64_t seed) {
      fpna::dl::TrainConfig config;  // Table 7: 10 epochs, hidden 16, D
      config.deterministic = true;
      fpna::core::RunContext run(derive_seed(seed, 2), 0);
      return fpna::dl::train(dataset, config, run).model;
    }

    fpna::dl::Dataset dataset;
    fpna::dl::GraphSageModel model;
    Matrix reference;
    std::uint64_t nd_seed;
  };

  bool run_op(std::uint64_t i, Tracer* tracer, bool corrupt) {
    const State& s = *state_;
    fpna::core::RunContext run(s.nd_seed, i);
    const auto ctx = fpna::tensor::nd_context(run);
    Matrix out = tracer == nullptr
                     ? fpna::dl::infer(s.model, s.dataset, ctx)
                     : traced_forward(s.model, s.dataset.features,
                                      s.dataset.graph, ctx, tracer, nullptr);
    if (corrupt) flip_sign_bit(out.data()[0]);
    if (i < kFingerprintOps) {
      fingerprint_.feed(std::span<const float>(out.data()));
    }
    double vermv = 0.0;
    {
      Tracer::Scope span(tracer, "core.vermv");
      vermv = fpna::core::vermv(s.reference.data(),
                                std::span<const float>(out.data()));
    }
    return std::isfinite(vermv) && vermv < kVermvBound;
  }

  std::unique_ptr<State> state_;
  fpna::obs::Fingerprint fingerprint_;
};

}  // namespace

std::unique_ptr<Workload> make_infer_nd() { return std::make_unique<InferNd>(); }

}  // namespace perfbench
