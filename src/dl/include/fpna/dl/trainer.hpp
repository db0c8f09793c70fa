#pragma once
// End-to-end training and inference driver for the GraphSAGE experiments
// (paper SV): trains N models from identical initial weights under
// deterministic or non-deterministic aggregation, snapshots weights per
// epoch, and provides modelled device timings for the Table 8 comparison.

#include <cstdint>
#include <vector>

#include "fpna/core/eval_context.hpp"
#include "fpna/dl/dataset.hpp"
#include "fpna/dl/loss_scale.hpp"
#include "fpna/dl/model.hpp"
#include "fpna/fp/reduction_spec.hpp"
#include "fpna/sim/device_profile.hpp"
#include "fpna/sim/lpu.hpp"

namespace fpna::dl {

struct TrainConfig {
  int epochs = 10;
  float lr = 0.01f;
  std::int64_t hidden = 16;
  /// Use deterministic aggregation kernels (index_add) during training.
  bool deterministic = true;
  /// Weight initialisation seed - shared by all runs of an experiment so
  /// that any divergence is attributable to kernel non-determinism.
  std::uint64_t init_seed = 42;
  /// GPU profile supplying scheduler policy for the ND path (nullptr:
  /// default H100).
  const sim::DeviceProfile* profile = nullptr;
  /// Registry-selected reduction spec (storage dtype x accumulate dtype x
  /// algorithm) threaded through the whole training EvalContext:
  /// neighbour aggregation (index_add), the dense matmul family, the loss
  /// reduction, and any other deterministic accumulation the kernels
  /// perform. A bare fp::AlgorithmId converts implicitly; the default
  /// native serial spec reproduces the seed's training values bitwise,
  /// while e.g. {kKahan, Dtype::kBf16, Dtype::kF32} trains in the
  /// paper's tensor-core mixed-precision setting.
  fp::ReductionSpec accumulator = fp::AlgorithmId::kSerial;
  /// Thread pool the dense kernels (matmul family) and the deterministic
  /// index_add run on (nullptr: serial). Pooled execution is bitwise
  /// identical to serial for every accumulator and thread count, so this
  /// field changes wall-clock only (certified in dl_test).
  util::ThreadPool* pool = nullptr;
  /// Record flattened weights after every epoch (needed by the epoch-
  /// variability experiment; costs memory).
  bool snapshot_epochs = false;
  /// Gradient loss scaling (see loss_scale.hpp). kNone reproduces the
  /// historic gradient path bit for bit; kStatic multiplies the loss
  /// gradient by a fixed factor and unscales through the spec's storage
  /// quantize path before the optimizer; kDynamic adds the
  /// backoff-on-nonfinite / periodic-growth loop. The per-epoch scale in
  /// effect and the skipped-step count are recorded in TrainResult, so a
  /// scaled run's rounding choices are fully named. dl::train only:
  /// train_data_parallel rejects an enabled loss scale.
  LossScaleConfig loss_scale{};
  /// Nullable observability sink threaded through the training
  /// EvalContext: with a recorder attached the pooled kernels emit trace
  /// spans and bit-provenance and the loss scaler reports its state as
  /// metrics ("dl.loss_scale.*"); nullptr (the default) is the certified
  /// zero-event path and can never move bits.
  obs::Recorder* recorder = nullptr;

  /// The EvalContext this config describes. `run` supplies scheduling
  /// entropy for the ND kernels (ignored when deterministic).
  core::EvalContext eval_context(core::RunContext& run) const noexcept {
    core::EvalContext ctx;
    if (!deterministic) {
      ctx.run = &run;
      ctx.profile = profile;
    }
    ctx.accumulator = accumulator;
    ctx.pool = pool;
    ctx.recorder = recorder;
    return ctx;
  }
};

struct TrainResult {
  GraphSageModel model;
  std::vector<double> epoch_losses;
  /// Flattened weights after each epoch (only if snapshot_epochs).
  std::vector<std::vector<double>> epoch_weights;
  /// Final flattened weights.
  std::vector<double> final_weights;
  /// Training-set accuracy of the final model (deterministic forward).
  double train_accuracy = 0.0;
  /// Loss scale in effect for each epoch's backward pass (all 1.0 when
  /// scaling is disabled) - the record that makes a scaled run's
  /// rounding choices reproducible.
  std::vector<float> epoch_loss_scale;
  /// Optimizer steps skipped because a scaled backward produced
  /// non-finite gradients (dynamic backoff / static overflow guard).
  int skipped_steps = 0;
};

/// Trains one model. `run` provides the scheduling entropy consumed by the
/// ND kernels; with config.deterministic the result is a pure function of
/// (dataset, config) and bitwise identical across runs (certified in
/// tests).
TrainResult train(const Dataset& dataset, const TrainConfig& config,
                  core::RunContext& run);

/// Forward pass -> log-probabilities; deterministic or not per `ctx`.
Matrix infer(const GraphSageModel& model, const Dataset& dataset,
             const tensor::OpContext& ctx);

double accuracy(const Matrix& log_probs,
                const std::vector<std::int64_t>& labels,
                const std::vector<char>* mask = nullptr);

/// Shape of the model/dataset, input to the timing models.
struct ModelDims {
  std::int64_t nodes = 0;
  std::int64_t edges = 0;
  std::int64_t features = 0;
  std::int64_t hidden = 16;
  std::int64_t classes = 7;

  static ModelDims of(const Dataset& dataset, std::int64_t hidden);
};

/// Measured host wall-clock (microseconds) of one forward pass's dense
/// matmul work at `dims`: runs the model's four layer GEMMs (self +
/// neighbour branch at input and hidden widths) through dl::matmul on
/// this host - pool and accumulator per `ctx` - and returns the best of
/// `reps` timings. A real measurement, not a model: when the kernels go
/// parallel the number moves with them. Results are cached per
/// (dims, pool width), so repeated table lookups cost one run.
double measured_dense_forward_us(const ModelDims& dims,
                                 const core::EvalContext& ctx = {},
                                 int reps = 1);

/// Modelled single-input inference latency on the simulated GPU
/// (deterministic aggregation kernels vs atomic ones), milliseconds.
/// Framework overhead plus the per-layer aggregation kernel costs from
/// the cost model; the dense term is measured on the host
/// (measured_dense_forward_us) and projected through the calibrated
/// host->device dense speedup. Calibrated to the paper's Table 8 at Cora
/// scale.
double modeled_gpu_inference_ms(const sim::DeviceProfile& profile,
                                const ModelDims& dims, bool deterministic);

/// Modelled full-training wall time (10-epoch style), seconds (Table 8
/// narrative: 0.48 s deterministic vs 0.18 s non-deterministic).
double modeled_gpu_training_s(const sim::DeviceProfile& profile,
                              const ModelDims& dims, int epochs,
                              bool deterministic);

/// Fixed (statically scheduled) LPU inference latency, milliseconds.
double lpu_inference_ms(const sim::LpuDevice& lpu, const ModelDims& dims);

}  // namespace fpna::dl
