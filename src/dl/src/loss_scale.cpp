#include "fpna/dl/loss_scale.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "fpna/fp/dtype.hpp"

namespace fpna::dl {

LossScaler::LossScaler(const LossScaleConfig& config) : config_(config) {
  if (config_.enabled()) {
    if (!(config_.scale > 0.0f) || !std::isfinite(config_.scale)) {
      throw std::invalid_argument("LossScaler: scale must be finite and > 0");
    }
    if (config_.mode == LossScaleConfig::Mode::kDynamic) {
      if (!(config_.backoff_factor > 0.0f && config_.backoff_factor < 1.0f)) {
        throw std::invalid_argument(
            "LossScaler: backoff_factor must be in (0, 1)");
      }
      if (!(config_.growth_factor >= 1.0f)) {
        throw std::invalid_argument("LossScaler: growth_factor must be >= 1");
      }
      if (config_.growth_interval <= 0) {
        throw std::invalid_argument(
            "LossScaler: growth_interval must be >= 1");
      }
      if (!(config_.min_scale > 0.0f) ||
          !(config_.max_scale >= config_.min_scale)) {
        throw std::invalid_argument(
            "LossScaler: need 0 < min_scale <= max_scale");
      }
    }
    scale_ = config_.scale;
  }
}

bool LossScaler::update(bool grads_finite) {
  if (!config_.enabled()) return true;
  if (grads_finite) {
    if (config_.mode == LossScaleConfig::Mode::kDynamic &&
        ++finite_streak_ >= config_.growth_interval) {
      finite_streak_ = 0;
      scale_ = std::min(scale_ * config_.growth_factor, config_.max_scale);
    }
    return true;
  }
  ++skipped_;
  finite_streak_ = 0;
  if (config_.mode == LossScaleConfig::Mode::kDynamic) {
    scale_ = std::max(scale_ * config_.backoff_factor, config_.min_scale);
  }
  return false;
}

bool all_finite(const Matrix& m) {
  for (const float v : m.data()) {
    if (!std::isfinite(v)) return false;
  }
  return true;
}

void unscale_gradient(Matrix& grad, float scale,
                      const fp::ReductionSpec& spec) {
  if (scale == 1.0f) return;
  const float inv = 1.0f / scale;
  // Quantize through the *accumulate* dtype: a gradient buffer is the
  // result of an accumulation, so its natural grid is the accumulate
  // dtype's, not the storage dtype's. Under a bf16:f32 spec the unscaled
  // run hands Adam raw f32 accumulations (off the bf16 grid); quantizing
  // the unscale through bf16 storage would push scaled runs onto a grid
  // the unscaled run never visits and silently break the certified
  // power-of-two neutrality for every mixed storage:accumulate spec.
  // (round_to is the identity for f32/f64/native on these float
  // buffers.)
  for (auto& g : grad.vec()) g *= inv;
  fp::round_to<float>(spec.accumulate, grad.vec());
}

}  // namespace fpna::dl
