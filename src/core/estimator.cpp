#include "core/estimator.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

namespace cmfl::core {

GlobalUpdateEstimator::GlobalUpdateEstimator(std::size_t dim, double ema_decay)
    : estimate_(dim, 0.0f), ema_decay_(ema_decay) {
  if (dim == 0) {
    throw std::invalid_argument("GlobalUpdateEstimator: dim must be positive");
  }
  if (ema_decay < 0.0 || ema_decay >= 1.0) {
    throw std::invalid_argument(
        "GlobalUpdateEstimator: ema_decay must be in [0, 1)");
  }
}

void GlobalUpdateEstimator::observe(std::span<const float> global_update) {
  if (global_update.size() != estimate_.size()) {
    throw std::invalid_argument("GlobalUpdateEstimator: size mismatch");
  }
  if (!observed_ || ema_decay_ == 0.0) {
    std::copy(global_update.begin(), global_update.end(), estimate_.begin());
  } else {
    const auto decay = static_cast<float>(ema_decay_);
    const float blend = 1.0f - decay;
    for (std::size_t i = 0; i < estimate_.size(); ++i) {
      estimate_[i] = decay * estimate_[i] + blend * global_update[i];
    }
  }
  observed_ = true;
}

void GlobalUpdateEstimator::reset() {
  std::fill(estimate_.begin(), estimate_.end(), 0.0f);
  observed_ = false;
}

void GlobalUpdateEstimator::restore(std::span<const float> estimate,
                                    bool observed) {
  if (estimate.size() != estimate_.size()) {
    throw std::invalid_argument("GlobalUpdateEstimator: restore size mismatch");
  }
  std::copy(estimate.begin(), estimate.end(), estimate_.begin());
  observed_ = observed;
}

double normalized_update_difference(std::span<const float> prev,
                                    std::span<const float> next) {
  if (prev.size() != next.size()) {
    throw std::invalid_argument("normalized_update_difference: size mismatch");
  }
  if (prev.empty()) {
    throw std::invalid_argument("normalized_update_difference: empty vectors");
  }
  // ‖u_t‖ and ‖u_{t+1} - u_t‖ in one pass: two independent accumulators,
  // each summed in element order with the float difference tensor::sub
  // would store, so both norms keep the bits of two tensor::norm2 calls.
  double prev_sq = 0.0;
  double diff_sq = 0.0;
  for (std::size_t i = 0; i < prev.size(); ++i) {
    const float d = next[i] - prev[i];
    prev_sq += static_cast<double>(prev[i]) * static_cast<double>(prev[i]);
    diff_sq += static_cast<double>(d) * static_cast<double>(d);
  }
  const double prev_norm = std::sqrt(prev_sq);
  const double diff_norm = std::sqrt(diff_sq);
  if (prev_norm == 0.0) {
    return diff_norm == 0.0 ? 0.0
                            : std::numeric_limits<double>::infinity();
  }
  return diff_norm / prev_norm;
}

}  // namespace cmfl::core
