// Weight initialisation schemes.
#pragma once

#include <cmath>

#include "common/rng.h"
#include "tensor/tensor.h"

namespace nebula::init {

/// Process-wide init RNG. Reseed at the start of an experiment for
/// reproducible weight draws.
inline Rng& default_rng() {
  static Rng rng(0x5eedULL);
  return rng;
}

inline void reseed(std::uint64_t seed) { default_rng().reseed(seed); }

/// He (Kaiming) normal: std = sqrt(2 / fan_in). Suited to ReLU networks.
inline void he_normal(Tensor& w, std::int64_t fan_in, Rng& rng) {
  const float stddev = std::sqrt(2.0f / static_cast<float>(fan_in));
  for (std::int64_t i = 0; i < w.numel(); ++i) w[i] = rng.normal(0.0f, stddev);
}

}  // namespace nebula::init
