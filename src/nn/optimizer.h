// First-order optimisers over a set of Params.
#pragma once

#include <memory>
#include <vector>

#include "nn/layer.h"

namespace nebula {

class Optimizer {
 public:
  explicit Optimizer(std::vector<Param*> params, float lr)
      : params_(std::move(params)), lr_(lr) {}
  virtual ~Optimizer() = default;

  /// Applies one update from the accumulated gradients.
  virtual void step() = 0;

  /// Clears gradients ahead of the next accumulation.
  void zero_grad() {
    for (Param* p : params_) p->grad.zero();
  }

  float lr() const { return lr_; }

 protected:
  std::vector<Param*> params_;
  float lr_;
};

/// SGD with optional momentum and decoupled weight decay.
class Sgd : public Optimizer {
 public:
  Sgd(std::vector<Param*> params, float lr, float momentum = 0.0f,
      float weight_decay = 0.0f);
  void step() override;

 private:
  float momentum_, weight_decay_;
  std::vector<Tensor> velocity_;
};

/// Adam (Kingma & Ba) with bias correction.
class Adam : public Optimizer {
 public:
  Adam(std::vector<Param*> params, float lr, float beta1 = 0.9f,
       float beta2 = 0.999f, float eps = 1e-8f);
  void step() override;

 private:
  float beta1_, beta2_, eps_;
  std::int64_t t_ = 0;
  std::vector<Tensor> m_, v_;
};

/// Clips the global gradient norm across all params to `max_norm`.
void clip_grad_norm(const std::vector<Param*>& params, float max_norm);

}  // namespace nebula
