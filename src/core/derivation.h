// Personalized sub-model derivation (paper §5.1).
//
// Inputs: per-module importance scores for the device (mean selector
// probability over its local data), per-module resource costs precomputed on
// the cloud, and the device's resource budget (comm / comp / mem). The
// derivation is the constrained optimisation of Eq. 2: maximise total
// importance subject to the three budget dimensions — seeded with the most
// important module of each layer so no layer is left empty, then solved as a
// multi-dimensional knapsack.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "core/modular_model.h"
#include "opt/knapsack.h"

namespace nebula {

struct DerivationRequest {
  /// Per layer, per global module id: the device's importance scores.
  std::vector<std::vector<double>> importance;
  /// Budgets over {comm MB, comp GFLOPs, training-mem MB}, *including* the
  /// shared stem/bridge/head cost (which is always spent).
  std::array<double, kResourceDims> budgets{};
};

struct DerivationResult {
  SubmodelSpec spec;
  double total_importance = 0.0;
  std::array<double, kResourceDims> used{};  // incl. shared cost
  bool within_budget = true;
};

class SubmodelDerivation {
 public:
  /// `costs` indexed [layer][global_id]; `shared` is the fixed cost of the
  /// non-modular components.
  SubmodelDerivation(std::vector<std::vector<ModuleCost>> costs,
                     ModuleCost shared);

  DerivationResult derive(const DerivationRequest& request) const;

  /// Budgets corresponding to a fraction of the *original* large model's
  /// cost — shared components plus one full-width block per module layer.
  /// This is the anchor the paper uses: device budgets and sub-model size
  /// ratios are expressed relative to the model being modularized, not the
  /// (N-times larger) union of all substitute modules.
  std::array<double, kResourceDims> budget_fraction(double fraction) const;

  const ModuleCost& shared_cost() const { return shared_; }
  std::array<double, kResourceDims> full_cost() const { return full_; }
  std::array<double, kResourceDims> reference_cost() const {
    return reference_;
  }

 private:
  std::vector<std::vector<ModuleCost>> costs_;
  ModuleCost shared_;
  std::array<double, kResourceDims> full_{};       // union of all modules
  std::array<double, kResourceDims> reference_{};  // original-model anchor
};

}  // namespace nebula
