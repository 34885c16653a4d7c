#include "core/derivation.h"

#include <algorithm>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace nebula {

namespace {

std::array<double, kResourceDims> cost_vector(const ModuleCost& c) {
  return {c.comm_mb, c.comp_gflops, c.mem_mb};
}

}  // namespace

SubmodelDerivation::SubmodelDerivation(
    std::vector<std::vector<ModuleCost>> costs, ModuleCost shared)
    : costs_(std::move(costs)), shared_(shared) {
  NEBULA_CHECK(!costs_.empty());
  full_ = cost_vector(shared_);
  reference_ = cost_vector(shared_);
  for (const auto& layer : costs_) {
    NEBULA_CHECK(!layer.empty());
    // The widest module of a layer stands in for the original block.
    const ModuleCost* biggest = &layer.front();
    for (const auto& c : layer) {
      full_[0] += c.comm_mb;
      full_[1] += c.comp_gflops;
      full_[2] += c.mem_mb;
      if (c.params > biggest->params) biggest = &c;
    }
    reference_[0] += biggest->comm_mb;
    reference_[1] += biggest->comp_gflops;
    reference_[2] += biggest->mem_mb;
  }
}

std::array<double, kResourceDims> SubmodelDerivation::budget_fraction(
    double fraction) const {
  NEBULA_CHECK(fraction > 0.0);
  // The shared stem/bridges/head always ship with a sub-model (they can
  // dominate head-heavy models like VGG), so the fraction scales the
  // *modular* part of the original model's cost on top of the shared cost.
  const auto shared = cost_vector(shared_);
  std::array<double, kResourceDims> out{};
  for (std::size_t j = 0; j < kResourceDims; ++j) {
    out[j] = shared[j] + fraction * (reference_[j] - shared[j]);
  }
  return out;
}

DerivationResult SubmodelDerivation::derive(
    const DerivationRequest& request) const {
  NEBULA_CHECK_MSG(request.importance.size() == costs_.size(),
                   "importance must cover every module layer");
  NEBULA_SPAN("derivation.derive");
  static obs::Counter& m_calls = obs::counter("derivation.calls");
  m_calls.add(1);

  // Net budgets after the always-present shared components.
  const auto shared_cost = cost_vector(shared_);
  std::array<double, kResourceDims> budgets{};
  for (std::size_t j = 0; j < kResourceDims; ++j) {
    budgets[j] = request.budgets[j] - shared_cost[j];
  }

  // Flatten (layer, module) into knapsack items; seed each layer with one
  // forced module (the §5.1 step that guarantees no layer is left empty).
  // The seed is the most important module that fits the layer's equal share
  // of the net budget; if even the cheapest module exceeds the share, the
  // cheapest is forced anyway (coverage dominates) and the result may be
  // flagged over budget.
  const std::size_t l_count = costs_.size();
  std::vector<KnapsackItem> items;
  std::vector<std::pair<std::size_t, std::int64_t>> item_id;  // (layer, gid)
  std::vector<std::size_t> forced;
  for (std::size_t l = 0; l < l_count; ++l) {
    const auto& imp = request.importance[l];
    NEBULA_CHECK_MSG(imp.size() == costs_[l].size(),
                     "layer " << l << " importance width mismatch");
    const std::size_t base = items.size();
    for (std::size_t i = 0; i < imp.size(); ++i) {
      KnapsackItem item;
      item.value = imp[i];
      item.cost = cost_vector(costs_[l][i]);
      items.push_back(item);
      item_id.emplace_back(l, static_cast<std::int64_t>(i));
    }
    auto fits_share = [&](std::size_t i) {
      for (std::size_t j = 0; j < kResourceDims; ++j) {
        if (costs_[l][i].params == 0) continue;  // identity always fits
        const double share = budgets[j] / static_cast<double>(l_count);
        if (cost_vector(costs_[l][i])[j] > share + 1e-12) return false;
      }
      return true;
    };
    std::size_t best = imp.size();  // best fitting by importance
    std::size_t cheapest = 0;
    for (std::size_t i = 0; i < imp.size(); ++i) {
      if (fits_share(i) && (best == imp.size() || imp[i] > imp[best])) {
        best = i;
      }
      if (costs_[l][i].params < costs_[l][cheapest].params) cheapest = i;
    }
    forced.push_back(base + (best != imp.size() ? best : cheapest));
  }

  KnapsackResult kres = solve_knapsack(items, budgets, forced);

  DerivationResult out;
  out.spec.modules.resize(costs_.size());
  for (std::size_t i = 0; i < items.size(); ++i) {
    if (!kres.chosen[i]) continue;
    out.spec.modules[item_id[i].first].push_back(item_id[i].second);
    out.total_importance += items[i].value;
  }
  for (auto& layer : out.spec.modules) {
    std::sort(layer.begin(), layer.end());
    NEBULA_CHECK(!layer.empty());
  }
  for (std::size_t j = 0; j < kResourceDims; ++j) {
    out.used[j] = kres.used[j] + shared_cost[j];
    if (out.used[j] > request.budgets[j] + 1e-9) out.within_budget = false;
  }
  if (!out.within_budget) {
    static obs::Counter& m_over = obs::counter("derivation.over_budget");
    m_over.add(1);
  }
  return out;
}

}  // namespace nebula
