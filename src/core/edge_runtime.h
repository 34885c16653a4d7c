// On-device runtime sub-model adjustment (paper §5.1, last paragraph).
//
// "Each device can occupy a set of feasible sub-models, which can be
// dynamically adjusted to adapt to the runtime resources fluctuation or data
// distribution shifts."
//
// EdgeRuntime holds a device's resident sub-model plus a ladder of nested
// *execution plans* — subsets of the resident modules at decreasing cost —
// and picks the largest plan whose estimated inference latency meets the
// device's current deadline under contention. Scaling down is instantaneous
// (no cloud round-trip, no retraining): the runtime just restricts routing to
// the plan's modules.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "core/gating.h"
#include "core/modular_model.h"
#include "sim/device.h"

namespace nebula {

struct ExecutionPlan {
  SubmodelSpec spec;           // subset of the resident sub-model's modules
  double est_latency_ms = 0;   // per-batch inference estimate (idle device)
  std::int64_t params = 0;
};

class EdgeRuntime {
 public:
  /// Takes ownership of the device's resident sub-model. `importance` ranks
  /// the resident modules (per layer, by global id) so that down-scaling
  /// drops the least important modules first; `batch` is the serving batch
  /// size the latency targets refer to.
  EdgeRuntime(std::unique_ptr<ModularModel> submodel,
              std::vector<std::vector<double>> importance,
              DeviceProfile profile, std::int64_t batch = 16,
              std::int64_t top_k = 2);

  /// The ladder of nested plans, largest (full resident sub-model) first.
  const std::vector<ExecutionPlan>& plans() const { return plans_; }

  /// Picks the largest plan meeting `deadline_ms` under the given runtime
  /// contention; falls back to the smallest plan if none meets it. Returns
  /// the selected plan index.
  std::size_t select_plan(double deadline_ms, const RuntimeMonitor& runtime);

  /// Estimated latency of the active plan under the given contention.
  double active_latency_ms(const RuntimeMonitor& runtime) const;

  /// Runs inference restricted to the active plan's modules: gates outside
  /// the plan are masked before routing.
  Tensor infer(const Tensor& x, ModuleSelector& selector);

  ModularModel& model() { return *model_; }

 private:
  double plan_latency_ms(const ExecutionPlan& plan,
                         const RuntimeMonitor& runtime) const;
  void build_plans(const std::vector<std::vector<double>>& importance);

  std::unique_ptr<ModularModel> model_;
  DeviceProfile profile_;
  std::int64_t batch_;
  std::int64_t top_k_;
  std::vector<ExecutionPlan> plans_;
  std::size_t active_ = 0;
};

}  // namespace nebula
