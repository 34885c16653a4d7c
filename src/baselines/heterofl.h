// HeteroFL baseline (Diao et al., ICLR '21): the cloud maintains a full-width
// global model; each device trains a nested width-scaled sub-model matched to
// its resources (parameters shared as prefix blocks), and the cloud
// aggregates element-wise over the covered regions.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "baselines/nested.h"
#include "core/round_driver.h"
#include "core/train.h"
#include "data/partition.h"
#include "sim/cost_model.h"
#include "sim/device.h"
#include "sim/faults.h"

namespace nebula {

struct HeteroFLConfig {
  TrainConfig local;
  std::int64_t devices_per_round = 10;
  /// Width tiers; each device is assigned the largest tier its (relative)
  /// memory capacity affords.
  std::vector<double> widths = {0.5, 0.75, 1.0};
  std::uint64_t seed = 13;

  HeteroFLConfig() {
    local.epochs = 3;
    local.lr = 0.02f;
  }
};

class HeteroFL {
 public:
  /// `factory(width)` builds the task model at a given width multiplier.
  HeteroFL(std::function<LayerPtr(double)> factory, EdgePopulation& pop,
           const std::vector<DeviceProfile>& profiles, HeteroFLConfig cfg);

  void pretrain(const Dataset& proxy, const TrainConfig& cfg);
  /// One communication round. The report carries participants, completed,
  /// dropped, the byte columns and whether the global model was updated.
  RoundReport round();

  /// Accuracy of device k's width tier extracted from the global model.
  float eval_device(std::int64_t k, std::int64_t test_n = 256);

  /// Materialises one evaluation model per width tier from the current
  /// global model. Tier construction draws from the process-wide init RNG,
  /// so it must happen serially — call this once, then `eval_on` is pure
  /// and safe for concurrent per-device use.
  void refresh_eval_models();

  /// Accuracy of device k's tier on a caller-provided test set, using the
  /// models cached by the last `refresh_eval_models` (throws if never
  /// refreshed). Read-only on shared state.
  float eval_on(std::int64_t k, const Dataset& test);

  double device_width(std::int64_t k) const {
    return device_width_.at(static_cast<std::size_t>(k));
  }
  Layer& global() { return *global_; }
  CommLedger& ledger() { return ledger_; }

  /// Subjects rounds to the same fault schedule Nebula faces. Like FedAvg,
  /// HeteroFL is an undefended comparator: dropped or blacked-out devices
  /// are simply missing, and Byzantine or NaN/zero-corrupted uploads are
  /// folded straight into the global model (truncated payloads would be
  /// unloadable for a nested state and are skipped). Non-owning; pass
  /// nullptr to detach.
  void set_fault_injector(const FaultInjector* faults) { faults_ = faults; }

 private:
  std::function<LayerPtr(double)> factory_;
  LayerPtr global_;
  EdgePopulation& pop_;
  HeteroFLConfig cfg_;
  std::vector<double> device_width_;
  std::vector<std::size_t> device_tier_;   // device -> index into widths
  std::vector<LayerPtr> eval_models_;      // per-tier, refresh_eval_models()
  std::vector<std::int64_t> regions_;      // from the construction profiles
  CommLedger ledger_;
  RoundDriver driver_;
  const FaultInjector* faults_ = nullptr;
};

}  // namespace nebula
