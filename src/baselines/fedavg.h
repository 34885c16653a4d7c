// FedAvg baseline (McMahan et al. 2017): every participating device
// downloads the full global model, trains it on its local data, and uploads
// the full state; the cloud averages by sample count.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "core/round_driver.h"
#include "core/train.h"
#include "data/partition.h"
#include "sim/cost_model.h"
#include "sim/faults.h"

namespace nebula {

struct FedAvgConfig {
  TrainConfig local;  // per-device epochs/lr
  std::int64_t devices_per_round = 10;
  std::uint64_t seed = 11;

  FedAvgConfig() {
    local.epochs = 3;
    local.lr = 0.02f;
  }
};

class FedAvg {
 public:
  FedAvg(LayerPtr global_model, EdgePopulation& pop, FedAvgConfig cfg);

  /// Centralised pre-training on the cloud proxy data.
  void pretrain(const Dataset& proxy, const TrainConfig& cfg);

  /// One communication round. The report carries participants, completed,
  /// dropped, the byte columns and whether the global model was updated.
  RoundReport round();

  /// Accuracy of the global model on device k's current task.
  float eval_device(std::int64_t k, std::int64_t test_n = 256);

  /// Pure evaluation on a caller-provided test set (no draw from the
  /// population RNG) — safe to call concurrently from eval loops.
  float eval_on(const Dataset& test) { return evaluate_plain(*global_, test); }

  /// Subjects rounds to the same fault schedule Nebula faces — but FedAvg
  /// has no fault-tolerant protocol: dropped devices are simply missing and
  /// corrupted uploads are averaged in unvalidated (the paper-baseline
  /// contrast for the fault-sweep experiment). Non-owning; pass nullptr to
  /// detach.
  /// FedAvg carries no device profiles, so every device sits in region 0
  /// of the injector's outage draw.
  void set_fault_injector(const FaultInjector* faults) { faults_ = faults; }

  Layer& global() { return *global_; }
  CommLedger& ledger() { return ledger_; }

 private:
  LayerPtr global_;
  EdgePopulation& pop_;
  FedAvgConfig cfg_;
  CommLedger ledger_;
  RoundDriver driver_;
  const FaultInjector* faults_ = nullptr;
};

}  // namespace nebula
