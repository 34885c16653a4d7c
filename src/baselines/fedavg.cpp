#include "baselines/fedavg.h"

#include "nn/state.h"

namespace nebula {

namespace {
// Salt for per-(round, device) local-training seed streams (see
// derive_stream_seed); disjoint from the FaultInjector and Nebula salts.
constexpr std::uint64_t kFedAvgTrainSalt = 0x12;
}  // namespace

FedAvg::FedAvg(LayerPtr global_model, EdgePopulation& pop, FedAvgConfig cfg)
    : global_(std::move(global_model)), pop_(pop), cfg_(cfg),
      driver_(cfg.seed, "fedavg") {
  NEBULA_CHECK(global_ != nullptr);
}

void FedAvg::pretrain(const Dataset& proxy, const TrainConfig& cfg) {
  train_plain(*global_, proxy, cfg);
}

RoundReport FedAvg::round() {
  const std::int64_t bytes = state_bytes(*global_);
  struct Slot : RoundSlot {
    std::vector<float> state;
    double weight = 0.0;
  };
  RoundHooks<Slot> hooks;
  // Every device trains a private clone under a seed derived per (round,
  // device), so the legs are independent of the worker count.
  hooks.leg = [&](std::int64_t round_idx, Slot& slot) {
    const std::int64_t k = slot.device;
    const DeviceFate fate =
        faults_ ? faults_->device_fate(round_idx, k, /*region=*/0)
                : DeviceFate{};
    if (fate.dropped) {
      slot.dropped = true;
      return;
    }
    slot.download(bytes);
    auto local = global_->clone();
    TrainConfig cfg = cfg_.local;
    cfg.seed = derive_stream_seed(cfg_.seed, round_idx, k, kFedAvgTrainSalt);
    train_plain(*local, pop_.local_data(k), cfg);
    if (fate.crashes_before_upload) {
      slot.dropped = true;
      return;
    }
    slot.upload(bytes);
    slot.state = get_state(*local);
    // Undefended baseline: adversary damage is averaged straight into
    // the global model — no server-side validation exists here.
    if (faults_) faults_->damage_flat_upload(round_idx, k, fate, slot.state);
    slot.weight = static_cast<double>(pop_.local_data(k).size());
  };
  // Sample-weighted mean over the survivors, in participant order.
  hooks.merge = [&](std::vector<Slot>& slots, RoundReport& rep) {
    double wsum = 0.0;
    for (const Slot& s : slots) {
      if (s.dropped) continue;
      wsum += s.weight;
      rep.completed.push_back(s.device);
    }
    if (rep.completed.empty()) return;  // every device lost
    std::vector<float> merged(static_cast<std::size_t>(state_size(*global_)),
                              0.0f);
    for (const Slot& s : slots) {
      if (s.dropped) continue;
      const float w = static_cast<float>(s.weight / wsum);
      for (std::size_t e = 0; e < merged.size(); ++e) {
        merged[e] += w * s.state[e];
      }
    }
    set_state(*global_, merged);
    rep.aggregated = true;
  };
  return driver_.run(pop_.num_devices(), cfg_.devices_per_round, ledger_,
                     hooks);
}

float FedAvg::eval_device(std::int64_t k, std::int64_t test_n) {
  Dataset test = pop_.device_test(k, test_n);
  return evaluate_plain(*global_, test);
}

}  // namespace nebula
