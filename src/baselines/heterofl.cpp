#include "baselines/heterofl.h"

#include <algorithm>

#include "nn/state.h"

namespace nebula {

namespace {
// Salt for per-(round, device) local-training seed streams (see
// derive_stream_seed); disjoint from the other stream families.
constexpr std::uint64_t kHeteroFLTrainSalt = 0x13;
}  // namespace

HeteroFL::HeteroFL(std::function<LayerPtr(double)> factory,
                   EdgePopulation& pop,
                   const std::vector<DeviceProfile>& profiles,
                   HeteroFLConfig cfg)
    : factory_(std::move(factory)), pop_(pop), cfg_(std::move(cfg)),
      driver_(cfg_.seed, "heterofl") {
  NEBULA_CHECK(!cfg_.widths.empty());
  std::vector<double> widths = cfg_.widths;
  std::sort(widths.begin(), widths.end());
  cfg_.widths = widths;
  global_ = factory_(widths.back());
  NEBULA_CHECK(global_ != nullptr);
  NEBULA_CHECK(static_cast<std::int64_t>(profiles.size()) ==
               pop_.num_devices());

  // Capacity quantiles map devices onto width tiers evenly.
  device_tier_ = assign_tiers_by_capacity(profiles, widths.size());
  device_width_.reserve(profiles.size());
  regions_.reserve(profiles.size());
  for (std::size_t k = 0; k < profiles.size(); ++k) {
    device_width_.push_back(widths[device_tier_[k]]);
    regions_.push_back(profiles[k].region);
  }
}

void HeteroFL::pretrain(const Dataset& proxy, const TrainConfig& cfg) {
  // Nested pre-training: cycle the width tiers on the proxy data and fold
  // each trained tier back into the global model, so every prefix block is a
  // functional model (training only the full model would leave the smaller
  // tiers' prefixes non-functional — HeteroFL trains all tiers jointly).
  TrainConfig per_pass = cfg;
  per_pass.epochs = 1;
  for (std::int64_t e = 0; e < cfg.epochs; ++e) {
    for (double w : cfg_.widths) {
      auto tier = factory_(w);
      nested_extract(*global_, *tier);
      per_pass.seed = driver_.rng().next_u64();
      train_plain(*tier, proxy, per_pass);
      NestedAggregator agg(*global_);
      agg.add(*tier, 1.0);
      agg.finish(*global_);
    }
  }
}

RoundReport HeteroFL::round() {
  struct Slot : RoundSlot {
    DeviceFate fate;
    LayerPtr sub;  // the device's width tier, loaded from the global model
  };
  RoundHooks<Slot> hooks;
  // Serial prologue: tier models come from `factory_`, which draws from the
  // process-wide init RNG — constructing them inside the parallel region
  // would race on (and reorder) that stream. The freshly initialised
  // weights are then fully overwritten by nested_extract. Dropped or
  // blacked-out devices never download.
  hooks.prepare = [&](std::int64_t round_idx, Slot& slot) {
    const auto k = static_cast<std::size_t>(slot.device);
    if (faults_) {
      slot.fate = faults_->device_fate(round_idx, slot.device, regions_[k]);
      if (slot.fate.dropped) {
        slot.dropped = true;
        return;
      }
    }
    slot.sub = factory_(device_width_[k]);
    nested_extract(*global_, *slot.sub);
    slot.download(state_bytes(*slot.sub));
  };
  // Parallel local training: private model per slot, derived seeds.
  hooks.leg = [&](std::int64_t round_idx, Slot& slot) {
    const std::int64_t k = slot.device;
    TrainConfig cfg = cfg_.local;
    cfg.seed = derive_stream_seed(cfg_.seed, round_idx, k, kHeteroFLTrainSalt);
    train_plain(*slot.sub, pop_.local_data(k), cfg);
    if (slot.fate.crashes_before_upload) {
      slot.dropped = true;
      return;
    }
    // Undefended baseline: adversary damage lands in the upload
    // unvalidated; honest devices skip the state round trip.
    if (faults_ && faults_->damages_flat_upload(k, slot.fate)) {
      std::vector<float> state = get_state(*slot.sub);
      faults_->damage_flat_upload(round_idx, k, slot.fate, state);
      set_state(*slot.sub, state);
    }
    slot.upload(state_bytes(*slot.sub));
  };
  // Nested fold over the survivors, in participant order.
  hooks.merge = [&](std::vector<Slot>& slots, RoundReport& rep) {
    for (const Slot& s : slots) {
      if (!s.dropped) rep.completed.push_back(s.device);
    }
    if (rep.completed.empty()) return;  // every device lost
    NestedAggregator agg(*global_);
    for (const Slot& s : slots) {
      if (s.dropped) continue;
      agg.add(*s.sub, static_cast<double>(pop_.local_data(s.device).size()));
    }
    agg.finish(*global_);
    rep.aggregated = true;
  };
  return driver_.run(pop_.num_devices(), cfg_.devices_per_round, ledger_,
                     hooks);
}

float HeteroFL::eval_device(std::int64_t k, std::int64_t test_n) {
  auto sub = factory_(device_width_[static_cast<std::size_t>(k)]);
  nested_extract(*global_, *sub);
  Dataset test = pop_.device_test(k, test_n);
  return evaluate_plain(*sub, test);
}

void HeteroFL::refresh_eval_models() {
  eval_models_.clear();
  for (double w : cfg_.widths) {
    auto tier = factory_(w);
    nested_extract(*global_, *tier);
    eval_models_.push_back(std::move(tier));
  }
}

float HeteroFL::eval_on(std::int64_t k, const Dataset& test) {
  NEBULA_CHECK_MSG(!eval_models_.empty(),
                   "call refresh_eval_models() before eval_on()");
  return evaluate_plain(
      *eval_models_.at(device_tier_.at(static_cast<std::size_t>(k))), test);
}

}  // namespace nebula
