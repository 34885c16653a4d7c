// The one round driver shared by every collaborative engine (DESIGN.md §11).
// Nebula, FedAvg and HeteroFL all run the same round — pick devices, run
// each device's leg, fold the legs in participant order, aggregate — and
// differ only in the leg and the merge they hand to RoundDriver::run.
//
// The driver owns the round index, the pick, the fan-out of device legs over
// private slots, and the participant-order fold of what every slot carries
// (participant, traffic delta, attempted bytes, dropped or not, and the
// selected / dropped / completed timeline events under the engine's
// source). It closes every round with the traffic deltas and the
// attempted == goodput + overhead conservation check.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/rng.h"
#include "obs/metrics.h"
#include "parallel/thread_pool.h"
#include "sim/cost_model.h"

namespace nebula {

/// Host wall-clock seconds spent in each phase of one round (measured on the
/// coordinating process, not the simulated device clock).
struct RoundPhaseTimes {
  double derive_s = 0.0;     // importance scoring + knapsack derivation
  double train_s = 0.0;      // local training + update packing
  double validate_s = 0.0;   // server-side update validation
  double aggregate_s = 0.0;  // module-wise aggregation
  double total_s = 0.0;      // whole round() call
};

/// What happened in one collaborative round. Devices appear in exactly one
/// of completed / dropped / rejected / probation (or, cut by the deadline,
/// only in `straggled`); `straggled` additionally lists devices that missed
/// the deadline (kept down-weighted when the staleness policy allows). The
/// baselines fill the driver's columns (participants, completed, dropped,
/// the byte columns, aggregated, host total); the rest is Nebula's.
struct RoundReport {
  std::int64_t round_index = 0;            // monotonic across the engine
  std::vector<std::int64_t> participants;  // sampled this round
  std::vector<std::int64_t> completed;     // update aggregated into the cloud
  std::vector<std::int64_t> dropped;       // dropout, crash, or dead link
  std::vector<std::int64_t> straggled;     // estimate exceeded the deadline
  std::vector<std::int64_t> rejected;      // quarantined by validation
  /// Quarantined devices on probation this round: they participated and
  /// validated, but their updates were withheld from aggregation while they
  /// re-earn trust (FaultPolicy::probation_clean_rounds).
  std::vector<std::int64_t> probation;
  /// Per-reason split of `rejected`: structural verdicts (shape/sample-count
  /// lies), norm verdicts (non-finite / out-of-bound payloads), and
  /// robust-score rejections at aggregation time. Sums to rejected.size().
  std::int64_t rejected_structural = 0;
  std::int64_t rejected_norm = 0;
  std::int64_t rejected_robust = 0;
  /// Anomaly scores of the updates that reached aggregation (completed +
  /// robust-rejected devices, in participant order). Empty when the quorum
  /// was unmet or robust aggregation is inactive.
  std::vector<double> robust_scores;
  std::int64_t transfer_retries = 0;       // failed attempts that were retried
  /// Staleness weight applied to each straggler that was kept (parallel to
  /// `straggled`; 0 when the update was discarded).
  std::vector<double> staleness_weights;
  /// Simulated per-device latencies, parallel to `participants` (0 for
  /// devices that dropped before doing any work). wall = train + comm;
  /// `comm` includes retry backoff. These feed the flight recorder's
  /// latency quantile digests (DESIGN.md §14) and summary() percentiles.
  std::vector<double> device_wall_s;
  std::vector<double> device_train_s;
  std::vector<double> device_comm_s;
  /// This round's CommLedger deltas. `attempted_bytes` is accumulated
  /// independently, one add per transfer attempt, and the driver checks
  /// attempted == goodput + overhead — a genuine two-path conservation
  /// check on the traffic accounting.
  std::int64_t goodput_bytes = 0;
  std::int64_t overhead_bytes = 0;
  std::int64_t attempted_bytes = 0;
  /// Selector routing over this round's derivations (soft view, averaged
  /// over participants and layers): normalized entropy in [0,1] (1 =
  /// uniform) and peak-to-mean imbalance in [1,N].
  double routing_entropy = 0.0;
  double routing_imbalance = 1.0;
  RoundPhaseTimes host_phases;  // measured host time, not simulated time
  double wall_time_s = 0.0;  // estimated round wall time (slowest survivor)
  bool aggregated = false;   // the cloud/global model was updated

  /// One-line human-readable digest for CLI / bench output.
  std::string summary() const;
};

/// The driver's part of one participant's slot. Each engine's slot type
/// derives from it and adds what its leg produces. Inside the fan-out a leg
/// writes only its own slot, so the fold after the barrier is bit-identical
/// to serial execution for any worker count.
struct RoundSlot {
  std::int64_t device = -1;
  bool dropped = false;  // dropout, crash or lost transfer: never completes
  CommLedger ledger;     // this device's traffic delta
  /// Every byte a transfer attempt put on the wire, counted apart from the
  /// ledger's goodput/overhead split.
  std::int64_t attempted_bytes = 0;

  /// A transfer on a link that cannot fail (the baselines'): one attempt,
  /// all goodput.
  void download(std::int64_t bytes) {
    ledger.record_download(bytes);
    attempted_bytes += bytes;
  }
  void upload(std::int64_t bytes) {
    ledger.record_upload(bytes);
    attempted_bytes += bytes;
  }
};

/// What one engine supplies to a round. `leg` and `merge` are required.
template <class Slot>
struct RoundHooks {
  /// Serial, in participant order, before the fan-out; may mark the slot
  /// dropped. For work that must not run in parallel (HeteroFL builds its
  /// tier models here: the factory draws from the process-wide init RNG).
  std::function<void(std::int64_t round, Slot&)> prepare;
  /// One device's leg (download, train, upload), run on the global pool for
  /// every slot not yet dropped. Writes only its slot.
  std::function<void(std::int64_t round, Slot&)> leg;
  /// Serial, per slot in participant order, between the slot's kSelected
  /// and kDropped timeline events: engine-specific bookkeeping whose
  /// events must interleave with the driver's.
  std::function<void(Slot&, RoundReport&)> fold;
  /// Serial, once, after the fold: aggregates and fills `completed` and
  /// `aggregated`.
  std::function<void(std::vector<Slot>&, RoundReport&)> merge;
};

class RoundDriver {
 public:
  /// `source` tags the timeline events (a static string); `seed` seeds the
  /// pick stream.
  RoundDriver(std::uint64_t seed, const char* source)
      : rng_(seed), source_(source) {}

  /// The index the next round will carry.
  std::int64_t next_round() const { return next_round_; }
  /// The pick stream (HeteroFL's pre-training draws its seeds from it too).
  Rng& rng() { return rng_; }

  /// Runs one round of min(devices_per_round, num_devices) devices; folds
  /// the legs' traffic into `ledger`.
  template <class Slot>
  RoundReport run(std::int64_t num_devices, std::int64_t devices_per_round,
                  CommLedger& ledger, const RoundHooks<Slot>& hooks) {
    OpenRound open = begin(ledger);
    RoundReport& rep = open.rep;
    const std::int64_t round = rep.round_index;
    const auto pick = rng_.choose(
        static_cast<std::size_t>(num_devices),
        static_cast<std::size_t>(std::min(devices_per_round, num_devices)));
    std::vector<Slot> slots(pick.size());
    for (std::size_t i = 0; i < pick.size(); ++i) {
      slots[i].device = static_cast<std::int64_t>(pick[i]);
      if (hooks.prepare) hooks.prepare(round, slots[i]);
    }
    // A throw in any leg reaches this thread through the pool, lowest
    // participant first.
    ThreadPool::global().parallel_for(
        0, slots.size(),
        [&](std::size_t i) {
          if (!slots[i].dropped) hooks.leg(round, slots[i]);
        },
        /*grain=*/1);
    for (Slot& slot : slots) {
      fold_open(rep, slot, ledger);
      if (hooks.fold) hooks.fold(slot, rep);
      if (slot.dropped) fold_dropped(rep, slot);
    }
    hooks.merge(slots, rep);
    finish(open, ledger);
    return std::move(rep);
  }

 private:
  struct OpenRound {
    RoundReport rep;
    std::int64_t goodput0 = 0;   // ledger snapshot; the report carries
    std::int64_t overhead0 = 0;  // this round's deltas
    obs::WallTimer timer;
  };

  OpenRound begin(const CommLedger& ledger);
  /// Participant, kSelected, traffic delta and attempted bytes.
  void fold_open(RoundReport& rep, const RoundSlot& slot, CommLedger& ledger);
  void fold_dropped(RoundReport& rep, const RoundSlot& slot);
  /// kCompleted per completed device, byte deltas, conservation check.
  void finish(OpenRound& open, const CommLedger& ledger);

  Rng rng_;
  const char* source_;
  std::int64_t next_round_ = 0;
};

}  // namespace nebula
