// Non-IID data partitioning across a fleet of edge devices, plus the dynamic
// environment stream that shifts each device's local distribution over time.
//
// Label skew (CIFAR/Speech tasks): the global classes are grouped into T
// *contexts* (the paper's application-specific sub-tasks — "classes that
// usually appear together on a device"); each device lives in one context and
// holds m of that context's classes. Feature skew (HAR): each device is one
// subject. Local data volumes are unbalanced (uniform in
// [min_samples, max_samples], paper: 50–150).
//
// A distribution shift (§6.3) replaces a fraction of a device's local data
// with fresh samples; with probability `context_switch_prob` the device first
// moves to a different context, modelling a scene/usage change.
#pragma once

#include <cstdint>
#include <vector>

#include "data/synthetic.h"

namespace nebula {

struct PartitionConfig {
  std::int64_t num_devices = 100;
  /// Classes per device (m). 0 selects feature skew by subject instead.
  std::int64_t classes_per_device = 2;
  /// Number of contexts T. 0 derives ceil(num_classes / classes_per_device),
  /// capped so each context has at least `classes_per_device` classes.
  std::int64_t num_contexts = 0;
  std::int64_t min_samples = 50;
  std::int64_t max_samples = 150;
  /// Appearance clusters a device's local data covers at any time (the
  /// paper's "sparse and biased" local data: a device sees its task from a
  /// limited set of angles/scenes). 0 = all clusters. Device *tests* always
  /// span all clusters of the current task.
  std::int64_t clusters_per_device = 0;
  float shift_fraction = 0.5f;        // data replaced per adaptation step
  float context_switch_prob = 0.15f;  // chance a step moves the device
  float view_switch_prob = 0.3f;      // chance a step changes the cluster view
  /// If true, devices start out in historical viewing conditions (clusters
  /// the proxy data covers) and only drift into new appearances via shifts.
  bool initial_views_from_proxy = false;
  /// Round-varying dynamics (see environment_step): per-step probability a
  /// device churns (leaves and is replaced by a fresh one with a new task
  /// and new data), and the fraction of local data replaced per step by
  /// samples biased toward a rotating preferred class / appearance cluster
  /// (class-mixture drift). Both default off; environment_step is then a
  /// draw-free no-op, keeping existing simulations bit-identical.
  float churn_prob = 0.0f;
  float drift_rate = 0.0f;
  std::uint64_t seed = 1234;
};

/// What a device is currently tasked with (the paper's local task).
struct DeviceTask {
  std::int64_t context = 0;
  std::vector<std::int64_t> classes;  // label skew; empty for feature skew
  std::int64_t subject = -1;          // feature skew; -1 for label skew
  /// Appearance clusters the device's local data currently draws from
  /// (empty = all).
  std::vector<std::int64_t> cluster_view;
};

/// A simulated fleet of devices with non-IID local data over a synthetic
/// world, supporting proxy-data sampling for cloud pre-training and
/// per-step distribution shifts.
class EdgePopulation {
 public:
  EdgePopulation(const SyntheticGenerator& gen, PartitionConfig cfg);

  std::int64_t num_devices() const { return cfg_.num_devices; }
  std::int64_t num_contexts() const { return num_contexts_; }
  const PartitionConfig& config() const { return cfg_; }
  const DeviceTask& task(std::int64_t device) const {
    return tasks_.at(static_cast<std::size_t>(device));
  }
  const std::vector<std::int64_t>& context_classes(std::int64_t ctx) const {
    return context_classes_.at(static_cast<std::size_t>(ctx));
  }

  /// The device's current local training data (mutated by `shift`).
  const Dataset& local_data(std::int64_t device) const {
    return local_data_.at(static_cast<std::size_t>(device));
  }

  /// Fresh i.i.d. samples over the whole task — the cloud's proxy dataset.
  Dataset proxy_data(std::int64_t n);

  /// Proxy dataset with per-sample subject ids (needed to label sub-tasks
  /// for feature-skew worlds).
  SyntheticData proxy_data_ex(std::int64_t n);

  /// Sub-task (context) id of a proxy sample: for label skew, the context of
  /// its class; for feature skew, its subject.
  std::int64_t subtask_of(std::int64_t label, std::int64_t subject) const;

  /// Fresh held-out samples matching the device's *current* task, for
  /// measuring on-device accuracy. Spans all appearance clusters.
  Dataset device_test(std::int64_t device, std::int64_t n);

  /// Fresh held-out samples from the device's current task *and* current
  /// viewing conditions — the instantaneous local distribution a deployed
  /// model faces right now (used by the time-slot experiments).
  Dataset device_view_test(std::int64_t device, std::int64_t n);

  /// Applies one environment step to a device: maybe switch context, then
  /// replace `shift_fraction` of its local data with fresh task samples.
  /// Returns true if the device changed context.
  bool shift(std::int64_t device);

  /// Applies `shift` to every device.
  void shift_all();

  /// Enables (or re-tunes) round-varying dynamics after construction.
  void set_dynamics(float drift_rate, float churn_prob);

  /// Advances the dynamic environment by one step (call once per federated
  /// round): each device either churns — replaced by a fresh device with a
  /// new task and new local data — with probability `churn_prob`, or, when
  /// `drift_rate` > 0, has that fraction of its local data replaced by
  /// samples biased toward a step-rotating preferred class (label skew) or
  /// appearance cluster (feature skew), slewing its class mixture over
  /// rounds. Returns the number of churned devices. With both knobs at zero
  /// this makes no RNG draws and changes no data.
  std::int64_t environment_step();

  /// Environment steps taken so far.
  std::int64_t step() const { return step_; }

 private:
  Dataset draw_task_data(const DeviceTask& task, std::int64_t n);
  void assign_task(std::int64_t device, std::int64_t context);
  void assign_view(std::int64_t device);
  void drift_device(std::int64_t device);

  const SyntheticGenerator& gen_;
  PartitionConfig cfg_;
  std::int64_t num_contexts_ = 0;
  std::vector<std::vector<std::int64_t>> context_classes_;
  std::vector<DeviceTask> tasks_;
  std::vector<Dataset> local_data_;
  bool initial_ = false;
  std::int64_t step_ = 0;
  Rng rng_;
};

}  // namespace nebula
