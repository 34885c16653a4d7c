#include "data/partition.h"

#include <algorithm>

#include "obs/recorder.h"

namespace nebula {

EdgePopulation::EdgePopulation(const SyntheticGenerator& gen,
                               PartitionConfig cfg)
    : gen_(gen), cfg_(cfg), rng_(cfg.seed) {
  NEBULA_CHECK(cfg_.num_devices > 0);
  NEBULA_CHECK(cfg_.min_samples > 0 && cfg_.max_samples >= cfg_.min_samples);
  NEBULA_CHECK(cfg_.churn_prob >= 0.0f && cfg_.churn_prob <= 1.0f);
  NEBULA_CHECK(cfg_.drift_rate >= 0.0f && cfg_.drift_rate <= 1.0f);
  const auto& spec = gen_.spec();

  if (cfg_.classes_per_device > 0) {
    // Label skew: group classes into contexts of >= m classes each.
    NEBULA_CHECK_MSG(cfg_.classes_per_device <= spec.num_classes,
                     "m exceeds class count");
    std::int64_t t = cfg_.num_contexts;
    if (t == 0) {
      t = std::max<std::int64_t>(
          1, spec.num_classes / cfg_.classes_per_device);
    }
    t = std::min<std::int64_t>(
        t, std::max<std::int64_t>(
               1, spec.num_classes / cfg_.classes_per_device));
    num_contexts_ = t;
    std::vector<std::int64_t> classes(
        static_cast<std::size_t>(spec.num_classes));
    for (std::int64_t c = 0; c < spec.num_classes; ++c) {
      classes[static_cast<std::size_t>(c)] = c;
    }
    rng_.shuffle(classes);
    context_classes_.assign(static_cast<std::size_t>(t), {});
    for (std::int64_t c = 0; c < spec.num_classes; ++c) {
      context_classes_[static_cast<std::size_t>(c % t)].push_back(
          classes[static_cast<std::size_t>(c)]);
    }
  } else {
    // Feature skew: one context per subject.
    NEBULA_CHECK_MSG(spec.num_subjects > 1,
                     "feature skew needs a multi-subject spec");
    num_contexts_ = spec.num_subjects;
  }

  initial_ = true;
  tasks_.resize(static_cast<std::size_t>(cfg_.num_devices));
  local_data_.resize(static_cast<std::size_t>(cfg_.num_devices));
  for (std::int64_t k = 0; k < cfg_.num_devices; ++k) {
    assign_task(k, static_cast<std::int64_t>(
                       rng_.uniform_int(static_cast<std::uint64_t>(
                           num_contexts_))));
    const std::int64_t n =
        cfg_.min_samples +
        static_cast<std::int64_t>(rng_.uniform_int(static_cast<std::uint64_t>(
            cfg_.max_samples - cfg_.min_samples + 1)));
    local_data_[static_cast<std::size_t>(k)] =
        draw_task_data(tasks_[static_cast<std::size_t>(k)], n);
  }
  initial_ = false;
}

void EdgePopulation::assign_view(std::int64_t device) {
  DeviceTask& task = tasks_[static_cast<std::size_t>(device)];
  // Biased local view: a random subset of appearance clusters. During
  // construction (initial_ == true) views may be restricted to the clusters
  // the historical proxy data covers.
  task.cluster_view.clear();
  std::int64_t pool = gen_.spec().clusters_per_class;
  if (initial_ && cfg_.initial_views_from_proxy &&
      gen_.spec().proxy_clusters > 0) {
    pool = std::min(pool, gen_.spec().proxy_clusters);
  }
  if (cfg_.clusters_per_device > 0 && cfg_.clusters_per_device < pool) {
    auto pick = rng_.choose(static_cast<std::size_t>(pool),
                            static_cast<std::size_t>(cfg_.clusters_per_device));
    for (auto k : pick) {
      task.cluster_view.push_back(static_cast<std::int64_t>(k));
    }
    std::sort(task.cluster_view.begin(), task.cluster_view.end());
  } else if (cfg_.clusters_per_device > 0 &&
             pool < gen_.spec().clusters_per_class) {
    for (std::int64_t k = 0; k < pool; ++k) task.cluster_view.push_back(k);
  }
}

void EdgePopulation::assign_task(std::int64_t device, std::int64_t context) {
  DeviceTask& task = tasks_[static_cast<std::size_t>(device)];
  task.context = context;
  assign_view(device);
  if (cfg_.classes_per_device > 0) {
    const auto& pool = context_classes_[static_cast<std::size_t>(context)];
    const std::int64_t m =
        std::min<std::int64_t>(cfg_.classes_per_device,
                               static_cast<std::int64_t>(pool.size()));
    auto pick = rng_.choose(pool.size(), static_cast<std::size_t>(m));
    task.classes.clear();
    for (auto i : pick) task.classes.push_back(pool[i]);
    std::sort(task.classes.begin(), task.classes.end());
    task.subject = -1;
  } else {
    task.classes.clear();
    task.subject = context;
  }
}

Dataset EdgePopulation::draw_task_data(const DeviceTask& task,
                                       std::int64_t n) {
  if (task.subject >= 0) {
    return gen_.sample_subject_view(n, task.subject, task.cluster_view, rng_)
        .data;
  }
  return gen_.sample_classes_view(n, task.classes, task.cluster_view, rng_)
      .data;
}

Dataset EdgePopulation::proxy_data(std::int64_t n) {
  return gen_.sample_proxy(n, rng_).data;
}

SyntheticData EdgePopulation::proxy_data_ex(std::int64_t n) {
  return gen_.sample_proxy(n, rng_);
}

std::int64_t EdgePopulation::subtask_of(std::int64_t label,
                                        std::int64_t subject) const {
  if (cfg_.classes_per_device > 0) {
    for (std::size_t ctx = 0; ctx < context_classes_.size(); ++ctx) {
      const auto& classes = context_classes_[ctx];
      if (std::find(classes.begin(), classes.end(), label) != classes.end()) {
        return static_cast<std::int64_t>(ctx);
      }
    }
    NEBULA_CHECK_MSG(false, "label " << label << " not in any context");
  }
  NEBULA_CHECK(subject >= 0 && subject < num_contexts_);
  return subject;
}

Dataset EdgePopulation::device_view_test(std::int64_t device,
                                         std::int64_t n) {
  return draw_task_data(task(device), n);
}

Dataset EdgePopulation::device_test(std::int64_t device, std::int64_t n) {
  // Tests span the *whole* current task (all appearance clusters), so a
  // device whose local data is biased cannot ace its test by overfitting.
  DeviceTask full = task(device);
  full.cluster_view.clear();
  return draw_task_data(full, n);
}

bool EdgePopulation::shift(std::int64_t device) {
  NEBULA_CHECK(device >= 0 && device < cfg_.num_devices);
  bool switched = false;
  if (num_contexts_ > 1 && rng_.uniform() < cfg_.context_switch_prob) {
    std::int64_t next = static_cast<std::int64_t>(
        rng_.uniform_int(static_cast<std::uint64_t>(num_contexts_ - 1)));
    if (next >= tasks_[static_cast<std::size_t>(device)].context) ++next;
    assign_task(device, next);
    switched = true;
  } else if (rng_.uniform() < cfg_.view_switch_prob) {
    // Same task, new viewing conditions (scene/angle/lighting change).
    assign_view(device);
  }
  Dataset& local = local_data_[static_cast<std::size_t>(device)];
  const std::int64_t n = local.size();
  const std::int64_t n_new = std::max<std::int64_t>(
      1, static_cast<std::int64_t>(
             static_cast<float>(n) * cfg_.shift_fraction));
  // Keep a random subset of the old data, append fresh task samples.
  auto keep = rng_.choose(static_cast<std::size_t>(n),
                          static_cast<std::size_t>(n - n_new));
  Dataset next = local.subset(keep);
  next.append(draw_task_data(tasks_[static_cast<std::size_t>(device)], n_new));
  local = std::move(next);
  return switched;
}

void EdgePopulation::shift_all() {
  for (std::int64_t k = 0; k < cfg_.num_devices; ++k) shift(k);
}

void EdgePopulation::set_dynamics(float drift_rate, float churn_prob) {
  NEBULA_CHECK(drift_rate >= 0.0f && drift_rate <= 1.0f);
  NEBULA_CHECK(churn_prob >= 0.0f && churn_prob <= 1.0f);
  cfg_.drift_rate = drift_rate;
  cfg_.churn_prob = churn_prob;
}

void EdgePopulation::drift_device(std::int64_t device) {
  // Class-mixture drift: replace `drift_rate` of the local data with samples
  // biased toward one *preferred* slice that rotates with the step counter,
  // so every device's mixture slews over rounds instead of staying fixed.
  DeviceTask biased = tasks_[static_cast<std::size_t>(device)];
  if (cfg_.classes_per_device > 0 && !biased.classes.empty()) {
    const std::size_t pick = static_cast<std::size_t>(
        (step_ + device) % static_cast<std::int64_t>(biased.classes.size()));
    biased.classes = {biased.classes[pick]};
  } else {
    const std::int64_t pool = gen_.spec().clusters_per_class;
    if (pool > 1) biased.cluster_view = {(step_ + device) % pool};
  }
  Dataset& local = local_data_[static_cast<std::size_t>(device)];
  const std::int64_t n = local.size();
  const std::int64_t n_new = std::max<std::int64_t>(
      1, static_cast<std::int64_t>(
             static_cast<float>(n) * cfg_.drift_rate));
  auto keep = rng_.choose(static_cast<std::size_t>(n),
                          static_cast<std::size_t>(n - n_new));
  Dataset next = local.subset(keep);
  next.append(draw_task_data(biased, n_new));
  local = std::move(next);
}

std::int64_t EdgePopulation::environment_step() {
  ++step_;
  if (cfg_.churn_prob <= 0.0f && cfg_.drift_rate <= 0.0f) return 0;
  std::int64_t churned = 0;
  for (std::int64_t k = 0; k < cfg_.num_devices; ++k) {
    // Short-circuit keeps each knob draw-free at zero, so enabling one
    // never perturbs the stream the other would have used.
    if (cfg_.churn_prob > 0.0f && rng_.uniform() < cfg_.churn_prob) {
      assign_task(k, static_cast<std::int64_t>(rng_.uniform_int(
                         static_cast<std::uint64_t>(num_contexts_))));
      const std::int64_t n =
          cfg_.min_samples +
          static_cast<std::int64_t>(
              rng_.uniform_int(static_cast<std::uint64_t>(
                  cfg_.max_samples - cfg_.min_samples + 1)));
      local_data_[static_cast<std::size_t>(k)] =
          draw_task_data(tasks_[static_cast<std::size_t>(k)], n);
      ++churned;
      // Timeline: rounds-vs-steps note — the population is stepped once per
      // round by the drift experiments, so step_ is the natural round axis.
      obs::recorder().record_device_event(step_, static_cast<int>(k),
                                          obs::TimelineKind::kChurned,
                                          "population");
    } else if (cfg_.drift_rate > 0.0f) {
      drift_device(k);
    }
  }
  return churned;
}

}  // namespace nebula
