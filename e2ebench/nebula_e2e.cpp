// End-to-end benchmark program for the Nebula simulator.
//
// Runs one workload (har-faulty, cifar-resnet, har-continuous) as a closed
// loop with one client on a ThreadPool of `nproc` workers, checks the
// outputs, and writes every raw sample as JSON. run.py turns the samples
// into the named metrics; this file only measures.
//
// Everything is observed from outside the library: the program times its own
// calls into public functions, reads counter deltas from
// obs::MetricsRegistry and reads RoundReport fields. It adds no spans
// inside src/.
//
// An "episode" is one full pass over one instance of a workload: set-up
// (environment, offline stage, baseline pretraining), a fixed schedule of
// rounds and adapt/infer pairs, then an accuracy evaluation. Episode i runs
// instance i, whose inputs derive from (--seed, i), so accuracy and
// comm_mb_per_round are a pure function of the seed. The untraced run makes
// --seconds / nominal_episode_s episodes (at least kMinEpisodes, so set-up
// time is a median); the traced run repeats instance 0 three times.
//
// Usage:
//   nebula_e2e --workload W --seed N --seconds S --trace 0|1 --out raw.json
//              [--spans spans.json] [--lib-trace nebula-trace.json]
//              [--episodes N]   (record_expected.py: one episode per seed)
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <iomanip>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "eval/experiments.h"
#include "nn/batchnorm.h"
#include "nn/conv.h"
#include "nn/init.h"
#include "nn/layers_basic.h"
#include "nn/sequential.h"
#include "obs/metrics.h"
#include "obs/recorder.h"
#include "obs/trace.h"
#include "parallel/thread_pool.h"
#include "tensor/cpu_features.h"
#include "tensor/gemm.h"

#ifndef NEBULA_E2E_BUILD_TYPE
#define NEBULA_E2E_BUILD_TYPE "unknown"
#endif

namespace {

using namespace nebula;
using Clock = std::chrono::steady_clock;

constexpr int kMinEpisodes = 3;
constexpr std::uint64_t kInstanceSalt = 0xE2E;

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

// ---- Workloads ----------------------------------------------------------------

struct Workload {
  std::string name;
  std::string dataset;
  std::string partition;
  std::int64_t devices = 60;
  std::int64_t per_round = 10;
  std::int64_t pretrain_epochs = 8;
  std::int64_t ability_epochs = 3;
  std::int64_t proxy_samples = 0;  // 0 = the task's default
  std::int64_t rounds = 0;         // Nebula rounds per episode
  /// Baseline (FedAvg, HeteroFL) rounds run after every n-th Nebula round.
  std::int64_t baseline_every = 1;
  /// Adapt/infer pairs per episode: after the rounds (the repository's
  /// Table 1 protocol: rounds, then a per-device adaptation step), or
  /// spread evenly between them in the continuous mode.
  std::int64_t pairs = 0;
  bool interleave_pairs = false;
  std::int64_t test_samples = 256;
  /// Wall time of one episode on the reference box (4 cores, pool of 4).
  /// --seconds / this sets the episode count, so a run's sample counts (and
  /// with them the tail percentiles) are the same on every run.
  double nominal_episode_s = 1.0;
  bool faults = false;
  bool recorder = false;
  float drift_rate = 0.0f;
  float churn_prob = 0.0f;
};

// Sizes are chosen so each sample count lands inside one band of the
// tail-percentile ladder in run.py with dozens of samples beyond the tail,
// and a fixed episode count makes the counts exact. At 20 s: har-faulty
// times 800 rounds and 360 pairs, cifar-resnet 60 rounds (p75) and 180
// pairs, har-continuous 450 rounds and 900 pairs (p90 where not stated).
Workload workload_by_name(const std::string& name) {
  Workload w;
  w.name = name;
  if (name == "har-faulty") {
    w.dataset = "HAR";
    w.partition = "1 subject";
    w.rounds = 100;
    w.pairs = 45;
    w.faults = true;
    w.recorder = true;
    w.nominal_episode_s = 2.4;
  } else if (name == "cifar-resnet") {
    // Offline training is cut to 2 + 1 epochs on 1000 proxy samples so
    // three set-ups fit in one run.
    w.dataset = "CIFAR10";
    w.partition = "2 classes";
    w.pretrain_epochs = 2;
    w.ability_epochs = 1;
    w.proxy_samples = 1000;
    w.rounds = 20;
    w.baseline_every = 4;
    w.pairs = 60;
    w.test_samples = 128;
    w.nominal_episode_s = 15.0;
  } else if (name == "har-continuous") {
    w.dataset = "HAR";
    w.partition = "1 subject";
    w.rounds = 30;
    w.pairs = 60;
    w.interleave_pairs = true;
    w.drift_rate = 0.3f;
    w.churn_prob = 0.05f;
    w.nominal_episode_s = 1.3;
  } else {
    throw std::runtime_error("unknown workload '" + name + "'");
  }
  return w;
}

/// The har-faulty fault schedule: dropout, link failures and payload
/// corruption; stragglers against a deadline (kept at a staleness weight);
/// a 30% colluding sign-flip coalition with an exact member count.
FaultConfig faulty_schedule(const Workload& w, std::uint64_t seed) {
  FaultConfig fc;
  fc.dropout_prob = 0.1;
  fc.transfer_failure_prob = 0.1;
  fc.corruption_prob = 0.05;
  fc.straggler_prob = 0.15;
  fc.byzantine_fraction = 0.3;
  fc.byzantine_kind = ByzantineKind::kSignFlip;
  fc.num_devices = w.devices;
  fc.seed = seed * 7 + 0xFA;
  return fc;
}

// ---- Bench spans (trace mode only) --------------------------------------------

/// One span recorded by the program around a call into a library module.
struct Span {
  std::string name;
  std::int64_t id = 0;
  std::int64_t parent = -1;
  double start_us = 0.0;
  double end_us = 0.0;
};

class SpanLog {
 public:
  void enable(bool on) { on_ = on; }
  std::int64_t open(const std::string& name) {
    if (!on_) return -1;
    Span s;
    s.name = name;
    s.id = static_cast<std::int64_t>(spans_.size());
    s.parent = stack_.empty() ? -1 : stack_.back();
    s.start_us = now_us();
    spans_.push_back(s);
    stack_.push_back(s.id);
    return s.id;
  }
  void close(std::int64_t id) {
    if (id < 0) return;
    spans_[static_cast<std::size_t>(id)].end_us = now_us();
    stack_.pop_back();
  }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  double now_us() const {
    return std::chrono::duration<double, std::micro>(Clock::now() - epoch_)
        .count();
  }
  bool on_ = false;
  Clock::time_point epoch_ = Clock::now();
  std::vector<Span> spans_;
  std::vector<std::int64_t> stack_;
};

SpanLog g_spans;

class SpanScope {
 public:
  explicit SpanScope(const std::string& name) : id_(g_spans.open(name)) {}
  ~SpanScope() { g_spans.close(id_); }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  std::int64_t id_;
};

// ---- Episode --------------------------------------------------------------------

struct EpisodeOptions {
  std::int64_t instance = 0;
  ThreadPool* pool = nullptr;
  bool traced = false;  // bench spans + library tracer on
  /// Trace-run extra, kept identical across the trace run's episodes so
  /// they compare like with like: outside derive() timing before each pair.
  bool probe_mode = false;
};

struct EpisodeResult {
  std::int64_t instance = 0;
  std::size_t pool_size = 0;
  double wall_s = 0.0;
  double setup_s = 0.0;
  double env_build_s = 0.0;
  double offline_s = 0.0;
  double offline_pretrain_s = 0.0;
  double offline_ability_s = 0.0;
  double fedavg_pretrain_s = 0.0;
  double heterofl_pretrain_s = 0.0;
  std::map<std::string, std::vector<double>> series;
  std::map<std::string, std::int64_t> counts;
  std::map<std::string, std::int64_t> round_counters;    // over Nebula rounds
  std::map<std::string, std::int64_t> episode_counters;  // whole episode
  double accuracy = 0.0;
  double comm_mb_per_round = 0.0;
  std::vector<std::string> violations;
};

const char* kCounters[] = {"pool.regions",   "pool.regions_inline",
                           "gemm.calls",     "conv.fwd_calls",
                           "conv.bwd_calls", "selector.forwards"};

std::map<std::string, std::int64_t> read_counters() {
  std::map<std::string, std::int64_t> out;
  for (const char* name : kCounters) {
    out[name] = obs::counter(name).value();
  }
  return out;
}

void add_delta(std::map<std::string, std::int64_t>& acc,
               const std::map<std::string, std::int64_t>& before,
               const std::map<std::string, std::int64_t>& after) {
  for (const auto& [name, v] : after) acc[name] += v - before.at(name);
}

/// Output checks on one Nebula RoundReport. Appends a message per
/// violation.
void check_report(const RoundReport& rep, std::vector<std::string>& out) {
  const std::string tag = "round " + std::to_string(rep.round_index) + ": ";
  if (rep.attempted_bytes != rep.goodput_bytes + rep.overhead_bytes) {
    out.push_back(tag + "attempted != goodput + overhead");
  }
  // completed / dropped / rejected / probation / cut partition the
  // participants; cut = stragglers discarded at weight 0.
  std::vector<std::int64_t> cut;
  for (std::size_t i = 0; i < rep.straggled.size(); ++i) {
    if (i < rep.staleness_weights.size() && rep.staleness_weights[i] == 0.0) {
      cut.push_back(rep.straggled[i]);
    }
  }
  std::multiset<std::int64_t> seen;
  const std::vector<std::int64_t>* parts[] = {
      &rep.completed, &rep.dropped, &rep.rejected, &rep.probation, &cut};
  for (const auto* part : parts) {
    seen.insert(part->begin(), part->end());
  }
  const std::multiset<std::int64_t> want(rep.participants.begin(),
                                         rep.participants.end());
  if (seen != want) {
    out.push_back(tag + "outcomes do not partition the participants");
  }
  if (rep.rejected_structural + rep.rejected_norm + rep.rejected_robust !=
      static_cast<std::int64_t>(rep.rejected.size())) {
    out.push_back(tag + "rejection reasons do not sum to rejected");
  }
}

class EpisodeRunner {
 public:
  EpisodeRunner(const Workload& w, std::uint64_t seed, EpisodeOptions opt)
      : w_(w),
        seed_(derive_stream_seed(seed, opt.instance, 0, kInstanceSalt)),
        opt_(opt) {}

  EpisodeResult run() {
    ThreadPool::set_global(opt_.pool);
    res_.instance = opt_.instance;
    res_.pool_size = opt_.pool->size();
    g_spans.enable(opt_.traced);
    if (opt_.traced) obs::Tracer::instance().enable();
    obs::recorder().set_enabled(w_.recorder);
    obs::recorder().reset();
    const auto c0 = read_counters();
    const auto t0 = Clock::now();
    {
      SpanScope ep("episode");
      setup();
      schedule();
      evaluate();
    }
    res_.wall_s = ms_since(t0) / 1e3;
    const auto c1 = read_counters();
    add_delta(res_.episode_counters, c0, c1);
    if (opt_.traced) obs::Tracer::instance().disable();
    g_spans.enable(false);
    obs::recorder().set_enabled(false);
    ThreadPool::set_global(nullptr);
    return std::move(res_);
  }

  /// The cloud model after the episode (probes clone module layers from it).
  NebulaSystem& nebula() { return *nebula_; }
  TaskEnv& env() { return env_; }

  /// After the episode (accuracy already taken): extra Nebula rounds with
  /// the recorder alternating on and off, so both sides of
  /// obs.recorder_ratio see the same model and fleet state. Returns the
  /// round times in ms, {on, off}.
  std::pair<std::vector<double>, std::vector<double>> recorder_probe() {
    constexpr int kProbeRounds = 10;
    std::pair<std::vector<double>, std::vector<double>> ms;
    for (int i = 0; i < 2 * kProbeRounds; ++i) {
      const bool on = i % 2 == 0;
      obs::recorder().set_enabled(on);
      const auto t = Clock::now();
      nebula_->round();
      (on ? ms.first : ms.second).push_back(ms_since(t));
    }
    obs::recorder().set_enabled(false);
    return ms;
  }

 private:
  void setup() {
    SpanScope span("setup");
    const auto t0 = Clock::now();
    TaskSpec spec = task_by_name(w_.dataset, w_.partition);
    if (w_.proxy_samples > 0) spec.proxy_samples = w_.proxy_samples;
    BenchScale scale;
    scale.devices = w_.devices;
    scale.devices_per_round = w_.per_round;
    scale.pretrain_epochs = w_.pretrain_epochs;
    scale.test_samples = w_.test_samples;
    {
      SpanScope s("data.env_build");
      const auto t = Clock::now();
      env_ = make_task_env(spec, scale, seed_);
      res_.env_build_s = ms_since(t) / 1e3;
    }
    TrainConfig pre;
    pre.epochs = w_.pretrain_epochs;
    pre.lr = spec.pretrain_lr;
    EdgePopulation& pop = *env_.population;
    {
      ZooOptions zo;
      zo.init_seed = seed_ + 43;
      NebulaConfig nc;
      nc.devices_per_round = w_.per_round;
      nc.pretrain.epochs = w_.pretrain_epochs;
      nc.pretrain.lr = spec.pretrain_lr;
      nc.ability.finetune.epochs = w_.ability_epochs;
      nc.ability.finetune.lr = spec.pretrain_lr;
      nc.seed = seed_ + 44;
      if (w_.faults) {
        nc.fault_policy.round_deadline_s = kDeadlineS;
        nc.fault_policy.staleness_factor = 0.5f;
        nc.fault_policy.robust.kind = RobustAggregatorKind::kTrimmedMean;
        nc.fault_policy.robust.trim_fraction = 0.2;
        nc.fault_policy.robust.anomaly_threshold = 4.0;
        nc.fault_policy.probation_clean_rounds = 2;
      }
      nebula_ = std::make_unique<NebulaSystem>(env_.modular(zo), pop,
                                               env_.profiles, nc);
      SpanScope s("core.offline");
      const auto t = Clock::now();
      nebula_->offline(env_.proxy);
      res_.offline_s = ms_since(t) / 1e3;
      res_.offline_pretrain_s = obs::gauge("offline.pretrain_s").value();
      res_.offline_ability_s = obs::gauge("offline.ability_s").value();
    }
    {
      SpanScope s("baselines.fedavg.pretrain");
      const auto t = Clock::now();
      init::reseed(seed_ + 41);
      FedAvgConfig fc;
      fc.devices_per_round = w_.per_round;
      fc.seed = seed_ + 42;
      fedavg_ = std::make_unique<FedAvg>(env_.plain(), pop, fc);
      fedavg_->pretrain(env_.proxy.data, pre);
      res_.fedavg_pretrain_s = ms_since(t) / 1e3;
    }
    {
      SpanScope s("baselines.heterofl.pretrain");
      const auto t = Clock::now();
      init::reseed(seed_ + 45);
      HeteroFLConfig hc;
      hc.devices_per_round = w_.per_round;
      hc.seed = seed_ + 46;
      const TaskEnv* env = &env_;
      heterofl_ = std::make_unique<HeteroFL>(
          [env](double width) { return env->plain(width); }, pop,
          env_.profiles, hc);
      heterofl_->pretrain(env_.proxy.data, pre);
      res_.heterofl_pretrain_s = ms_since(t) / 1e3;
    }
    if (w_.faults) {
      const FaultConfig fc = faulty_schedule(w_, seed_);
      nebula_->inject_faults(fc);
      baseline_faults_ = std::make_unique<FaultInjector>(fc);
      fedavg_->set_fault_injector(baseline_faults_.get());
      heterofl_->set_fault_injector(baseline_faults_.get());
    }
    if (w_.drift_rate > 0.0f || w_.churn_prob > 0.0f) {
      pop.set_dynamics(w_.drift_rate, w_.churn_prob);
    }
    // Test sets are drawn up front, before any timed operation, so the
    // draws never interleave with the schedule.
    for (std::int64_t k = 0; k < w_.devices; ++k) {
      tests_.push_back(pop.device_test(k, w_.test_samples));
    }
    res_.setup_s = ms_since(t0) / 1e3;
  }

  /// Times one call; a throw is counted as a failed operation.
  template <typename F>
  void timed(const char* span, const char* series, F&& fn) {
    SpanScope s(span);
    ++res_.counts["calls"];
    const auto t = Clock::now();
    try {
      fn();
    } catch (const std::exception& e) {
      ++res_.counts["throws"];
      res_.violations.push_back(std::string(span) + " threw: " + e.what());
      return;
    }
    res_.series[series].push_back(ms_since(t));
  }

  void nebula_round() {
    SpanScope s("core.round");
    obs::recorder().set_enabled(w_.recorder);
    const auto c0 = read_counters();
    const auto t = Clock::now();
    RoundReport rep;
    try {
      rep = nebula_->round();
    } catch (const std::exception& e) {
      ++res_.counts["calls"];
      ++res_.counts["throws"];
      res_.violations.push_back(std::string("round threw: ") + e.what());
      return;
    }
    const double ms = ms_since(t);
    add_delta(res_.round_counters, c0, read_counters());
    ++nebula_rounds_;
    res_.series["round_ms"].push_back(ms);
    res_.series["phase_derive_ms"].push_back(rep.host_phases.derive_s * 1e3);
    res_.series["phase_train_ms"].push_back(rep.host_phases.train_s * 1e3);
    res_.series["phase_validate_ms"].push_back(rep.host_phases.validate_s *
                                               1e3);
    res_.series["phase_aggregate_ms"].push_back(rep.host_phases.aggregate_s *
                                                1e3);
    check_report(rep, res_.violations);
    std::int64_t cut = 0;
    for (double wgt : rep.staleness_weights) cut += wgt == 0.0 ? 1 : 0;
    auto& c = res_.counts;
    c["nebula_rounds"] += 1;
    c["participants"] += static_cast<std::int64_t>(rep.participants.size());
    c["completed"] += static_cast<std::int64_t>(rep.completed.size());
    c["dropped"] += static_cast<std::int64_t>(rep.dropped.size());
    c["rejected"] += static_cast<std::int64_t>(rep.rejected.size());
    c["probation"] += static_cast<std::int64_t>(rep.probation.size());
    c["cut"] += cut;
    c["rejected_structural"] += rep.rejected_structural;
    c["rejected_norm"] += rep.rejected_norm;
    c["rejected_robust"] += rep.rejected_robust;
    c["retries"] += rep.transfer_retries;
    c["goodput_bytes"] += rep.goodput_bytes;
    c["overhead_bytes"] += rep.overhead_bytes;
  }

  void round_all() {
    const bool baselines = nebula_rounds_ % w_.baseline_every == 0;
    nebula_round();
    if (!baselines) return;
    timed("baselines.fedavg.round", "fedavg_round_ms",
          [&] { fedavg_->round(); });
    timed("baselines.heterofl.round", "heterofl_round_ms",
          [&] { heterofl_->round(); });
  }

  void pair() {
    // Pairs stride across the fleet rather than taking its first devices.
    const std::int64_t n = static_cast<std::int64_t>(tests_.size());
    const std::int64_t stride = std::max<std::int64_t>(1, n / w_.pairs);
    const std::int64_t k = (pair_index_ * stride) % n;
    ++pair_index_;
    if (opt_.probe_mode) {
      timed("core.derive", "derive_ms", [&] { nebula_->derive(k); });
    }
    timed("core.adapt", "adapt_ms", [&] {
      nebula_->adapt_device(k, /*query_cloud=*/true, /*local_train=*/true,
                            /*upload=*/true);
    });
    timed("core.infer", "infer_ms", [&] {
      nebula_->eval_derived_on(k, tests_[static_cast<std::size_t>(k)]);
    });
  }

  void schedule() {
    SpanScope span("schedule");
    std::int64_t done = 0;
    for (std::int64_t r = 0; r < w_.rounds; ++r) {
      // On a static population environment_step() is a draw-free no-op;
      // it is still timed, so data.env_step_ms exists on every workload.
      timed("data.env_step", "env_step_ms",
            [&] { env_.population->environment_step(); });
      round_all();
      if (w_.interleave_pairs) {
        for (; done < (r + 1) * w_.pairs / w_.rounds; ++done) pair();
      }
    }
    for (; done < w_.pairs; ++done) pair();
  }

  void evaluate() {
    SpanScope span("eval.accuracy");
    obs::recorder().set_enabled(false);
    double acc = 0.0;
    for (std::size_t k = 0; k < tests_.size(); ++k) {
      acc += nebula_->eval_derived_on(static_cast<std::int64_t>(k), tests_[k]);
    }
    res_.accuracy = acc / static_cast<double>(tests_.size());
    const std::int64_t rounds = res_.counts["nebula_rounds"];
    res_.comm_mb_per_round =
        rounds > 0 ? static_cast<double>(res_.counts["goodput_bytes"]) /
                         (1024.0 * 1024.0) / static_cast<double>(rounds)
                   : 0.0;
    if (!model_state_finite(nebula_->cloud())) {
      res_.violations.push_back("cloud model is not finite");
    }
  }

  // Estimated device wall time past which an update is a straggler. In
  // har-faulty rounds simulated device walls sit at 1-10 ms (p80 about
  // 6 ms) and a retried transfer adds at least 0.5 s of backoff, so this
  // marks slowed and retried devices late without touching the rest.
  static constexpr double kDeadlineS = 0.006;

  Workload w_;
  std::uint64_t seed_;
  EpisodeOptions opt_;
  EpisodeResult res_;
  TaskEnv env_;
  std::unique_ptr<NebulaSystem> nebula_;
  std::unique_ptr<FedAvg> fedavg_;
  std::unique_ptr<HeteroFL> heterofl_;
  std::unique_ptr<FaultInjector> baseline_faults_;
  std::vector<Dataset> tests_;
  std::int64_t pair_index_ = 0;
  std::int64_t nebula_rounds_ = 0;
};

// ---- Layer probes (trace mode) ----------------------------------------------------

double median_of(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

Tensor random_tensor(const std::vector<std::int64_t>& shape, Rng& rng) {
  Tensor t(shape);
  for (std::int64_t i = 0; i < t.numel(); ++i) t.data()[i] = rng.normal();
  return t;
}

Tensor ones_like(const Tensor& t) {
  return Tensor(t.shape(), std::vector<float>(
                               static_cast<std::size_t>(t.numel()), 1.0f));
}

struct ProbeTimes {
  std::vector<double> fwd_us, bwd_us;  // one median per probed layer
};

/// Median forward/backward time of `layer` at input shape `in`.
void probe_layer(Layer& layer, const std::vector<std::int64_t>& in, Rng& rng,
                 int reps, ProbeTimes& out) {
  const Tensor x = random_tensor(in, rng);
  std::vector<double> f, b;
  for (int r = 0; r < reps; ++r) {
    auto t = Clock::now();
    Tensor y = layer.forward(x, /*train=*/true);
    f.push_back(ms_since(t) * 1e3);
    const Tensor g = ones_like(y);
    t = Clock::now();
    layer.backward(g);
    b.push_back(ms_since(t) * 1e3);
  }
  out.fwd_us.push_back(median_of(f));
  out.bwd_us.push_back(median_of(b));
}

double mean_or_zero(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double s = 0.0;
  for (double x : v) s += x;
  return s / static_cast<double>(v.size());
}

/// nn.* probes at the workload's own shapes: the direct Conv2d / BatchNorm
/// / Linear children of the plain model at the edge training batch, and the
/// cloud's module layers (train forward + backward at the training batch,
/// inference forward at the evaluation batch).
std::map<std::string, double> run_probes(EpisodeRunner& ep,
                                         std::uint64_t seed, int reps) {
  constexpr std::int64_t kTrainBatch = 16;  // TrainConfig::batch_size
  constexpr std::int64_t kEvalBatch = 64;   // evaluate_modular's batch
  Rng rng(seed ^ 0x9E0BE5ULL);
  init::reseed(seed + 77);
  ProbeTimes conv, bn, lin;
  auto probe_children = [&](Layer& model,
                            const std::vector<std::int64_t>& sample_shape,
                            bool linear) {
    auto& seq = dynamic_cast<Sequential&>(model);
    std::vector<std::int64_t> shape = {kTrainBatch};
    shape.insert(shape.end(), sample_shape.begin(), sample_shape.end());
    for (std::size_t i = 0; i < seq.size(); ++i) {
      Layer& child = seq[i];
      if (dynamic_cast<Conv2d*>(&child)) {
        probe_layer(child, shape, rng, reps, conv);
      } else if (dynamic_cast<BatchNorm*>(&child)) {
        probe_layer(child, shape, rng, reps, bn);
      } else if (linear && dynamic_cast<Linear*>(&child)) {
        probe_layer(child, shape, rng, reps, lin);
      }
      shape = child.out_shape(shape);
    }
  };
  LayerPtr plain = ep.env().plain();
  probe_children(*plain, ep.env().sample_shape(), /*linear=*/true);
  if (conv.fwd_us.empty()) {
    // The MLP has no conv layers: take the conv/BatchNorm probes at the
    // cifar-resnet shapes so every workload reports every nn.* metric.
    const SyntheticSpec cifar = cifar10_like_spec();
    LayerPtr resnet = make_plain(TaskModel::kResNet18, cifar.sample_shape,
                                 cifar.num_classes, 1.0);
    probe_children(*resnet, cifar.sample_shape, /*linear=*/false);
  }
  std::vector<double> ml_fwd, ml_bwd, ml_inf;
  auto cloud = ep.nebula().cloud().clone();
  for (std::size_t l = 0; l < cloud->num_module_layers(); ++l) {
    ModuleLayer& ml = cloud->module_layer(l);
    const std::int64_t width = ml.full_width();
    auto gates = [&](std::int64_t batch) {
      Tensor g({batch, width});
      for (std::int64_t r = 0; r < batch; ++r) {
        double sum = 0.0;
        for (std::int64_t c = 0; c < width; ++c) {
          const float v = std::exp(rng.normal());
          g.data()[r * width + c] = v;
          sum += v;
        }
        for (std::int64_t c = 0; c < width; ++c) {
          g.data()[r * width + c] /= static_cast<float>(sum);
        }
      }
      return g;
    };
    auto in_shape = [&](std::int64_t batch) {
      std::vector<std::int64_t> s = cloud->layer_input_shape(l);
      s[0] = batch;
      return s;
    };
    RoutingOpts ro;
    ro.top_k = 2;
    const Tensor xt = random_tensor(in_shape(kTrainBatch), rng);
    const Tensor gt = gates(kTrainBatch);
    const Tensor xi = random_tensor(in_shape(kEvalBatch), rng);
    const Tensor gi = gates(kEvalBatch);
    std::vector<double> f, b, inf;
    for (int r = 0; r < reps; ++r) {
      auto t = Clock::now();
      Tensor y = ml.forward(xt, gt, ro, /*train=*/true);
      f.push_back(ms_since(t) * 1e3);
      const Tensor g = ones_like(y);
      t = Clock::now();
      ml.backward(g);
      b.push_back(ms_since(t) * 1e3);
      t = Clock::now();
      ml.forward(xi, gi, ro, /*train=*/false);
      inf.push_back(ms_since(t) * 1e3);
    }
    ml_fwd.push_back(median_of(f));
    ml_bwd.push_back(median_of(b));
    ml_inf.push_back(median_of(inf));
  }
  return {
      {"nn.conv2d.fwd_us", mean_or_zero(conv.fwd_us)},
      {"nn.conv2d.bwd_us", mean_or_zero(conv.bwd_us)},
      {"nn.batchnorm.fwd_us", mean_or_zero(bn.fwd_us)},
      {"nn.batchnorm.bwd_us", mean_or_zero(bn.bwd_us)},
      {"nn.linear.fwd_us", mean_or_zero(lin.fwd_us)},
      {"nn.linear.bwd_us", mean_or_zero(lin.bwd_us)},
      {"nn.module_layer.train_fwd_us", mean_or_zero(ml_fwd)},
      {"nn.module_layer.bwd_us", mean_or_zero(ml_bwd)},
      {"nn.module_layer.infer_us", mean_or_zero(ml_inf)},
  };
}

// ---- Output ---------------------------------------------------------------------

std::string json_str(const std::string& s) {
  std::ostringstream o;
  o << '"';
  for (char c : s) {
    if (c == '"' || c == '\\') {
      o << '\\' << c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      o << ' ';
    } else {
      o << c;
    }
  }
  o << '"';
  return o.str();
}

std::string json_num(double v) {
  if (!std::isfinite(v)) return "null";
  std::ostringstream o;
  o << std::setprecision(17) << v;
  return o.str();
}

void write_array(std::ostream& os, const std::vector<double>& v) {
  os << "[";
  for (std::size_t i = 0; i < v.size(); ++i) {
    os << (i ? "," : "") << json_num(v[i]);
  }
  os << "]";
}

void write_episode(std::ostream& os, const EpisodeResult& e) {
  os << "{\"instance\":" << e.instance << ",\"pool\":" << e.pool_size
     << ",\"wall_s\":" << json_num(e.wall_s)
     << ",\"setup_s\":" << json_num(e.setup_s)
     << ",\"env_build_s\":" << json_num(e.env_build_s)
     << ",\"offline_s\":" << json_num(e.offline_s)
     << ",\"offline_pretrain_s\":" << json_num(e.offline_pretrain_s)
     << ",\"offline_ability_s\":" << json_num(e.offline_ability_s)
     << ",\"fedavg_pretrain_s\":" << json_num(e.fedavg_pretrain_s)
     << ",\"heterofl_pretrain_s\":" << json_num(e.heterofl_pretrain_s)
     << ",\"accuracy\":" << json_num(e.accuracy)
     << ",\"comm_mb_per_round\":" << json_num(e.comm_mb_per_round);
  auto write_int_map = [&](const char* key,
                           const std::map<std::string, std::int64_t>& m) {
    os << ",\"" << key << "\":{";
    bool first = true;
    for (const auto& [k, v] : m) {
      os << (first ? "" : ",") << json_str(k) << ":" << v;
      first = false;
    }
    os << "}";
  };
  write_int_map("counts", e.counts);
  write_int_map("round_counters", e.round_counters);
  write_int_map("episode_counters", e.episode_counters);
  os << ",\"series\":{";
  bool first = true;
  for (const auto& [k, v] : e.series) {
    os << (first ? "" : ",") << json_str(k) << ":";
    write_array(os, v);
    first = false;
  }
  os << "},\"violations\":[";
  for (std::size_t i = 0; i < e.violations.size(); ++i) {
    os << (i ? "," : "") << json_str(e.violations[i]);
  }
  os << "]}";
}

void write_spans(const std::string& path) {
  std::ofstream os(path);
  os << "{\"spans\":[";
  const auto& spans = g_spans.spans();
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    os << (i ? ",\n" : "\n") << "{\"name\":" << json_str(s.name)
       << ",\"id\":" << s.id << ",\"parent\":" << s.parent
       << ",\"start_us\":" << json_num(s.start_us)
       << ",\"end_us\":" << json_num(s.end_us) << "}";
  }
  os << "]}\n";
  if (!os) throw std::runtime_error("cannot write spans to " + path);
}

std::size_t affinity_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    return static_cast<std::size_t>(std::max(1, CPU_COUNT(&set)));
  }
  return std::max(1u, std::thread::hardware_concurrency());
}

double peak_rss_mb() {
  struct rusage ru;
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  int trace = 0;
  long episodes = 0;  // > 0 overrides the count --seconds implies
  std::string out, spans, lib_trace;
};

Args parse_args(int argc, char** argv) {
  Args a;
  bool have_workload = false, have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) throw std::runtime_error("missing value for " + key);
    const std::string val = argv[++i];
    if (key == "--workload") {
      a.workload = val;
      have_workload = true;
    } else if (key == "--seed") {
      a.seed = std::stoull(val);
      have_seed = true;
    } else if (key == "--seconds") {
      a.seconds = std::stod(val);
    } else if (key == "--trace") {
      a.trace = std::stoi(val);
    } else if (key == "--episodes") {
      a.episodes = std::stol(val);
    } else if (key == "--out") {
      a.out = val;
    } else if (key == "--spans") {
      a.spans = val;
    } else if (key == "--lib-trace") {
      a.lib_trace = val;
    } else {
      throw std::runtime_error("unknown argument " + key);
    }
  }
  if (!have_workload || !have_seed || a.out.empty()) {
    throw std::runtime_error("--workload, --seed and --out are required");
  }
  if (a.trace != 0 && a.trace != 1) throw std::runtime_error("--trace is 0|1");
  return a;
}

int run(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  // End-to-end numbers must not carry the library's env-driven sinks.
  for (const char* var : {"NEBULA_TRACE", "NEBULA_EVENTS", "NEBULA_TIMELINE",
                          "NEBULA_OBS_PORT"}) {
    if (std::getenv(var) != nullptr) {
      throw std::runtime_error(std::string(var) +
                               " is set; unset it before benchmarking");
    }
  }
  const Workload w = workload_by_name(args.workload);
  const std::size_t nproc = affinity_cpus();
  ThreadPool pool(nproc);
  std::vector<EpisodeResult> episodes;
  std::map<std::string, double> probes;
  std::pair<std::vector<double>, std::vector<double>> recorder_ms;
  if (args.trace == 0) {
    const long runs =
        args.episodes > 0
            ? args.episodes
            : std::max<long>(kMinEpisodes,
                             std::lround(args.seconds / w.nominal_episode_s));
    for (std::int64_t i = 0; i < runs; ++i) {
      EpisodeRunner ep(w, args.seed, {i, &pool, false, false});
      episodes.push_back(ep.run());
    }
  } else {
    // Untraced reference, traced pass, then the single-worker baseline. All
    // three carry the same probe-mode extras so they compare like with like.
    // The library's gemm/conv spans run to millions per cifar-resnet
    // episode; the cap keeps the written trace near 20 MB (the excess is
    // counted in trace.dropped).
    obs::Tracer::instance().set_thread_buffer_cap(50000);
    ThreadPool pool1(1);
    {
      EpisodeRunner ep(w, args.seed, {0, &pool, false, true});
      episodes.push_back(ep.run());
      ThreadPool::set_global(&pool);
      recorder_ms = ep.recorder_probe();
      ThreadPool::set_global(nullptr);
    }
    {
      EpisodeRunner ep(w, args.seed, {0, &pool, true, true});
      episodes.push_back(ep.run());
      ThreadPool::set_global(&pool);
      probes = run_probes(ep, args.seed, /*reps=*/31);
      ThreadPool::set_global(nullptr);
    }
    {
      EpisodeRunner ep(w, args.seed, {0, &pool1, false, true});
      episodes.push_back(ep.run());
    }
    if (!args.spans.empty()) write_spans(args.spans);
    if (!args.lib_trace.empty()) {
      obs::Tracer::instance().write_file(args.lib_trace);
    }
  }

  std::ofstream os(args.out);
  os << "{\"workload\":" << json_str(w.name) << ",\"seed\":" << args.seed
     << ",\"trace\":" << args.trace << ",\"context\":{"
     << "\"nproc\":" << nproc << ",\"pool_size\":" << pool.size()
     << ",\"gemm_kernel\":" << json_str(gemm_kernel_name())
     << ",\"cpu_features\":" << json_str(cpu_feature_string())
     << ",\"compiler\":" << json_str(__VERSION__)
     << ",\"build_type\":" << json_str(NEBULA_E2E_BUILD_TYPE)
     << ",\"devices\":" << w.devices << ",\"per_round\":" << w.per_round
     << ",\"clients\":1,\"loop\":\"closed\"}"
     << ",\"peak_rss_mb\":" << json_num(peak_rss_mb())
     << ",\"probes\":{";
  bool first = true;
  for (const auto& [k, v] : probes) {
    os << (first ? "" : ",") << json_str(k) << ":" << json_num(v);
    first = false;
  }
  os << "},\"recorder_on_ms\":";
  write_array(os, recorder_ms.first);
  os << ",\"recorder_off_ms\":";
  write_array(os, recorder_ms.second);
  os << ",\"episodes\":[";
  for (std::size_t i = 0; i < episodes.size(); ++i) {
    if (i) os << ",";
    write_episode(os, episodes[i]);
  }
  os << "]}\n";
  if (!os) throw std::runtime_error("cannot write " + args.out);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "nebula_e2e: %s\n", e.what());
    return 2;
  }
}
