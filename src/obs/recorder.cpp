#include "obs/recorder.h"

#include <cstdlib>
#include <fstream>
#include <ostream>

#include "common/check.h"
#include "obs/endpoint.h"
#include "obs/events.h"
#include "obs/json.h"
#include "obs/metrics.h"

namespace nebula::obs {

namespace {

// Retained-alert bound: a wedged fleet alerting every round for days must
// not grow memory without limit. Oldest alerts are dropped (and counted).
constexpr std::size_t kMaxRetainedAlerts = 1024;

void write_alert(JsonWriter& w, const Alert& a) {
  w.begin_object();
  w.key("type").value("alert");
  w.key("round").value(a.round);
  w.key("monitor").value(a.monitor);
  w.key("reason").value(a.reason);
  w.key("value").value(a.value);
  w.key("baseline").value(a.baseline);
  w.key("deviation").value(a.deviation);
  w.end_object();
}

std::string alert_line(const Alert& a) {
  JsonWriter w;
  write_alert(w, a);
  return w.str();
}

}  // namespace

FlightRecorder::FlightRecorder() {
  // Built-in monitors, tuned for the signals round() feeds. Signals live in
  // [0,1] except robust_score (distance-to-median ratio, ~1 for honest
  // updates); the absolute floors keep quiet fleets from alerting on noise.
  MonitorConfig rejection;
  rejection.spike_min_dev = 0.15;
  rejection.ph_delta = 0.01;
  rejection.ph_lambda = 0.5;
  monitors_.push_back(
      std::make_unique<HealthMonitor>(kMonRejectionRate, rejection));

  MonitorConfig entropy;
  entropy.spike_min_dev = 0.1;
  entropy.detect_down = true;
  entropy.ph_delta = 0.01;
  entropy.ph_lambda = 0.4;
  monitors_.push_back(
      std::make_unique<HealthMonitor>(kMonRoutingEntropy, entropy));

  MonitorConfig robust;
  robust.spike_min_dev = 0.75;
  robust.ph_delta = 0.05;
  robust.ph_lambda = 3.0;
  monitors_.push_back(
      std::make_unique<HealthMonitor>(kMonRobustScore, robust));

  MonitorConfig accuracy;
  accuracy.detect_up = false;
  accuracy.detect_down = true;
  accuracy.spike_min_dev = 0.05;
  accuracy.ph_delta = 0.005;
  accuracy.ph_lambda = 0.15;
  accuracy.cooldown = 8;
  monitors_.push_back(
      std::make_unique<HealthMonitor>(kMonAccuracy, accuracy));

  for (const char* name : {"train", "comm", "robust_score", "staleness"}) {
    digests_.push_back({name, QuantileDigest(1e-3, 1.45, 56)});
  }

  if (const char* env = std::getenv("NEBULA_TIMELINE")) {
    flush_path_ = env;
    set_enabled(true);
    std::atexit([] { FlightRecorder::instance().flush_env(); });
  }
  if (std::getenv("NEBULA_OBS_PORT")) {
    set_enabled(true);
    ensure_endpoint_from_env();
  }
}

FlightRecorder& FlightRecorder::instance() {
  // Leaked for the same reason as MetricsRegistry: the atexit flush must run
  // after every other static destructor that might still feed the recorder.
  static FlightRecorder* rec = new FlightRecorder();
  return *rec;
}

namespace {
// Static-init touch: arms the NEBULA_TIMELINE / NEBULA_OBS_PORT bootstrap
// even for processes that never feed the recorder explicitly.
[[maybe_unused]] const bool g_recorder_boot =
    (FlightRecorder::instance(), true);
}  // namespace

HealthMonitor* FlightRecorder::find_monitor_locked(const std::string& name) {
  for (auto& m : monitors_) {
    if (m->name() == name) return m.get();
  }
  return nullptr;
}

QuantileDigest* FlightRecorder::find_digest_locked(const std::string& name) {
  for (auto& d : digests_) {
    if (d.name == name) return &d.digest;
  }
  return nullptr;
}

void FlightRecorder::feed_monitor_locked(const std::string& name,
                                         std::int64_t round, double value) {
  HealthMonitor* mon = find_monitor_locked(name);
  if (mon == nullptr) return;
  std::optional<Alert> alert = mon->update(round, value);
  if (!alert) return;
  if (alerts_.size() >= kMaxRetainedAlerts) {
    alerts_.erase(alerts_.begin());
  }
  alerts_.push_back(*alert);
  counter("obs.alerts").add();
  EventLog& log = EventLog::instance();
  if (log.enabled()) log.emit(alert_line(*alert));
}

void FlightRecorder::observe_round(
    const RoundSample& sample, const std::vector<double>& device_train_s,
    const std::vector<double>& device_comm_s,
    const std::vector<double>& robust_scores,
    const std::vector<double>& staleness_weights) {
  if (!enabled()) return;
  timeseries_.push(sample);
  counter("obs.rounds_recorded").add();

  std::lock_guard<std::mutex> lock(mu_);
  if (QuantileDigest* d = find_digest_locked("train")) {
    for (double v : device_train_s) d->observe(v);
  }
  if (QuantileDigest* d = find_digest_locked("comm")) {
    for (double v : device_comm_s) d->observe(v);
  }
  if (QuantileDigest* d = find_digest_locked("robust_score")) {
    for (double v : robust_scores) d->observe(v);
  }
  if (QuantileDigest* d = find_digest_locked("staleness")) {
    for (double v : staleness_weights) d->observe(v);
  }

  if (sample.participants > 0) {
    feed_monitor_locked(kMonRejectionRate, sample.round,
                        sample.rejection_rate);
    feed_monitor_locked(kMonRoutingEntropy, sample.round,
                        sample.routing_entropy);
  }
  if (!robust_scores.empty()) {
    double mean = 0.0;
    for (double v : robust_scores) mean += v;
    mean /= static_cast<double>(robust_scores.size());
    feed_monitor_locked(kMonRobustScore, sample.round, mean);
  }
}

void FlightRecorder::observe_accuracy(std::int64_t round, double accuracy) {
  if (!enabled()) return;
  timeseries_.annotate_accuracy(round, accuracy);
  std::lock_guard<std::mutex> lock(mu_);
  feed_monitor_locked(kMonAccuracy, round, accuracy);
}

void FlightRecorder::observe_metric(const std::string& monitor,
                                    std::int64_t round, double value) {
  if (!enabled()) return;
  std::lock_guard<std::mutex> lock(mu_);
  if (find_monitor_locked(monitor) == nullptr) {
    monitors_.push_back(
        std::make_unique<HealthMonitor>(monitor, MonitorConfig{}));
  }
  feed_monitor_locked(monitor, round, value);
}

void FlightRecorder::record_device_event(std::int64_t round, int device,
                                         TimelineKind kind,
                                         const char* source, double value,
                                         const char* detail) {
  if (!enabled()) return;
  timeline_.record(round, device, kind, source, value, detail);
}

std::vector<Alert> FlightRecorder::alerts() const {
  std::lock_guard<std::mutex> lock(mu_);
  return alerts_;
}

std::vector<Alert> FlightRecorder::alerts_for(
    const std::string& monitor) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<Alert> out;
  for (const Alert& a : alerts_) {
    if (a.monitor == monitor) out.push_back(a);
  }
  return out;
}

double FlightRecorder::digest_quantile(const std::string& digest,
                                       double q) const {
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& d : digests_) {
    if (d.name == digest) return d.digest.quantile(q);
  }
  return 0.0;
}

void FlightRecorder::configure_monitor(const std::string& name,
                                       const MonitorConfig& cfg) {
  std::lock_guard<std::mutex> lock(mu_);
  if (HealthMonitor* mon = find_monitor_locked(name)) {
    *mon = HealthMonitor(name, cfg);
  } else {
    monitors_.push_back(std::make_unique<HealthMonitor>(name, cfg));
  }
}

void FlightRecorder::write_health_json(std::ostream& os) const {
  std::lock_guard<std::mutex> lock(mu_);
  JsonWriter w;
  w.begin_object();
  w.key("monitors").begin_array();
  for (const auto& m : monitors_) {
    w.begin_object();
    w.key("name").value(m->name());
    w.key("baseline").value(m->baseline());
    w.key("samples").value(m->samples());
    w.end_object();
  }
  w.end_array();
  w.key("digests").begin_array();
  for (const auto& d : digests_) {
    w.begin_object();
    w.key("name").value(d.name);
    w.key("count").value(d.digest.count());
    w.key("p50").value(d.digest.quantile(0.5));
    w.key("p95").value(d.digest.quantile(0.95));
    w.key("p99").value(d.digest.quantile(0.99));
    w.key("mean").value(d.digest.mean());
    w.key("max").value(d.digest.max());
    w.end_object();
  }
  w.end_array();
  w.key("alerts").begin_array();
  for (const Alert& a : alerts_) write_alert(w, a);
  w.end_array();
  w.end_object();
  os << w.str();
}

void FlightRecorder::write_jsonl(std::ostream& os) const {
  timeline_.write_jsonl(os);
  for (const Alert& a : alerts()) os << alert_line(a) << '\n';
}

int FlightRecorder::ensure_endpoint_from_env() {
  const char* env = std::getenv("NEBULA_OBS_PORT");
  if (env == nullptr) return 0;
  if (endpoint_ && endpoint_->running()) return endpoint_->port();
  return start_endpoint(std::atoi(env));
}

int FlightRecorder::start_endpoint(int port) {
  if (endpoint_ && endpoint_->running()) return endpoint_->port();
  endpoint_ = std::make_unique<ObsEndpoint>();
  return endpoint_->start(port);
}

void FlightRecorder::stop_endpoint() {
  if (endpoint_) endpoint_->stop();
  endpoint_.reset();
}

void FlightRecorder::flush_env() {
  std::string path;
  {
    std::lock_guard<std::mutex> lock(mu_);
    path = flush_path_;
  }
  if (path.empty()) return;
  std::ofstream out(path);
  if (out) write_jsonl(out);
}

void FlightRecorder::reset() {
  timeseries_.clear();
  timeline_.clear();
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& d : digests_) d.digest.reset();
  for (auto& m : monitors_) m->reset();
  alerts_.clear();
}

}  // namespace nebula::obs
