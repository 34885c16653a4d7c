// Fleet flight recorder (DESIGN.md §14): the process-wide aggregation point
// for the time-series ring, per-device timelines, latency/score quantile
// digests and online health monitors.
//
// Cost discipline matches the rest of src/obs/: disabled (the default) every
// feed call is one relaxed atomic load and an early return. Enabled, all
// feeding happens from the *serial* merge phase of a round — never inside a
// parallel region — so a single mutex per substructure suffices and the
// recorder can never reorder merges or perturb RNG streams (it draws no
// randomness and reads no clocks beyond what RoundReport already carries).
// Bit-identity contract: enabling recording must not change any simulation
// output (pinned by tests/test_flight_recorder.cpp).
//
// Environment bootstrap:
//   NEBULA_TIMELINE=path  enable + dump timeline/alert JSONL to path at exit
//   NEBULA_OBS_PORT=n     enable + serve /metrics /timeseries /devices
//                         /health on 127.0.0.1:n (see obs/endpoint.h)
#pragma once

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "obs/monitor.h"
#include "obs/timeline.h"
#include "obs/timeseries.h"

namespace nebula::obs {

class ObsEndpoint;

/// Names of the built-in per-round monitors (see FlightRecorder ctor for
/// their default configs).
inline constexpr const char* kMonRejectionRate = "rejection_rate";
inline constexpr const char* kMonRoutingEntropy = "routing_entropy";
inline constexpr const char* kMonRobustScore = "robust_score";
inline constexpr const char* kMonAccuracy = "accuracy";
/// Fed by the drift experiments: fraction of the fleet replaced this round.
inline constexpr const char* kMonChurnRate = "churn_rate";

class FlightRecorder {
 public:
  static FlightRecorder& instance();

  /// Fast-path guard: one relaxed load. All feed methods check it
  /// themselves, but hot callers with non-trivial argument prep should too.
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  void set_enabled(bool on) {
    enabled_.store(on, std::memory_order_relaxed);
  }

  // ---- Feeding (serial merge phase only) ------------------------------------

  /// One round's distilled sample plus the per-device distributions that
  /// feed the quantile digests. Runs the health monitors and appends any
  /// alerts. All vectors may be empty. No-op when disabled.
  void observe_round(const RoundSample& sample,
                     const std::vector<double>& device_train_s,
                     const std::vector<double>& device_comm_s,
                     const std::vector<double>& robust_scores,
                     const std::vector<double>& staleness_weights);

  /// Probe accuracy measured after `round` (experiment loops): annotates the
  /// retained sample and feeds the accuracy monitor. No-op when disabled.
  void observe_accuracy(std::int64_t round, double accuracy);

  /// Feeds an arbitrary named monitor (created with the default MonitorConfig
  /// on first use — configure_monitor to tune). The extension point for
  /// signals round() does not know about: churn rate, queue depths, custom
  /// experiment telemetry. No-op when disabled.
  void observe_metric(const std::string& monitor, std::int64_t round,
                      double value);

  /// Appends one per-device timeline event. No-op when disabled.
  void record_device_event(std::int64_t round, int device, TimelineKind kind,
                           const char* source = "nebula", double value = 0.0,
                           const char* detail = "");

  // ---- In-process queries ---------------------------------------------------

  TimeSeriesRing& timeseries() { return timeseries_; }
  TimelineStore& timeline() { return timeline_; }
  std::vector<Alert> alerts() const;
  /// Alerts from one named monitor, chronological.
  std::vector<Alert> alerts_for(const std::string& monitor) const;

  /// Digest quantile for one of: "train", "comm", "robust_score",
  /// "staleness". Returns 0 when the digest is empty or unknown.
  double digest_quantile(const std::string& digest, double q) const;

  /// Replaces (and resets) a built-in monitor's config — tests and benches
  /// tune sensitivity per scenario. Unknown names are created.
  void configure_monitor(const std::string& name, const MonitorConfig& cfg);

  // ---- Export ---------------------------------------------------------------

  /// /health payload: monitor states + retained alerts.
  void write_health_json(std::ostream& os) const;
  /// Timeline JSONL followed by one alert line per alert (the artifact
  /// validated by tools/check_trace.py --timeline).
  void write_jsonl(std::ostream& os) const;

  /// Serves NEBULA_OBS_PORT when set (idempotent); used by serve_obs_demo.
  /// Returns the bound port, or 0 when no endpoint is running.
  int ensure_endpoint_from_env();
  /// Starts the inspection endpoint on `port` (0 = ephemeral). Returns the
  /// bound port.
  int start_endpoint(int port);
  void stop_endpoint();

  /// Writes the NEBULA_TIMELINE artifact, if the env var was set.
  void flush_env();
  /// Clears every substructure and re-arms monitors (tests, multi-phase
  /// benches). Does not touch enablement or the endpoint.
  void reset();

 private:
  FlightRecorder();

  std::atomic<bool> enabled_{false};
  TimeSeriesRing timeseries_;
  TimelineStore timeline_;

  mutable std::mutex mu_;  // guards digests_, monitors_, alerts_
  struct NamedDigest {
    std::string name;
    QuantileDigest digest;
  };
  std::vector<NamedDigest> digests_;
  std::vector<std::unique_ptr<HealthMonitor>> monitors_;
  std::vector<Alert> alerts_;

  std::string flush_path_;
  std::unique_ptr<ObsEndpoint> endpoint_;

  HealthMonitor* find_monitor_locked(const std::string& name);
  void feed_monitor_locked(const std::string& name, std::int64_t round,
                           double value);
  QuantileDigest* find_digest_locked(const std::string& name);
};

inline FlightRecorder& recorder() { return FlightRecorder::instance(); }

}  // namespace nebula::obs
