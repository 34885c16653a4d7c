// Analytic resource cost models for running a model on an edge device.
//
// The paper measures these on physical Jetson Nano / Raspberry Pi devices;
// here they are derived from the actual architecture of the model in
// question (FLOPs from layer introspection, activation/parameter footprints
// from shapes), so every comparison between methods reflects real structural
// differences between the models they deploy.
#pragma once

#include <cstdint>
#include <vector>

#include "nn/layer.h"
#include "sim/device.h"

namespace nebula {

class CostModel {
 public:
  /// On-disk / on-wire size of the model parameters (MB).
  static double model_size_mb(Layer& model);

  /// Forward FLOPs for a single sample with the given (batch=1) input shape.
  static std::int64_t forward_flops(Layer& model,
                                    std::vector<std::int64_t> sample_shape);

  /// Training FLOPs per sample: forward + backward ≈ 3x forward.
  static std::int64_t training_flops(Layer& model,
                                     std::vector<std::int64_t> sample_shape) {
    return 3 * forward_flops(model, std::move(sample_shape));
  }

  /// Peak memory for inference: parameters + two live activation tensors.
  static double inference_peak_mem_mb(Layer& model,
                                      std::vector<std::int64_t> sample_shape,
                                      std::int64_t batch = 1);

  /// Peak memory for training: parameters + gradients + optimiser state +
  /// all cached activations (the backward tape). Matches the paper's
  /// Figure 2(c) observation that training costs >10x inference memory.
  static double training_peak_mem_mb(Layer& model,
                                     std::vector<std::int64_t> sample_shape,
                                     std::int64_t batch = 16);

  /// Inference latency (ms) for one batch under contention.
  static double inference_latency_ms(Layer& model,
                                     std::vector<std::int64_t> sample_shape,
                                     std::int64_t batch,
                                     const DeviceProfile& device,
                                     const RuntimeMonitor& runtime);

  /// Training latency (ms) for one batch under contention.
  static double training_latency_ms(Layer& model,
                                    std::vector<std::int64_t> sample_shape,
                                    std::int64_t batch,
                                    const DeviceProfile& device,
                                    const RuntimeMonitor& runtime);

  /// Seconds of raw compute for `flops` on a device, inflated by `slowdown`
  /// (contention factor or fault-injected straggler multiplier). The
  /// latency_ms entry points and the fault-tolerant round protocol both
  /// funnel through this.
  static double compute_time_s(double flops, const DeviceProfile& device,
                               double slowdown = 1.0);

  /// Seconds to move `bytes` over the device's link. `bandwidth_factor`
  /// scales the effective bandwidth (< 1 models a degraded link).
  static double transfer_time_s(std::int64_t bytes,
                                const DeviceProfile& device,
                                double bandwidth_factor = 1.0);

  /// Fixed per-batch dispatch overhead (kernel launches, memcpy). Scaled to
  /// the reduced model sizes of this reproduction so that compute, not
  /// overhead, carries the latency comparisons.
  static double dispatch_overhead_s(const DeviceProfile& device,
                                    bool training) {
    if (training) return device.has_gpu ? 0.15e-3 : 0.06e-3;
    return device.has_gpu ? 0.05e-3 : 0.02e-3;
  }

 private:
  static std::vector<std::int64_t> batched(std::vector<std::int64_t> shape,
                                           std::int64_t batch) {
    shape.insert(shape.begin(), batch);
    return shape;
  }
};

/// Accumulates edge-cloud traffic over a collaborative training run.
///
/// Goodput (download/upload bytes of transfers that completed) is tracked
/// separately from fault-induced overhead (bytes burnt by transfer attempts
/// that failed and were retried or abandoned), so comm plots can distinguish
/// useful traffic from waste. `total_bytes`/`total_mb` remain goodput-only
/// for continuity with pre-fault plots.
class CommLedger {
 public:
  void record_download(std::int64_t bytes) {
    NEBULA_CHECK(bytes >= 0);
    download_bytes_ += bytes;
    ++download_attempts_;
  }
  void record_upload(std::int64_t bytes) {
    NEBULA_CHECK(bytes >= 0);
    upload_bytes_ += bytes;
    ++upload_attempts_;
  }
  /// A download attempt that failed in flight: counts the wasted bytes and
  /// the attempt, but no goodput.
  void record_failed_download(std::int64_t bytes) {
    NEBULA_CHECK(bytes >= 0);
    wasted_download_bytes_ += bytes;
    ++download_attempts_;
    ++failed_attempts_;
  }
  void record_failed_upload(std::int64_t bytes) {
    NEBULA_CHECK(bytes >= 0);
    wasted_upload_bytes_ += bytes;
    ++upload_attempts_;
    ++failed_attempts_;
  }
  void reset() {
    download_bytes_ = upload_bytes_ = 0;
    wasted_download_bytes_ = wasted_upload_bytes_ = 0;
    download_attempts_ = upload_attempts_ = failed_attempts_ = 0;
  }

  /// Folds another ledger's totals into this one. The parallel round
  /// protocol gives each device a private delta ledger and merges them in
  /// participant order after the barrier, so the system ledger never sees
  /// concurrent writes.
  void merge(const CommLedger& other) {
    download_bytes_ += other.download_bytes_;
    upload_bytes_ += other.upload_bytes_;
    wasted_download_bytes_ += other.wasted_download_bytes_;
    wasted_upload_bytes_ += other.wasted_upload_bytes_;
    download_attempts_ += other.download_attempts_;
    upload_attempts_ += other.upload_attempts_;
    failed_attempts_ += other.failed_attempts_;
  }

  std::int64_t download_bytes() const { return download_bytes_; }
  std::int64_t upload_bytes() const { return upload_bytes_; }
  std::int64_t total_bytes() const { return download_bytes_ + upload_bytes_; }
  double total_mb() const {
    return static_cast<double>(total_bytes()) / (1024.0 * 1024.0);
  }

  std::int64_t wasted_download_bytes() const { return wasted_download_bytes_; }
  std::int64_t wasted_upload_bytes() const { return wasted_upload_bytes_; }
  std::int64_t overhead_bytes() const {
    return wasted_download_bytes_ + wasted_upload_bytes_;
  }
  double overhead_mb() const {
    return static_cast<double>(overhead_bytes()) / (1024.0 * 1024.0);
  }
  /// Goodput + fault-induced retransmission overhead.
  std::int64_t total_bytes_with_overhead() const {
    return total_bytes() + overhead_bytes();
  }
  /// Every byte any transfer attempt put on the wire. Identical to
  /// total_bytes_with_overhead(); the name round telemetry checks
  /// conservation against (attempted == goodput + overhead).
  std::int64_t attempted_bytes() const { return total_bytes_with_overhead(); }
  std::int64_t download_attempts() const { return download_attempts_; }
  std::int64_t upload_attempts() const { return upload_attempts_; }
  std::int64_t failed_attempts() const { return failed_attempts_; }

 private:
  std::int64_t download_bytes_ = 0;
  std::int64_t upload_bytes_ = 0;
  std::int64_t wasted_download_bytes_ = 0;
  std::int64_t wasted_upload_bytes_ = 0;
  std::int64_t download_attempts_ = 0;
  std::int64_t upload_attempts_ = 0;
  std::int64_t failed_attempts_ = 0;
};

}  // namespace nebula
