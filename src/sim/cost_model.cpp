#include "sim/cost_model.h"

#include "nn/state.h"
#include "obs/metrics.h"

namespace nebula {

namespace {
constexpr double kBytesPerParam = 4.0;  // float32
constexpr double kMb = 1024.0 * 1024.0;
}  // namespace

double CostModel::model_size_mb(Layer& model) {
  return static_cast<double>(param_size(model)) * kBytesPerParam / kMb;
}

std::int64_t CostModel::forward_flops(
    Layer& model, std::vector<std::int64_t> sample_shape) {
  return model.flops(batched(std::move(sample_shape), 1));
}

double CostModel::inference_peak_mem_mb(
    Layer& model, std::vector<std::int64_t> sample_shape, std::int64_t batch) {
  const auto in = batched(std::move(sample_shape), batch);
  const double params = static_cast<double>(param_size(model));
  // Two live tensors (input/output of the current layer); bounded below by
  // the model input itself.
  const double live = 2.0 * static_cast<double>(Tensor::numel_from(in));
  return (params + live) * kBytesPerParam / kMb;
}

double CostModel::training_peak_mem_mb(
    Layer& model, std::vector<std::int64_t> sample_shape, std::int64_t batch) {
  const auto in = batched(std::move(sample_shape), batch);
  const double params = static_cast<double>(param_size(model));
  const double acts = static_cast<double>(model.activation_elems(in));
  // params + grads + momentum state + cached activations (+ their grads in
  // flight, amortised as one extra activation copy).
  return (3.0 * params + 2.0 * acts) * kBytesPerParam / kMb;
}

double CostModel::inference_latency_ms(Layer& model,
                                       std::vector<std::int64_t> sample_shape,
                                       std::int64_t batch,
                                       const DeviceProfile& device,
                                       const RuntimeMonitor& runtime) {
  const double flops = static_cast<double>(
      forward_flops(model, std::move(sample_shape))) *
                       static_cast<double>(batch);
  const double overhead_s = dispatch_overhead_s(device, /*training=*/false);
  return (compute_time_s(flops, device, runtime.contention_factor()) +
          overhead_s * runtime.contention_factor()) *
         1e3;
}

double CostModel::training_latency_ms(Layer& model,
                                      std::vector<std::int64_t> sample_shape,
                                      std::int64_t batch,
                                      const DeviceProfile& device,
                                      const RuntimeMonitor& runtime) {
  const double flops = static_cast<double>(
      training_flops(model, std::move(sample_shape))) *
                       static_cast<double>(batch);
  const double overhead_s = dispatch_overhead_s(device, /*training=*/true);
  return (compute_time_s(flops, device, runtime.contention_factor()) +
          overhead_s * runtime.contention_factor()) *
         1e3;
}

double CostModel::compute_time_s(double flops, const DeviceProfile& device,
                                 double slowdown) {
  NEBULA_CHECK(flops >= 0.0 && slowdown >= 1.0);
  const double t = flops / device.flops_per_sec * slowdown;
  // 1ms .. ~17min in half-decade steps: spans a tiny inference batch up to a
  // straggler-inflated local training pass.
  static obs::Histogram& m_hist =
      obs::histogram("sim.compute_s", obs::exp_bounds(1e-3, 3.1623, 13));
  m_hist.observe(t);
  return t;
}

double CostModel::transfer_time_s(std::int64_t bytes,
                                  const DeviceProfile& device,
                                  double bandwidth_factor) {
  NEBULA_CHECK(bytes >= 0);
  NEBULA_CHECK(bandwidth_factor > 0.0 && bandwidth_factor <= 1.0);
  const double bits = static_cast<double>(bytes) * 8.0;
  const double t = bits / (device.bandwidth_mbps * 1e6 * bandwidth_factor);
  static obs::Histogram& m_hist =
      obs::histogram("sim.transfer_s", obs::exp_bounds(1e-3, 3.1623, 13));
  m_hist.observe(t);
  return t;
}

}  // namespace nebula
