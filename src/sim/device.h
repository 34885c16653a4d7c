// Edge device modelling: hardware profiles and the runtime contention monitor.
//
// Profiles are sampled from AI-Benchmark-like distributions (DESIGN.md §2):
// mobile SoCs and IoT boards span roughly two orders of magnitude in compute
// and 1–12 GB of RAM. Two named presets reproduce the paper's physical
// testbed (NVIDIA Jetson Nano 4 GB with GPU, Raspberry Pi 4B 2 GB CPU-only).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/check.h"
#include "common/rng.h"

namespace nebula {

enum class DeviceClass { kMobileSoc, kIotBoard, kJetsonNano, kRaspberryPi };

const char* device_class_name(DeviceClass c);

struct DeviceProfile {
  DeviceClass cls = DeviceClass::kMobileSoc;
  double mem_capacity_mb = 4096.0;   // RAM available for the model runtime
  double flops_per_sec = 50e9;       // effective sustained compute
  double bandwidth_mbps = 100.0;     // uplink/downlink to the cloud
  bool has_gpu = false;
  /// Deployment region (cell tower / site). Correlated outages take down
  /// every device sharing a region at once (FaultConfig::regional_outage_prob).
  std::int64_t region = 0;

  /// The paper's Jetson Nano: 4 GB, on-device GPU (effective ~40 GFLOP/s
  /// sustained for small-batch training), WiFi.
  static DeviceProfile jetson_nano();

  /// The paper's Raspberry Pi 4B: 2 GB, CPU only (~4 GFLOP/s), WiFi.
  static DeviceProfile raspberry_pi();
};

/// Samples heterogeneous device fleets with AI-Benchmark-like spread.
class ProfileSampler {
 public:
  explicit ProfileSampler(std::uint64_t seed = 99) : rng_(seed) {}

  /// Mobile SoC: RAM 2–12 GB (log-ish spread), compute 20–300 GFLOP/s.
  DeviceProfile sample_mobile();

  /// IoT board: RAM 0.5–4 GB, compute 1–20 GFLOP/s.
  DeviceProfile sample_iot();

  /// Mixed fleet: `mobile_fraction` mobiles, rest IoT.
  std::vector<DeviceProfile> sample_fleet(std::int64_t n,
                                          double mobile_fraction = 0.6);

 private:
  Rng rng_;
};

/// Splits a fleet into `num_tiers` capacity quantiles (by RAM). Returns the
/// tier index (0 = smallest) per device. Used by width-tiered baselines
/// (HeteroFL, AdaptiveNet-like) to map resources onto model sizes.
std::vector<std::size_t> assign_tiers_by_capacity(
    const std::vector<DeviceProfile>& profiles, std::size_t num_tiers);

/// Tags each device with a region in round-robin order (device k gets
/// k mod num_regions). Deterministic and draw-free, so adding regions to an
/// existing fleet changes nothing else about a simulation.
void assign_regions(std::vector<DeviceProfile>& fleet,
                    std::int64_t num_regions);

/// Tracks co-running processes on a device and converts them into a latency
/// multiplier. Calibrated to the paper's Figure 1(b): three background
/// processes inflate inference latency ~5.06x.
class RuntimeMonitor {
 public:
  explicit RuntimeMonitor(std::int64_t co_running = 0)
      : co_running_(co_running) {
    NEBULA_CHECK(co_running >= 0);
  }

  std::int64_t co_running() const { return co_running_; }

  /// Latency multiplier under contention: 1 + 1.3533 * n (≈5.06 at n = 3).
  double contention_factor() const {
    return 1.0 + 1.3533 * static_cast<double>(co_running_);
  }

 private:
  std::int64_t co_running_;
};

}  // namespace nebula
