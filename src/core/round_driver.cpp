#include "core/round_driver.h"

#include <algorithm>
#include <cstdio>

#include "common/check.h"
#include "obs/recorder.h"

namespace nebula {

namespace {

/// Exact percentile of a small sample (nearest-rank with interpolation);
/// round reports hold at most devices_per_round values, so sorting a copy
/// beats carrying digest state in every report.
double sample_quantile(std::vector<double> vs, double q) {
  if (vs.empty()) return 0.0;
  std::sort(vs.begin(), vs.end());
  const double pos = q * static_cast<double>(vs.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, vs.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return vs[lo] + (vs[hi] - vs[lo]) * frac;
}

}  // namespace

std::string RoundReport::summary() const {
  char buf[320];
  std::snprintf(
      buf, sizeof(buf),
      "round %lld: %zu/%zu completed (%zu dropped, %zu straggled, "
      "%zu rejected, %lld retries) wall %.2fs (dev p50 %.2f p95 %.2f) "
      "entropy %.2f %s",
      static_cast<long long>(round_index), completed.size(),
      participants.size(), dropped.size(), straggled.size(), rejected.size(),
      static_cast<long long>(transfer_retries), wall_time_s,
      sample_quantile(device_wall_s, 0.5), sample_quantile(device_wall_s, 0.95),
      routing_entropy, aggregated ? "aggregated" : "no-quorum");
  return buf;
}

RoundDriver::OpenRound RoundDriver::begin(const CommLedger& ledger) {
  OpenRound open;
  open.rep.round_index = next_round_++;
  open.goodput0 = ledger.total_bytes();
  open.overhead0 = ledger.overhead_bytes();
  return open;
}

// The recorder feeds below run in the serial fold only: recording draws no
// randomness and never reorders the fold, so enabling it is
// bit-identity-neutral (pinned by test_flight_recorder.cpp).
void RoundDriver::fold_open(RoundReport& rep, const RoundSlot& slot,
                            CommLedger& ledger) {
  rep.participants.push_back(slot.device);
  obs::recorder().record_device_event(rep.round_index,
                                      static_cast<int>(slot.device),
                                      obs::TimelineKind::kSelected, source_);
  ledger.merge(slot.ledger);
  rep.attempted_bytes += slot.attempted_bytes;
}

void RoundDriver::fold_dropped(RoundReport& rep, const RoundSlot& slot) {
  rep.dropped.push_back(slot.device);
  obs::recorder().record_device_event(rep.round_index,
                                      static_cast<int>(slot.device),
                                      obs::TimelineKind::kDropped, source_);
}

void RoundDriver::finish(OpenRound& open, const CommLedger& ledger) {
  RoundReport& rep = open.rep;
  // Completion is only known after the merge (Nebula's robust gate), so
  // these land after the per-slot events — still in participant order.
  for (std::int64_t k : rep.completed) {
    obs::recorder().record_device_event(rep.round_index, static_cast<int>(k),
                                        obs::TimelineKind::kCompleted,
                                        source_);
  }
  rep.goodput_bytes = ledger.total_bytes() - open.goodput0;
  rep.overhead_bytes = ledger.overhead_bytes() - open.overhead0;
  // Conservation: every byte any attempt put on the wire landed in exactly
  // one of the ledger's goodput or overhead columns.
  NEBULA_CHECK_MSG(
      rep.attempted_bytes == rep.goodput_bytes + rep.overhead_bytes,
      source_ << " round " << rep.round_index
              << " traffic accounting leak: attempted " << rep.attempted_bytes
              << " != goodput " << rep.goodput_bytes << " + overhead "
              << rep.overhead_bytes);
  rep.host_phases.total_s = open.timer.elapsed_s();
}

}  // namespace nebula
