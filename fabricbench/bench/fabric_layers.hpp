// Per-layer metrics shared by the three SdaFabric workloads: counter
// ratios read from the fabric's MetricsRegistry over the measured phase,
// an underlay delivery count, and replay probes on the live tables.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "fabric/fabric.hpp"
#include "harness.hpp"

namespace fb {

/// Counts underlay deliveries (data and control) while installed, through
/// the underlay's public fault-injector hook (which never faults here).
/// Installed only in traced runs.
class DeliveryCounter {
 public:
  DeliveryCounter(sda::fabric::SdaFabric& fabric, bool enabled);
  ~DeliveryCounter();
  DeliveryCounter(const DeliveryCounter&) = delete;
  DeliveryCounter& operator=(const DeliveryCounter&) = delete;
  [[nodiscard]] std::uint64_t count() const { return count_; }

 private:
  sda::fabric::SdaFabric& fabric_;
  bool enabled_;
  std::uint64_t count_ = 0;
};

/// What the replay probes run over.
struct ReplayInputs {
  std::string edge;                       // live edge whose tables are replayed
  std::vector<sda::net::VnEid> cache_eids;   // EIDs cached at `edge`
  std::vector<sda::net::VnEid> server_eids;  // EIDs registered at the map server
  sda::net::VnId vn;
  std::vector<std::pair<sda::net::GroupId, sda::net::GroupId>> group_pairs;
};

/// Fills the fabric-side per-layer metrics of `out` from the registry
/// delta over the phase, the delivery count, and replay probes.
void fabric_layer_metrics(sda::fabric::SdaFabric& fabric, Spans& spans,
                          const sda::telemetry::Snapshot& phase_delta,
                          std::uint64_t deliveries, const ReplayInputs& replay, RunResult& out);

}  // namespace fb
