#include "fabric_layers.hpp"

#include <cstdio>

namespace fb {

using namespace sda;

DeliveryCounter::DeliveryCounter(fabric::SdaFabric& fabric, bool enabled)
    : fabric_(fabric), enabled_(enabled) {
  if (!enabled_) return;
  fabric_.underlay().set_fault_injector(
      [this](underlay::NodeId, net::Ipv4Address, std::size_t, std::uint32_t,
             underlay::TrafficClass) {
        ++count_;
        return underlay::FaultDecision{};
      });
}

DeliveryCounter::~DeliveryCounter() {
  if (enabled_) fabric_.underlay().set_fault_injector(nullptr);
}

void fabric_layer_metrics(fabric::SdaFabric& fabric, Spans& spans,
                          const telemetry::Snapshot& d, std::uint64_t deliveries,
                          const ReplayInputs& replay, RunResult& out) {
  const double ops = static_cast<double>(out.phase.ops);
  const auto per_op = [ops](std::uint64_t v) {
    return ops == 0 ? 0.0 : static_cast<double>(v) / ops;
  };
  auto& l = out.layer;
  l["fabric.endpoint_send_udp_ns"] = spans.median_call_ns(SpanKind::EndpointSendUdp);
  l["fabric.roam_endpoint_us"] = spans.median_call_ns(SpanKind::RoamEndpoint) / 1e3;
  l["fabric.connect_endpoint_us"] = spans.median_call_ns(SpanKind::ConnectEndpoint) / 1e3;
  l["fabric.disconnect_endpoint_us"] = spans.median_call_ns(SpanKind::DisconnectEndpoint) / 1e3;
  l["fabric.allocs_per_send"] = spans.mean_call_allocs(SpanKind::EndpointSendUdp);
  l["fabric.allocs_per_roam"] = spans.mean_call_allocs(SpanKind::RoamEndpoint);
  l["dataplane.encaps_per_op"] = per_op(sum_suffix(d, ".encapsulated"));
  l["dataplane.policy_drops_per_op"] = per_op(sum_suffix(d, ".policy_drops"));
  l["dataplane.border_installs_per_op"] = per_op(sum_suffix(d, ".publishes_applied"));
  const std::uint64_t hits = sum_suffix(d, ".map_cache.hits");
  const std::uint64_t misses = sum_suffix(d, ".map_cache.misses");
  l["lisp.map_cache_hit_ratio"] =
      hits + misses == 0 ? 0.0 : static_cast<double>(hits) / static_cast<double>(hits + misses);
  l["lisp.map_requests_per_op"] = per_op(counter(d, "map_server.requests"));
  l["lisp.map_registers_per_op"] = per_op(counter(d, "map_server.registers"));
  // Map-Notifies: registration acks consumed by edges plus the mobility
  // notifies the server sends the previous edge on every move.
  l["lisp.map_notifies_per_op"] =
      per_op(sum_suffix(d, ".registers_acked") + counter(d, "map_server.moves"));
  l["lisp.smrs_per_op"] = per_op(sum_suffix(d, ".smr_sent"));
  l["underlay.deliveries_per_op"] = per_op(deliveries);
  l["policy.auths_per_op"] = per_op(counter(d, "policy_server.auth_accepts"));

  // Replay probes on the live tables, after the checks have read them.
  dataplane::EdgeRouter& edge = fabric.edge(replay.edge);
  const sim::SimTime now = fabric.simulator().now();
  constexpr std::size_t kReplay = 1u << 18;
  if (!replay.group_pairs.empty()) {
    dataplane::Sgacl& sgacl = edge.sgacl();
    std::uint64_t allowed = 0;
    l["dataplane.sgacl_verdict_ns"] =
        replay_probe(spans, SpanKind::ProbeSgaclVerdict, kReplay, [&](std::size_t i) {
          const auto& [src, dst] = replay.group_pairs[i % replay.group_pairs.size()];
          allowed += sgacl.evaluate(replay.vn, src, dst) == policy::Action::Allow;
        });
    std::printf("probe: sgacl %llu of %zu verdicts allow\n",
                static_cast<unsigned long long>(allowed), kReplay);
  }
  if (!replay.cache_eids.empty()) {
    lisp::MapCache& cache = edge.map_cache();
    std::uint64_t found = 0;
    l["lisp.map_cache_lookup_ns"] =
        replay_probe(spans, SpanKind::ProbeMapCacheLookup, kReplay, [&](std::size_t i) {
          found += cache.lookup(replay.cache_eids[(i * 7919) % replay.cache_eids.size()], now) !=
                   nullptr;
        });
    std::printf("probe: map-cache %llu of %zu lookups hit\n",
                static_cast<unsigned long long>(found), kReplay);
  }
  if (!replay.server_eids.empty()) {
    const lisp::MapServer& server = fabric.map_server();
    std::uint64_t found = 0;
    l["lisp.map_server_resolve_ns"] =
        replay_probe(spans, SpanKind::ProbeMapServerResolve, kReplay, [&](std::size_t i) {
          found +=
              server.resolve(replay.server_eids[(i * 7919) % replay.server_eids.size()]).has_value();
        });
    std::printf("probe: map-server %llu of %zu resolutions positive\n",
                static_cast<unsigned long long>(found), kReplay);
  }
  // Underlay: one-way delay from the replay edge to every other fabric node.
  std::vector<net::Ipv4Address> rlocs;
  for (const auto& name : fabric.edge_names()) rlocs.push_back(fabric.edge(name).rloc());
  for (const auto& name : fabric.border_names()) rlocs.push_back(fabric.border(name).rloc());
  underlay::UnderlayNetwork& net = fabric.underlay();
  const underlay::NodeId from = edge.config().node;
  std::int64_t total_ns = 0;
  l["underlay.transit_delay_ns"] =
      replay_probe(spans, SpanKind::ProbeTransitDelay, kReplay, [&](std::size_t i) {
        const net::Ipv4Address to = rlocs[i % rlocs.size()];
        if (const auto delay = net.transit_delay(from, to, to.value(), 1500)) {
          total_ns += delay->count();
        }
      });
  if (total_ns <= 0) std::fprintf(stderr, "transit probe found no paths\n");
  l["sim.dispatch_ns"] = probe_sim_dispatch(fabric.simulator(), spans, 1u << 20);
}

}  // namespace fb
