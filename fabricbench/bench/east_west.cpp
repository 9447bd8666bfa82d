// east-west: steady forwarding with warm map-caches across a tiered campus
// (build_tiered_campus), with four groups sharing a permit/deny matrix in
// the spirit of Fig. 12. Read-heavy: every measured packet hits the ingress
// map-cache, is VXLAN-GPO encapsulated, crosses the underlay, and meets the
// egress VRF + SGACL, which drops the denied group pairs. Almost no control
// traffic once the caches are warm.
#include <array>
#include <functional>
#include <string>
#include <unordered_map>
#include <vector>

#include "checks.hpp"
#include "fabric/fabric.hpp"
#include "fabric/topologies.hpp"
#include "fabric_layers.hpp"
#include "sim/random.hpp"
#include "workloads.hpp"

namespace fb {

namespace {

using namespace sda;

constexpr unsigned kEdges = 48;
constexpr unsigned kHostsPerEdge = 100;
constexpr unsigned kHosts = kEdges * kHostsPerEdge;
constexpr unsigned kContacts = 4;  // fixed peers per host, on other edges
constexpr net::VnId kVn{100};
constexpr std::array<std::uint16_t, 4> kGroups{10, 20, 30, 40};
/// Denied (source, destination) group pairs; everything else is allowed.
const checks::DeniedPairs kDenied{{20, 40}, {30, 10}, {30, 20}, {40, 30}};
constexpr double kOnboardPerSecond = 1000;
/// Aggregate packet rate of the measured phase, per simulated second.
constexpr double kPacketsPerSecond = 100'000;
/// A slice carries ~10,000 packets (~15 ms of host time).
constexpr sim::Duration kSlice = std::chrono::milliseconds{100};
/// Slices one host second held on the reference machine (see README).
constexpr double kSlicesPerSecond = 70.0;
/// Set-up warm-up slices over the onboarding and over the cache warming.
constexpr unsigned kWarmUpSlices = 40;
/// Set-up ends with a traffic warm-up of this many phase-length slices (a
/// tenth of a 10 s run's phase), long enough for its slices to be filtered.
constexpr unsigned kTrafficWarmUpSlices = 70;

bool denied(std::uint16_t src, std::uint16_t dst) {
  for (const auto& [s, d] : kDenied) {
    if (s == src && d == dst) return true;
  }
  return false;
}

sim::Duration seconds_d(double s) { return sim::Duration{static_cast<std::int64_t>(s * 1e9)}; }

}  // namespace

RunResult run_east_west(const RunOptions& opts, Spans& spans) {
  RunResult out;
  SetupTimer setup{opts.process_start_ns};
  sim::Simulator sim;
  sim::Rng rng{opts.seed ^ 0xE57};

  fabric::FabricConfig config;
  config.l2_gateway = false;
  config.seed = opts.seed ^ 0xE7;
  fabric::SdaFabric fabric(sim, config);
  fabric::TieredCampusSpec topo;
  topo.borders = 2;
  topo.distribution = 4;
  topo.edges = kEdges;
  const fabric::TieredCampus campus = fabric::build_tiered_campus(fabric, topo);
  fabric.finalize();
  fabric.define_vn({kVn, "corp", *net::Ipv4Prefix::parse("10.100.0.0/16"), std::nullopt});
  for (const auto g : kGroups) fabric.define_group({net::GroupId{g}, "g" + std::to_string(g)});
  for (const auto& [s, d] : kDenied) {
    fabric.set_rule({kVn, net::GroupId{s}, net::GroupId{d}, policy::Action::Deny});
  }

  struct Host {
    net::MacAddress mac;
    net::Ipv4Address ip;
    unsigned group = 0;  // index into kGroups
    std::array<std::uint32_t, kContacts> contacts{};
  };
  std::vector<Host> hosts(kHosts);
  for (unsigned h = 0; h < kHosts; ++h) {
    Host& host = hosts[h];
    host.mac = net::MacAddress::from_u64(0x0A00'0000'0000ull | h);
    host.group = static_cast<unsigned>(rng.next_below(kGroups.size()));
    const unsigned edge = h % kEdges;
    for (auto& c : host.contacts) {
      std::uint32_t peer = 0;
      do {
        peer = static_cast<std::uint32_t>(rng.next_below(kHosts));
      } while (peer % kEdges == edge);
      c = peer;
    }
    fabric::EndpointDefinition def;
    def.credential = "host-" + std::to_string(h);
    def.secret = "s3cret";
    def.mac = host.mac;
    def.vn = kVn;
    def.group = net::GroupId{kGroups[host.group]};
    fabric.provision_endpoint(def);
  }

  // Set-up: onboard everyone, then warm the caches with one packet per
  // (host, contact) pair and let the resolutions land.
  std::uint64_t onboarded = 0;
  // Callbacks capture a pointer to this handler and an index, so they fit
  // std::function's inline buffer.
  const auto on_onboard = [&](unsigned h, const fabric::OnboardResult& r) {
    if (!r.success) return;
    hosts[h].ip = r.ip;
    ++onboarded;
  };
  for (unsigned h = 0; h < kHosts; ++h) {
    sim.schedule_after(seconds_d(h / kOnboardPerSecond), [&, h] {
      spans.call(SpanKind::ConnectEndpoint, [&] {
        fabric.connect_endpoint(
            "host-" + std::to_string(h), campus.edges[h % kEdges], 1,
            [on = &on_onboard, h](const fabric::OnboardResult& r) { (*on)(h, r); });
      });
    });
  }
  const sim::SimTime onboarding_end{seconds_d(kHosts / kOnboardPerSecond)};
  const sim::SimTime warm_at = onboarding_end + std::chrono::seconds{1};
  setup.warm_up(sim, onboarding_end, kWarmUpSlices, kWarmUpSlices);
  setup.warm_up(sim, warm_at, 1, 1);  // the last attaches land
  std::unordered_map<std::uint32_t, std::uint32_t> host_of_ip;
  for (unsigned h = 0; h < kHosts; ++h) host_of_ip[hosts[h].ip.value()] = h;
  for (unsigned h = 0; h < kHosts; ++h) {
    sim.schedule_after(seconds_d(h / static_cast<double>(kHosts)), [&, h] {
      for (const std::uint32_t c : hosts[h].contacts) {
        fabric.endpoint_send_udp(hosts[h].mac, hosts[c].ip, 5000, 200);
      }
    });
  }
  const sim::SimTime traffic_start = warm_at + std::chrono::seconds{2};
  setup.warm_up(sim, warm_at + std::chrono::seconds{1}, kWarmUpSlices, kWarmUpSlices);
  setup.warm_up(sim, traffic_start, 1, 1);  // the last resolutions land

  // From `traffic_start`, an open-loop Poisson packet process in simulated
  // time: a warm-up, then the measured phase. The checks cover every packet
  // sent, the per-layer metrics the phase.
  std::array<std::array<std::uint64_t, kGroups.size()>, kGroups.size()> delivered{};
  std::uint64_t stray = 0;  // deliveries the generator cannot attribute
  fabric.set_delivery_listener(
      [&](const dataplane::AttachedEndpoint& dst, const net::OverlayFrame& frame, sim::SimTime) {
        const auto s = host_of_ip.find(frame.ip().source.value());
        const auto d = host_of_ip.find(dst.ip.value());
        if (s == host_of_ip.end() || d == host_of_ip.end()) {
          ++stray;
          return;
        }
        ++delivered[hosts[s->second].group][hosts[d->second].group];
      });

  const sim::SimTime t0 = traffic_start + kSlice * kTrafficWarmUpSlices;
  const unsigned slices = slices_for(opts.seconds, kSlicesPerSecond);
  const sim::SimTime t_end = t0 + kSlice * slices;
  std::uint64_t sent = 0, permitted_sent = 0, denied_sent = 0, refused = 0;
  struct Sender {
    sim::Simulator& sim;
    sim::Rng& rng;
    sim::SimTime t_end;
    std::function<void()> send_one;
    void arm() {
      sim.schedule_after(rng.exp_interarrival(kPacketsPerSecond), [this] {
        if (sim.now() >= t_end) return;
        arm();
        send_one();
      });
    }
  };
  Sender sender{sim, rng, t_end, [&] {
                  const std::size_t h = rng.next_below(kHosts);
                  const Host& src = hosts[h];
                  const Host& dst = hosts[src.contacts[rng.next_below(kContacts)]];
                  const bool ok = spans.call(SpanKind::EndpointSendUdp, [&] {
                    return fabric.endpoint_send_udp(src.mac, dst.ip, 5001, 200);
                  });
                  ++sent;
                  if (!ok) {
                    ++refused;
                    return;
                  }
                  if (denied(kGroups[src.group], kGroups[dst.group])) {
                    ++denied_sent;
                  } else {
                    ++permitted_sent;
                  }
                }};
  const telemetry::Snapshot traffic_before = fabric.metrics().snapshot();
  sender.arm();
  setup.warm_up(sim, t0, kTrafficWarmUpSlices, kTrafficWarmUpSlices);
  finish_setup(setup, out);

  const telemetry::Snapshot before = fabric.metrics().snapshot();
  DeliveryCounter deliveries{fabric, opts.trace};
  out.phase = run_slices(sim, t0, kSlice, slices, slices, spans, [&] { return sent; },
                         [](unsigned) {});
  const telemetry::Snapshot at_end = fabric.metrics().snapshot();
  const std::uint64_t phase_deliveries = deliveries.count();
  sim.run_until(t_end + std::chrono::milliseconds{100});  // drain in-flight frames
  const telemetry::Snapshot after = fabric.metrics().snapshot();
  out.attempted = sent;
  out.failed = refused;

  // Checks, from the generator's own group map and matrix.
  std::uint64_t delivered_total = 0;
  checks::PairCounts pairs;
  for (std::size_t s = 0; s < kGroups.size(); ++s) {
    for (std::size_t d = 0; d < kGroups.size(); ++d) {
      delivered_total += delivered[s][d];
      if (delivered[s][d] != 0) pairs[{kGroups[s], kGroups[d]}] = delivered[s][d];
    }
  }
  out.checks.push_back(checks::delivered_equals_permitted(delivered_total + stray, permitted_sent));
  out.checks.push_back(checks::no_denied_delivery(pairs, kDenied));
  out.checks.push_back(
      checks::policy_drops_match(sum_suffix(after.delta(traffic_before), ".policy_drops"),
                                 denied_sent));

  out.facts["hosts"] = std::to_string(kHosts);
  out.facts["edges"] = std::to_string(kEdges);
  out.facts["onboarded"] = std::to_string(onboarded);
  out.facts["permitted_sent"] = std::to_string(permitted_sent);
  out.facts["denied_sent"] = std::to_string(denied_sent);

  if (opts.trace) {
    ReplayInputs replay;
    replay.edge = campus.edges[0];
    for (unsigned h = 0; h < kHosts; h += kEdges) {  // hosts of edge 0
      for (const std::uint32_t c : hosts[h].contacts) {
        replay.cache_eids.push_back(net::VnEid{kVn, net::Eid{hosts[c].ip}});
      }
    }
    for (const Host& host : hosts) replay.server_eids.push_back(net::VnEid{kVn, net::Eid{host.ip}});
    replay.vn = kVn;
    for (const auto s : kGroups) {
      for (const auto d : kGroups) replay.group_pairs.emplace_back(net::GroupId{s}, net::GroupId{d});
    }
    fabric_layer_metrics(fabric, spans, at_end.delta(before), phase_deliveries, replay, out);
  }
  return out;
}

}  // namespace fb
