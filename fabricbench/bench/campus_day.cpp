// campus-day: the Fig. 9 / Table 5 building-B diurnal model, scaled up so
// that a run lasts long enough to be timed. Write-heavy: users arrive in
// the morning and leave in the evening (register / deregister), flows to
// peers and external services miss edge map-caches and are resolved by the
// map server's Patricia trie, night traffic towards departed hosts draws
// negative replies, and cached mappings age out on their TTL.
//
// The measured phase is cut into 3-minute slices, and ops_per_s is
// estimated hour by hour (one stratum per hour), so the night, the
// arrivals and the departures all weigh in. The FIB checks sample at every
// hour boundary. Presence transitions are kept at least kGuard away
// from those instants, so the generator's count of present endpoints is
// exact.
#include <algorithm>
#include <array>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <string>
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

// Building B (campus_specs.hpp) times kScale: kScale copies of the
// building, each with B's edges, population and contact sets (Zipf-popular
// peers drawn within the copy), sharing one fabric and map server.
constexpr unsigned kScale = 20;
constexpr unsigned kEdgesB = 6;
constexpr unsigned kUsersB = 170;
constexpr unsigned kPermanentB = 225;
constexpr unsigned kHostsB = kUsersB + kPermanentB;
constexpr unsigned kEdges = kEdgesB * kScale;
constexpr unsigned kUsers = kUsersB * kScale;
constexpr unsigned kPermanent = kPermanentB * kScale;
constexpr double kWeekdayAbsence = 0.15;
constexpr double kWeekendPresence = 0.05;
/// Flow rates are building B's times kFlowScale, so each hour carries
/// enough flows to be timed; every cache lifetime (registration, external
/// and negative TTL) is divided by the same factor, so a cache entry sees
/// as many flows before it expires as in building B.
constexpr double kFlowScale = 12;
constexpr std::uint32_t kRegisterTtlSeconds = 1440 * 60 / 12;
constexpr std::uint32_t kNegativeTtlSeconds = 60 / 12;
constexpr double kUserFlowsPerHour = 6 * kFlowScale;
constexpr double kPermanentFlowsPerHour = 3 * kFlowScale;
constexpr double kExternalShare = 0.5;
constexpr unsigned kExternalDestinations = 40;
constexpr unsigned kInternalContacts = 2;
constexpr double kInternalZipf = 1.6;
constexpr unsigned kExternalContacts = 3;
constexpr double kExternalZipf = 1.5;
constexpr std::uint32_t kExternalTtlSeconds = 3 * 3600 / 12;
constexpr net::VnId kVn{100};
constexpr net::GroupId kEmployees{10};
constexpr net::GroupId kDevices{20};
/// The matrix denies devices -> employees; everything else is allowed.
const checks::DeniedPairs kDenied{{20, 10}};

constexpr sim::Duration kHour = std::chrono::hours{1};
constexpr sim::Duration kSlice = std::chrono::minutes{3};
constexpr unsigned kSlicesPerHour = 20;
constexpr sim::Duration kDay = std::chrono::hours{24};
/// Night hours of warm-up before the first measured slice: long enough for
/// the set-up's slices to be filtered.
constexpr unsigned kWarmUpHours = 3;
/// No presence transition lands within kGuard of an hourly sample, and a
/// flow sent within kGuard of its peer's transition is a race (excluded).
constexpr sim::Duration kGuard = std::chrono::seconds{1};
/// A flow is judged (delivered or not) once it is kSettle old.
constexpr sim::Duration kSettle = std::chrono::seconds{2};
/// Slices one host second held on the reference machine (see README).
constexpr double kSlicesPerSecond = 48;

sim::Duration hours_d(double h) {
  return sim::Duration{static_cast<std::int64_t>(h * 3600.0 * 1e9)};
}

/// Host index of local index `j` (users first, as in building B) of
/// building copy `copy`: users fill [0, kUsers), devices the rest.
std::uint32_t host_of(unsigned copy, unsigned j) {
  return j < kUsersB ? copy * kUsersB + j : kUsers + copy * kPermanentB + (j - kUsersB);
}

/// Moves `t` out of the guard band around every hour boundary.
sim::SimTime off_the_hour(sim::SimTime t) {
  const std::int64_t hour = kHour.count();
  const std::int64_t off = t.nanoseconds() % hour;
  if (off < kGuard.count() || off > hour - kGuard.count()) return t + 2 * kGuard;
  return t;
}

}  // namespace

RunResult run_campus_day(const RunOptions& opts, Spans& spans) {
  RunResult out;
  SetupTimer setup{opts.process_start_ns};
  sim::Simulator sim;
  sim::Rng rng{opts.seed ^ 0xCA0};

  fabric::FabricConfig config;
  config.seed = opts.seed ^ 0xCA;
  config.l2_gateway = false;  // ARP churn is not part of the Fig. 9 metric
  config.register_ttl_seconds = kRegisterTtlSeconds;
  config.negative_ttl_seconds = kNegativeTtlSeconds;
  fabric::SdaFabric fabric(sim, config);
  fabric::TieredCampusSpec topo;
  topo.borders = 2;
  topo.distribution = 2;
  topo.edges = kEdges;
  const fabric::TieredCampus campus = fabric::build_tiered_campus(fabric, topo);
  fabric.finalize();
  fabric.define_vn({kVn, "corp", *net::Ipv4Prefix::parse("10.100.0.0/16"), std::nullopt});
  fabric.add_external_prefix(kVn, *net::Ipv4Prefix::parse("0.0.0.0/0"), net::GroupId::unknown(),
                             kExternalTtlSeconds);
  for (const auto& [s, d] : kDenied) {
    fabric.set_rule({kVn, net::GroupId{s}, net::GroupId{d}, policy::Action::Deny});
  }

  struct Host {
    std::string credential;
    net::MacAddress mac;
    unsigned edge = 0;
    bool permanent = false;
    bool present = false;      // onboarded and not departed (generator's view)
    bool arriving = false;     // connect issued, not yet departed
    std::uint32_t generation = 0;  // bumps on every departure: stale flow timers die
    net::Ipv4Address ip;
    std::vector<std::uint32_t> internal;
    std::vector<std::uint32_t> external;
    std::vector<std::int64_t> transitions;  // sim ns of every connect / disconnect
  };
  constexpr unsigned kHosts = kUsers + kPermanent;
  std::vector<Host> hosts(kHosts);
  for (unsigned copy = 0; copy < kScale; ++copy) {
    for (unsigned j = 0; j < kHostsB; ++j) hosts[host_of(copy, j)].edge = copy * kEdgesB + j % kEdgesB;
  }
  for (unsigned i = 0; i < kHosts; ++i) {
    Host& host = hosts[i];
    host.permanent = i >= kUsers;
    host.credential = (host.permanent ? "dev-" : "user-") + std::to_string(i);
    host.mac = net::MacAddress::from_u64(0x0200'0000'0000ull | i);
    fabric::EndpointDefinition def;
    def.credential = host.credential;
    def.secret = "s3cret";
    def.mac = host.mac;
    def.vn = kVn;
    def.group = host.permanent ? kDevices : kEmployees;
    fabric.provision_endpoint(def);
  }
  // Fixed contact sets: who each host talks to (Zipf-popular peers within
  // its building copy and Zipf-popular services, as in the campus workload).
  {
    const sim::ZipfSampler internal_zipf{kHostsB, kInternalZipf};
    const sim::ZipfSampler external_zipf{kExternalDestinations, kExternalZipf};
    for (unsigned copy = 0; copy < kScale; ++copy) {
      for (unsigned j = 0; j < kHostsB; ++j) {
        const std::uint32_t h = host_of(copy, j);
        Host& host = hosts[h];
        while (host.internal.size() < kInternalContacts) {
          const std::uint32_t peer =
              host_of(copy, static_cast<unsigned>(internal_zipf.sample(rng)));
          if (peer != h && std::find(host.internal.begin(), host.internal.end(), peer) ==
                               host.internal.end()) {
            host.internal.push_back(peer);
          }
        }
      }
    }
    for (Host& host : hosts) {
      while (host.external.size() < kExternalContacts) {
        const auto svc = static_cast<std::uint32_t>(external_zipf.sample(rng));
        if (std::find(host.external.begin(), host.external.end(), svc) == host.external.end()) {
          host.external.push_back(svc);
        }
      }
    }
  }

  // Flow bookkeeping, allocated once. Flow n is sent to destination port
  // 1024 + n % kTokens and booked in ring[n % kTokens], so a delivery finds
  // its flow by port; the low 16 bits of source and destination (the pool
  // is a /16) confirm it. Internal flows are judged in send order once they
  // are kSettle old, at every slice boundary, and a slice initiates far
  // fewer than kTokens flows, so the ring never wraps onto a waiting flow.
  constexpr std::uint32_t kTokens = 64000;
  struct Flow {
    std::uint64_t key = 0;
    std::uint32_t peer = 0;
    std::int64_t sent_ns = 0;
    bool waiting = false;  // an internal flow not judged yet
    bool expect_delivery = false;
    bool delivered = false;
  };
  std::vector<Flow> ring(kTokens);
  std::uint64_t judged_seq = 0;  // flows before it are judged
  checks::FlowTally tally;
  std::uint64_t flow_seq = 0, initiated = 0, internal_sent = 0, external_sent = 0, refused = 0;
  const auto flow_key = [](net::Ipv4Address src, net::Ipv4Address dst, std::uint16_t port) {
    return (static_cast<std::uint64_t>(src.value() & 0xFFFF) << 32) |
           (static_cast<std::uint64_t>(dst.value() & 0xFFFF) << 16) | port;
  };
  fabric.set_delivery_listener(
      [&](const dataplane::AttachedEndpoint& dst, const net::OverlayFrame& frame, sim::SimTime) {
        const std::uint16_t port = frame.ip().destination_port;
        if (port < 1024 || port >= 1024 + kTokens) return;
        Flow& f = ring[port - 1024u];
        if (f.waiting && f.key == flow_key(frame.ip().source, dst.ip, port)) f.delivered = true;
      });
  // Judges every waiting flow sent before `horizon_ns`. A flow sent within
  // kGuard of a connect or disconnect of its peer is a race.
  const auto settle = [&](std::int64_t horizon_ns) {
    for (; judged_seq < flow_seq; ++judged_seq) {
      Flow& f = ring[judged_seq % kTokens];
      if (!f.waiting) continue;
      if (f.sent_ns >= horizon_ns) break;
      const std::vector<std::int64_t>& tr = hosts[f.peer].transitions;
      const auto near = std::lower_bound(tr.begin(), tr.end(), f.sent_ns - kGuard.count());
      const bool race = near != tr.end() && *near <= f.sent_ns + kGuard.count();
      tally.add(race ? checks::FlowExpect::Race
                     : (f.expect_delivery ? checks::FlowExpect::Deliver
                                          : checks::FlowExpect::Drop),
                f.delivered);
      f.waiting = false;
    }
  };

  std::function<void(std::uint32_t)> start_flows;
  const auto send_one_flow = [&](Host& host) {
    net::Ipv4Address destination;
    std::int64_t peer = -1;
    if (rng.chance(kExternalShare)) {
      destination = net::Ipv4Address{0xC6336400u + host.external[rng.next_below(kExternalContacts)]};
    } else {
      peer = host.internal[rng.next_below(kInternalContacts)];
      destination = hosts[static_cast<std::size_t>(peer)].ip;
      if (destination.is_unspecified()) return;  // never arrived yet: no flow
    }
    const std::uint64_t seq = flow_seq++;
    if (seq - judged_seq >= kTokens) {
      std::fprintf(stderr, "campus-day: flow ring overrun at flow %llu\n",
                   static_cast<unsigned long long>(seq));
      std::abort();
    }
    const auto port = static_cast<std::uint16_t>(1024 + seq % kTokens);
    // Book the flow before sending: a peer on the same edge is switched
    // locally and delivered inside the call.
    Flow& flow = ring[seq % kTokens];
    flow.waiting = false;
    if (peer >= 0) {
      const Host& p = hosts[static_cast<std::size_t>(peer)];
      const bool allowed = !(host.permanent && !p.permanent);  // devices -> employees denied
      flow = Flow{flow_key(host.ip, destination, port), static_cast<std::uint32_t>(peer),
                  sim.now().nanoseconds(), true, p.present && allowed, false};
    }
    const bool ok = spans.call(SpanKind::EndpointSendUdp, [&] {
      return fabric.endpoint_send_udp(host.mac, destination, port, 400);
    });
    ++initiated;
    if (!ok) {
      ++refused;
      flow.waiting = false;
      return;
    }
    ++(peer < 0 ? external_sent : internal_sent);
  };
  start_flows = [&](std::uint32_t h) {
    Host& host = hosts[h];
    const double per_s =
        (host.permanent ? kPermanentFlowsPerHour : kUserFlowsPerHour) / 3600.0;
    const std::uint32_t gen = host.generation;
    sim.schedule_after(rng.exp_interarrival(per_s), [&, h, gen] {
      Host& hh = hosts[h];
      if (!hh.present || hh.generation != gen) return;  // the process dies on departure
      send_one_flow(hh);
      start_flows(h);
    });
  };

  // Each onboarding callback captures a pointer to this handler and the
  // host's index, so it fits std::function's inline buffer.
  const auto on_onboard = [&](std::uint32_t h, const fabric::OnboardResult& r) {
    Host& host = hosts[h];
    if (!r.success || !host.arriving) return;
    host.ip = r.ip;
    host.present = true;
    start_flows(h);
  };
  const auto connect = [&](std::uint32_t h) {
    Host& host = hosts[h];
    if (host.arriving) return;
    host.arriving = true;
    host.transitions.push_back(sim.now().nanoseconds());
    spans.call(SpanKind::ConnectEndpoint, [&] {
      fabric.connect_endpoint(
          host.credential, campus.edges[host.edge], 1,
          [on = &on_onboard, h](const fabric::OnboardResult& r) { (*on)(h, r); });
    });
  };
  const auto disconnect = [&](std::uint32_t h) {
    Host& host = hosts[h];
    if (!host.arriving) return;
    host.arriving = false;
    host.present = false;
    ++host.generation;
    host.transitions.push_back(sim.now().nanoseconds());
    spans.call(SpanKind::DisconnectEndpoint, [&] { fabric.disconnect_endpoint(host.mac); });
  };

  // Presence schedule: permanent endpoints connect at t=0; users follow the
  // diurnal routine of the campus workload, day 0 being a Monday.
  // Whole days only, so every run covers the night, the arrivals and the
  // departures, and ends on a FIB sample.
  constexpr unsigned kSlicesPerDay = 24 * kSlicesPerHour;
  const unsigned slices =
      (slices_for(opts.seconds, kSlicesPerSecond) + kSlicesPerDay - 1) / kSlicesPerDay *
      kSlicesPerDay;
  const sim::SimTime t0{kWarmUpHours * kHour};
  const sim::SimTime t_end = t0 + kSlice * slices;
  const auto days = static_cast<unsigned>((t_end.nanoseconds() + kDay.count() - 1) / kDay.count());
  // At most a connect and a disconnect per day: the logs never grow in a
  // timed slice.
  for (Host& host : hosts) host.transitions.reserve(2 * days);
  for (std::uint32_t h = kUsers; h < kHosts; ++h) {
    sim.schedule_at(sim::SimTime{}, [&, h] { connect(h); });
  }
  for (unsigned day = 0; day < days; ++day) {
    const sim::SimTime midnight{kDay * day};
    const bool weekday = day % 7 < 5;
    for (std::uint32_t h = 0; h < kUsers; ++h) {
      if (!rng.chance(weekday ? 1.0 - kWeekdayAbsence : kWeekendPresence)) continue;
      const double arrive_h = std::clamp(rng.normal(9.0, 0.75), 6.5, 12.0);
      const double depart_h = std::clamp(rng.normal(19.0, 1.0), arrive_h + 1.0, 23.5);
      sim.schedule_at(off_the_hour(midnight + hours_d(arrive_h)), [&, h] { connect(h); });
      sim.schedule_at(off_the_hour(midnight + hours_d(depart_h)), [&, h] { disconnect(h); });
    }
  }

  // Warm-up: the devices' onboarding burst at t = 0 (timed as it runs),
  // then the rest of the first hour's night traffic, then the other night
  // hours, in slices filtered hour by hour.
  const auto settle_old = [&] { settle((sim.now() - kSettle).nanoseconds()); };
  setup.warm_up(sim, sim::SimTime{kSlice}, 1, 1, settle_old);
  setup.warm_up(sim, sim::SimTime{kHour}, kSlicesPerHour - 1, kSlicesPerHour - 1, settle_old);
  setup.warm_up(sim, t0, (kWarmUpHours - 1) * kSlicesPerHour, kSlicesPerHour, settle_old);
  finish_setup(setup, out);

  // Measured phase, sampled at every hour boundary.
  std::vector<checks::FibSample> samples;
  const auto sample = [&](unsigned k) {
    settle_old();
    if ((k + 1) % kSlicesPerHour != 0) return;
    checks::FibSample s;
    s.hour = sim.now().hours();
    for (const Host& host : hosts) s.expected_border += host.present ? 1 : 0;
    // The border FIB holds the pub/sub host routes; the external prefix
    // lives in the border's separate external table and adds nothing here.
    for (const auto& name : campus.borders) s.border_fib.push_back(fabric.border(name).fib_size());
    for (const auto& name : campus.edges) {
      dataplane::EdgeRouter& edge = fabric.edge(name);
      edge.map_cache().sweep(sim.now());  // count live entries only
      s.edge_positive.push_back(edge.fib_size());
    }
    samples.push_back(std::move(s));
  };
  const telemetry::Snapshot before = fabric.metrics().snapshot();
  DeliveryCounter deliveries{fabric, opts.trace};
  out.phase = run_slices(sim, t0, kSlice, slices, kSlicesPerHour, spans,
                         [&] { return initiated; }, sample);
  const telemetry::Snapshot at_end = fabric.metrics().snapshot();
  const std::uint64_t phase_deliveries = deliveries.count();
  // Drain: stop every flow process and let in-flight frames land.
  for (Host& host : hosts) ++host.generation;
  sim.run_until(t_end + std::chrono::seconds{1});
  out.attempted = initiated;
  out.failed = refused;

  // Checks.
  out.checks.push_back(checks::border_fib_tracks_presence(samples));
  out.checks.push_back(checks::edge_cache_bounded(samples));
  settle(sim.now().nanoseconds());
  out.checks.push_back(checks::flow_outcomes(tally));

  out.facts["hosts"] = std::to_string(kHosts);
  out.facts["edges"] = std::to_string(kEdges);
  out.facts["internal_flows"] = std::to_string(internal_sent);
  out.facts["external_flows"] = std::to_string(external_sent);

  if (opts.trace) {
    ReplayInputs replay;
    replay.edge = campus.edges[0];
    for (const std::uint32_t svc : hosts[0].external) {
      replay.cache_eids.push_back(net::VnEid{kVn, net::Eid{net::Ipv4Address{0xC6336400u + svc}}});
    }
    for (const Host& host : hosts) {
      if (host.edge != 0) continue;
      for (const std::uint32_t p : host.internal) {
        if (!hosts[p].ip.is_unspecified()) {
          replay.cache_eids.push_back(net::VnEid{kVn, net::Eid{hosts[p].ip}});
        }
      }
    }
    for (const Host& host : hosts) {
      // Present hosts resolve to their edge, departed ones fall to the
      // external /0 prefix (the trie's longest-prefix path).
      if (!host.ip.is_unspecified()) replay.server_eids.push_back(net::VnEid{kVn, net::Eid{host.ip}});
    }
    replay.vn = kVn;
    replay.group_pairs = {{kEmployees, kEmployees}, {kEmployees, kDevices},
                          {kDevices, kEmployees}, {kDevices, kDevices}};
    fabric_layer_metrics(fabric, spans, at_end.delta(before), phase_deliveries, replay, out);
  }
  return out;
}

}  // namespace fb
