// warehouse-lisp and warehouse-bgp: the two arms of Fig. 11 on the same
// seeded move process (200 edges, 16k robots on the two "physical" edges,
// Poisson 800 moves/s). The reactive arm drives SdaFabric (roam, re-auth,
// Map-Register, Map-Notify to the old edge, pub/sub publish to the
// border); the proactive arm drives bgp::RouteReflector, whose fan-out
// replicates every move to all 200 peer RIBs.
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "bgp/route_reflector.hpp"
#include "checks.hpp"
#include "fabric_layers.hpp"
#include "fabric/fabric.hpp"
#include "sim/random.hpp"
#include "telemetry/metrics.hpp"
#include "workloads.hpp"

namespace fb {

namespace {

using namespace sda;

constexpr unsigned kEdges = 200;
constexpr unsigned kRobots = 16000;
constexpr double kMovesPerSecond = 800;
constexpr double kOnboardPerSecond = 600;  // initial attach / route load rate
constexpr net::VnId kRobotVn{1};
constexpr net::GroupId kRobotGroup{30};
constexpr auto kLink = std::chrono::microseconds{50};
/// Measured slices: 2 simulated seconds (~1,600 moves, ~17 ms of host
/// time) for the reactive arm, 0.5 (~400 moves, ~50 ms) for the proactive
/// arm, whose moves cost ~10x more.
constexpr sim::Duration kLispSlice = std::chrono::seconds{2};
constexpr sim::Duration kBgpSlice = std::chrono::milliseconds{500};
/// Slices one host second held on the reference machine (see README).
constexpr double kLispSlicesPerSecond = 55;
constexpr double kBgpSlicesPerSecond = 20;
/// Set-up warm-up slices over the reactive arm's onboarding, of 400 robots
/// each.
constexpr unsigned kOnboardSlices = 40;
/// Set-up ends with a mobility warm-up of this many phase-length slices (a
/// tenth of a 10 s run's phase): the phase starts with moves in flight, and
/// the set-up lasts long enough for its slices to be filtered.
constexpr unsigned kLispWarmUpSlices = 55;
constexpr unsigned kBgpWarmUpSlices = 20;

sim::Duration seconds_d(double s) { return sim::Duration{static_cast<std::int64_t>(s * 1e9)}; }

/// Robot attach timings of the workload (fast PSK roaming). The lognormal
/// onboarding jitter is off so the modelled handover floor is exact.
fabric::FabricTimings robot_timings() {
  fabric::FabricTimings t;
  t.detection = std::chrono::microseconds{500};
  t.auth_processing = std::chrono::microseconds{500};
  t.auth_round_trips = 2;
  t.roam_auth_round_trips = 1;
  t.rule_download_processing = std::chrono::microseconds{200};
  t.dhcp_processing = std::chrono::milliseconds{1};
  t.jitter_sigma = 0.0;
  return t;
}

std::string edge_name(unsigned e) { return "edge-" + std::to_string(e); }

/// Room for every move of a phase of `span` (Poisson, with a wide margin),
/// so the move log never grows inside a timed slice.
std::size_t expected_moves(sim::Duration span) {
  return static_cast<std::size_t>(std::chrono::duration<double>(span).count() *
                                  kMovesPerSecond * 1.1) +
         1024;
}

/// Poisson move generator shared by both arms: picks a robot that is not
/// mid-move (four tries, as the Fig. 11 workload does), flips it between the
/// two physical edges, and hands it to `start_move(idx)`. Stops at `t_end`.
template <class Robots, class Start>
class MoveProcess {
 public:
  MoveProcess(sim::Simulator& sim, sim::Rng& rng, Robots& robots, sim::SimTime t_end,
              Start start_move)
      : sim_(sim), rng_(rng), robots_(robots), t_end_(t_end), start_move_(std::move(start_move)) {
    arm();
  }
  MoveProcess(const MoveProcess&) = delete;
  MoveProcess& operator=(const MoveProcess&) = delete;

  [[nodiscard]] std::uint64_t attempted() const { return attempted_; }

 private:
  void arm() {
    sim_.schedule_after(rng_.exp_interarrival(kMovesPerSecond), [this] { fire(); });
  }
  void fire() {
    if (sim_.now() >= t_end_) return;
    arm();
    for (int attempt = 0; attempt < 4; ++attempt) {
      const std::size_t idx = rng_.next_below(robots_.size());
      auto& robot = robots_[idx];
      if (robot.moving || !robot.ready) continue;
      robot.moving = true;
      robot.edge = 1 - robot.edge;
      ++attempted_;
      start_move_(idx);
      return;
    }
  }

  sim::Simulator& sim_;
  sim::Rng& rng_;
  Robots& robots_;
  sim::SimTime t_end_;
  Start start_move_;
  std::uint64_t attempted_ = 0;
};

}  // namespace

RunResult run_warehouse_lisp(const RunOptions& opts, Spans& spans) {
  RunResult out;
  SetupTimer setup{opts.process_start_ns};
  sim::Simulator sim;
  sim::Rng rng{opts.seed};

  fabric::FabricConfig config;
  config.timings = robot_timings();
  config.l2_gateway = false;
  config.seed = opts.seed ^ 0x3A;
  fabric::SdaFabric fabric(sim, config);

  fabric.add_border("border-0");
  for (unsigned e = 0; e < kEdges; ++e) {
    fabric.add_edge(edge_name(e));
    fabric.link(edge_name(e), "border-0", kLink);
  }
  fabric.finalize();
  fabric.define_vn({kRobotVn, "robots", *net::Ipv4Prefix::parse("10.64.0.0/14"), std::nullopt});
  fabric.add_external_prefix(kRobotVn, *net::Ipv4Prefix::parse("0.0.0.0/0"));
  std::unordered_map<net::Ipv4Address, std::string> edge_of_rloc;
  for (unsigned e = 0; e < kEdges; ++e) edge_of_rloc[fabric.edge(edge_name(e)).rloc()] = edge_name(e);

  struct Robot {
    net::MacAddress mac;
    net::Ipv4Address ip;
    unsigned edge = 0;  // 0 or 1: the two physical edges
    bool ready = false;
    bool moving = false;
    std::int64_t move = -1;  // index into `moves` of the move in flight
  };
  std::vector<Robot> robots(kRobots);
  for (unsigned i = 0; i < kRobots; ++i) {
    robots[i].mac = net::MacAddress::from_u64(0x0600'0000'0000ull | i);
    robots[i].edge = i % 2;
    fabric::EndpointDefinition def;
    def.credential = "robot-" + std::to_string(i);
    def.secret = "wheels";
    def.mac = robots[i].mac;
    def.vn = kRobotVn;
    def.group = kRobotGroup;
    fabric.provision_endpoint(def);
  }

  // Set-up: onboard the population below the mobility rate; each robot
  // primes its upstream UDP flow towards the border (Fig. 10).
  const net::Ipv4Address sink{203u << 24 | 113};
  std::uint64_t onboarded = 0;
  // Callbacks capture a pointer to this handler and an index, so they fit
  // std::function's inline buffer (as in the measured phase).
  const auto on_onboard = [&](unsigned i, const fabric::OnboardResult& r) {
    if (!r.success) return;
    Robot& robot = robots[i];
    robot.ip = r.ip;
    robot.ready = true;
    ++onboarded;
    fabric.endpoint_send_udp(robot.mac, sink, 9000, 1458);
  };
  for (unsigned i = 0; i < kRobots; ++i) {
    sim.schedule_after(seconds_d(i / kOnboardPerSecond), [&, i] {
      spans.call(SpanKind::ConnectEndpoint, [&] {
        fabric.connect_endpoint(
            "robot-" + std::to_string(i), edge_name(robots[i].edge), 1,
            [on = &on_onboard, i](const fabric::OnboardResult& r) { (*on)(i, r); });
      });
    });
  }
  const sim::SimTime onboarding_end{seconds_d(kRobots / kOnboardPerSecond)};
  const sim::SimTime mobility_start = onboarding_end + std::chrono::seconds{2};
  setup.warm_up(sim, onboarding_end, kOnboardSlices, kOnboardSlices);
  setup.warm_up(sim, mobility_start, 1, 1);  // the last attaches land

  // Mobility from `mobility_start`: a warm-up, then the measured phase.
  const sim::SimTime t0 = mobility_start + kLispSlice * kLispWarmUpSlices;
  const unsigned slices = slices_for(opts.seconds, kLispSlicesPerSecond);
  const sim::SimTime t_end = t0 + kLispSlice * slices;
  std::vector<checks::MoveOutcome> moves;
  moves.reserve(expected_moves(t_end - mobility_start));
  std::uint64_t completed = 0;
  const auto maybe_finish = [&](Robot& robot) {
    const checks::MoveOutcome& m = moves[static_cast<std::size_t>(robot.move)];
    if (!m.attach_ns || !m.border_ns) return;
    ++completed;
    robot.moving = false;
    robot.move = -1;
  };
  std::unordered_map<net::VnEid, std::size_t> robot_of_eid;
  for (std::size_t i = 0; i < robots.size(); ++i) {
    robot_of_eid[net::VnEid{kRobotVn, net::Eid{robots[i].ip}}] = i;
  }
  fabric.set_border_sync_listener(
      [&](const std::string&, const net::VnEid& eid, const lisp::MappingRecord* record) {
        if (!record) return;
        const auto it = robot_of_eid.find(eid);
        if (it == robot_of_eid.end()) return;
        Robot& robot = robots[it->second];
        if (robot.move < 0) return;
        checks::MoveOutcome& m = moves[static_cast<std::size_t>(robot.move)];
        if (m.border_ns) return;
        m.border_ns = sim.now().nanoseconds();
        maybe_finish(robot);
      });

  // Each roam callback captures a pointer to this handler and the robot's
  // index, so it fits std::function's inline buffer and the benchmark
  // itself allocates nothing per move.
  const auto on_attach = [&](std::size_t idx, const fabric::OnboardResult& r) {
    Robot& robot = robots[idx];
    if (!r.success || robot.move < 0) return;
    moves[static_cast<std::size_t>(robot.move)].attach_ns = sim.now().nanoseconds();
    maybe_finish(robot);
  };
  MoveProcess mover(sim, rng, robots, t_end, [&](std::size_t idx) {
    Robot& robot = robots[idx];
    robot.move = static_cast<std::int64_t>(moves.size());
    moves.push_back(checks::MoveOutcome{sim.now().nanoseconds(), std::nullopt, std::nullopt});
    spans.call(SpanKind::RoamEndpoint, [&] {
      fabric.roam_endpoint(
          robot.mac, edge_name(robot.edge), 1,
          [on = &on_attach, idx](const fabric::OnboardResult& r) { (*on)(idx, r); });
    });
  });
  setup.warm_up(sim, t0, kLispWarmUpSlices, kLispWarmUpSlices);
  finish_setup(setup, out);

  const telemetry::Snapshot before = fabric.metrics().snapshot();
  DeliveryCounter deliveries{fabric, opts.trace};
  out.phase = run_slices(sim, t0, kLispSlice, slices, slices, spans, [&] { return completed; },
                         [](unsigned) {});
  const telemetry::Snapshot after = fabric.metrics().snapshot();
  const std::uint64_t phase_deliveries = deliveries.count();
  sim.run_until(t_end + std::chrono::seconds{2});  // drain in-flight moves
  out.attempted = mover.attempted();
  out.failed = out.attempted - completed;

  // Checks.
  out.checks.push_back(checks::moves_complete(moves));
  const std::int64_t one_way = std::chrono::nanoseconds(kLink).count() +
                               std::chrono::nanoseconds(config.underlay.per_hop_processing).count();
  const fabric::FabricTimings& t = config.timings;
  const std::int64_t rtt = 2 * one_way;
  const std::int64_t auth_client =
      std::chrono::nanoseconds(t.detection).count() + rtt * t.roam_auth_round_trips;
  const std::int64_t auth_cpu =
      std::chrono::nanoseconds(t.auth_processing).count() * t.roam_auth_round_trips;
  const std::int64_t floor_ns = std::max(auth_client, auth_cpu) + rtt +
                                std::chrono::nanoseconds(t.rule_download_processing).count() +
                                one_way;
  out.checks.push_back(checks::handover_floor(moves, floor_ns));
  std::vector<checks::LocationOutcome> locations;
  locations.reserve(robots.size());
  for (const Robot& robot : robots) {
    checks::LocationOutcome loc;
    loc.expected = edge_name(robot.edge);
    loc.located = fabric.location_of(robot.mac).value_or("");
    if (const lisp::MappingRecord* rec =
            fabric.map_server().find_host(net::VnEid{kRobotVn, net::Eid{robot.ip}})) {
      const auto e = edge_of_rloc.find(rec->primary_rloc());
      loc.registered = e == edge_of_rloc.end() ? rec->primary_rloc().to_string() : e->second;
    }
    locations.push_back(std::move(loc));
  }
  out.checks.push_back(checks::final_locations(locations));

  out.facts["robots"] = std::to_string(kRobots);
  out.facts["edges"] = std::to_string(kEdges);
  out.facts["onboarded"] = std::to_string(onboarded);
  out.facts["handover_floor_ns"] = std::to_string(floor_ns);

  if (opts.trace) {
    ReplayInputs replay;
    replay.edge = edge_name(0);
    replay.cache_eids.push_back(net::VnEid{kRobotVn, net::Eid{sink}});
    for (const Robot& robot : robots) {
      replay.server_eids.push_back(net::VnEid{kRobotVn, net::Eid{robot.ip}});
    }
    replay.vn = kRobotVn;
    replay.group_pairs = {{kRobotGroup, kRobotGroup}};
    fabric_layer_metrics(fabric, spans, after.delta(before), phase_deliveries, replay, out);
  }
  return out;
}

RunResult run_warehouse_bgp(const RunOptions& opts, Spans& spans) {
  RunResult out;
  SetupTimer setup{opts.process_start_ns};
  sim::Simulator sim;
  sim::Rng rng{opts.seed ^ 0xB6};

  bgp::ReflectorConfig rcfg;
  // Reflector CPU per peer UPDATE as in the Fig. 11 bench: at 800 moves/s
  // over 200 peers the output queue runs at utilisation ~0.85.
  rcfg.per_peer_send = std::chrono::microseconds{26};
  bgp::RouteReflector reflector{sim, rcfg, opts.seed ^ 0x9};
  std::vector<std::unique_ptr<bgp::BgpPeer>> peers;  // 0 = border, 1..200 = edges
  for (unsigned i = 0; i <= kEdges; ++i) {
    peers.push_back(std::make_unique<bgp::BgpPeer>(net::Ipv4Address{(10u << 24) | (1000 + i)}));
    reflector.add_client(*peers.back());
  }
  telemetry::MetricsRegistry registry;
  reflector.register_metrics(registry, "bgp");
  bgp::BgpPeer& border_peer = *peers.front();

  // Attach delay: the reactive arm's roam path up to the announcement.
  const fabric::FabricTimings t = robot_timings();
  const sim::Duration hop = kLink + std::chrono::microseconds{5};
  const sim::Duration attach_delay = t.detection + (hop * 2 + t.auth_processing) * t.roam_auth_round_trips;

  struct Robot {
    net::VnEid eid;
    unsigned edge = 0;
    bool ready = true;
    bool moving = false;
  };
  std::vector<Robot> robots(kRobots);
  std::unordered_map<net::VnEid, std::size_t> robot_of_eid;
  for (unsigned i = 0; i < kRobots; ++i) {
    robots[i].eid = net::VnEid{kRobotVn, net::Eid{net::Ipv4Address{(10u << 24) | (1u << 22) | i}}};
    robots[i].edge = i % 2;
    robot_of_eid[robots[i].eid] = i;
  }

  // Set-up: every robot's route is announced by its edge at the onboarding
  // rate and reflected to every other peer, so all RIBs hold the full
  // table before mobility starts.
  for (unsigned i = 0; i < kRobots; ++i) {
    sim.schedule_after(seconds_d(i / kOnboardPerSecond), [&, i] {
      const net::Ipv4Address rloc = peers[1 + robots[i].edge]->rloc();
      reflector.announce(rloc, robots[i].eid, rloc);
    });
  }
  // Timed as it runs, not in filtered slices: the peer RIBs grow slice by
  // slice (with rehash spikes of up to 0.3 s), so no slice is like another.
  sim.run();
  std::uint64_t rib_entries = 0;
  for (const auto& p : peers) rib_entries += p->rib().size();
  const sim::SimTime mobility_start = sim.now() + std::chrono::seconds{1};
  sim.run_until(mobility_start);

  // Mobility from `mobility_start`: a warm-up, then the measured phase.
  const sim::SimTime t0 = mobility_start + kBgpSlice * kBgpWarmUpSlices;
  const unsigned slices = slices_for(opts.seconds, kBgpSlicesPerSecond);
  const sim::SimTime t_end = t0 + kBgpSlice * slices;
  std::uint64_t completed = 0;
  std::vector<checks::MoveOutcome> moves;  // border convergence per move
  moves.reserve(expected_moves(t_end - mobility_start));
  std::vector<std::int64_t> move_of(kRobots, -1);
  border_peer.set_install_callback([&](const net::VnEid& eid, net::Ipv4Address) {
    const auto it = robot_of_eid.find(eid);
    if (it == robot_of_eid.end()) return;
    const std::size_t idx = it->second;
    if (move_of[idx] < 0) return;
    moves[static_cast<std::size_t>(move_of[idx])].border_ns = sim.now().nanoseconds();
    move_of[idx] = -1;
    robots[idx].moving = false;
    ++completed;
  });

  const auto on_attach = [&](std::size_t idx, net::Ipv4Address rloc) {
    moves[static_cast<std::size_t>(move_of[idx])].attach_ns = sim.now().nanoseconds();
    spans.call(SpanKind::BgpAnnounce, [&] { reflector.announce(rloc, robots[idx].eid, rloc); });
  };
  MoveProcess mover(sim, rng, robots, t_end, [&](std::size_t idx) {
    move_of[idx] = static_cast<std::int64_t>(moves.size());
    moves.push_back(checks::MoveOutcome{sim.now().nanoseconds(), std::nullopt, std::nullopt});
    const net::Ipv4Address rloc = peers[1 + robots[idx].edge]->rloc();
    auto attach = [on = &on_attach, idx, rloc] { (*on)(idx, rloc); };
    static_assert(sim::InlineAction::fits_inline<decltype(attach)>);
    sim.schedule_after(attach_delay, std::move(attach));
  });
  setup.warm_up(sim, t0, kBgpWarmUpSlices, kBgpWarmUpSlices);
  finish_setup(setup, out);

  const telemetry::Snapshot before = registry.snapshot();
  out.phase = run_slices(sim, t0, kBgpSlice, slices, slices, spans, [&] { return completed; },
                         [](unsigned) {});
  const telemetry::Snapshot after = registry.snapshot();
  sim.run();  // drain: every batch reaches every peer
  out.attempted = mover.attempted();
  out.failed = out.attempted - completed;

  out.checks.push_back(checks::moves_complete(moves));
  std::vector<std::uint32_t> expected(kRobots), own(kRobots);
  for (unsigned r = 0; r < kRobots; ++r) {
    own[r] = 1 + robots[r].edge;
    expected[r] = peers[own[r]]->rloc().value();
  }
  std::vector<std::vector<std::uint32_t>> observed(peers.size(),
                                                   std::vector<std::uint32_t>(kRobots, 0));
  for (std::size_t p = 0; p < peers.size(); ++p) {
    for (unsigned r = 0; r < kRobots; ++r) {
      if (const bgp::RibEntry* e = peers[p]->rib().lookup(robots[r].eid)) {
        observed[p][r] = e->next_hop.value();
      }
    }
  }
  out.checks.push_back(checks::peer_routes(observed, expected, own));

  out.facts["robots"] = std::to_string(kRobots);
  out.facts["peers"] = std::to_string(peers.size());
  out.facts["rib_entries_after_setup"] = std::to_string(rib_entries);

  if (opts.trace) {
    const telemetry::Snapshot d = after.delta(before);
    const double ops = static_cast<double>(out.phase.ops);
    out.layer["bgp.announce_ns"] = spans.median_call_ns(SpanKind::BgpAnnounce);
    out.layer["bgp.peer_updates_per_op"] =
        ops == 0 ? 0.0 : static_cast<double>(counter(d, "bgp.peer_updates_sent")) / ops;
    out.layer["bgp.rib_entries"] = static_cast<double>(rib_entries);
    const bgp::Rib& rib = border_peer.rib();
    std::uint64_t found = 0;
    out.layer["bgp.rib_lookup_ns"] =
        replay_probe(spans, SpanKind::ProbeRibLookup, 4 * kRobots, [&](std::size_t i) {
          found += rib.lookup(robots[(i * 7919) % kRobots].eid) != nullptr;
        });
    if (found != 4 * kRobots) std::fprintf(stderr, "rib probe missed %llu lookups\n",
                                           static_cast<unsigned long long>(4 * kRobots - found));
    out.layer["sim.dispatch_ns"] = probe_sim_dispatch(sim, spans, 1u << 20);
  }
  return out;
}

}  // namespace fb
