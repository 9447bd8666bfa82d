#include "checks.hpp"

#include <algorithm>

namespace fb::checks {

namespace {

CheckResult verdict(std::string name, bool passed, std::string detail) {
  return CheckResult{std::move(name), passed, std::move(detail)};
}

std::string num(std::uint64_t v) { return std::to_string(v); }

}  // namespace

CheckResult moves_complete(const std::vector<MoveOutcome>& moves) {
  std::uint64_t incomplete = 0;
  for (const MoveOutcome& m : moves) {
    if (!m.attach_ns || !m.border_ns) ++incomplete;
  }
  return verdict("moves_complete", !moves.empty() && incomplete == 0,
                 num(moves.size()) + " moves, " + num(incomplete) + " incomplete");
}

CheckResult handover_floor(const std::vector<MoveOutcome>& moves, std::int64_t floor_ns) {
  std::uint64_t below = 0;
  std::int64_t shortest = -1;
  for (const MoveOutcome& m : moves) {
    if (!m.attach_ns || !m.border_ns) continue;  // moves_complete reports these
    const std::int64_t handover = std::max(*m.attach_ns, *m.border_ns) - m.detach_ns;
    if (shortest < 0 || handover < shortest) shortest = handover;
    if (handover < floor_ns) ++below;
  }
  return verdict("handover_floor", shortest >= 0 && below == 0,
                 "floor " + std::to_string(floor_ns) + " ns, shortest " +
                     std::to_string(shortest) + " ns, " + num(below) + " below");
}

CheckResult final_locations(const std::vector<LocationOutcome>& robots) {
  std::uint64_t wrong = 0;
  std::string first;
  for (std::size_t i = 0; i < robots.size(); ++i) {
    const LocationOutcome& r = robots[i];
    if (r.located == r.expected && r.registered == r.expected) continue;
    if (wrong++ == 0) {
      first = "; first: robot " + std::to_string(i) + " expected " + r.expected +
              " located '" + r.located + "' registered '" + r.registered + "'";
    }
  }
  return verdict("final_locations", !robots.empty() && wrong == 0,
                 num(robots.size()) + " robots, " + num(wrong) + " misplaced" + first);
}

CheckResult peer_routes(const std::vector<std::vector<std::uint32_t>>& observed,
                        const std::vector<std::uint32_t>& expected,
                        const std::vector<std::uint32_t>& own_peer) {
  std::uint64_t checked = 0, wrong = 0;
  for (std::size_t p = 0; p < observed.size(); ++p) {
    for (std::size_t r = 0; r < expected.size(); ++r) {
      if (own_peer[r] == p) continue;
      ++checked;
      if (observed[p][r] != expected[r]) ++wrong;
    }
  }
  return verdict("peer_routes", checked > 0 && wrong == 0,
                 num(checked) + " (peer, robot) routes, " + num(wrong) + " wrong or missing");
}

CheckResult delivered_equals_permitted(std::uint64_t delivered, std::uint64_t permitted_sent) {
  return verdict("delivered_equals_permitted", permitted_sent > 0 && delivered == permitted_sent,
                 "delivered " + num(delivered) + ", permitted sent " + num(permitted_sent));
}

CheckResult no_denied_delivery(const PairCounts& delivered, const DeniedPairs& denied) {
  std::uint64_t leaked = 0, total = 0;
  for (const auto& [pair, count] : delivered) {
    total += count;
    if (std::find(denied.begin(), denied.end(), pair) != denied.end()) leaked += count;
  }
  return verdict("no_denied_delivery", total > 0 && leaked == 0,
                 num(total) + " delivered, " + num(leaked) + " on denied pairs");
}

CheckResult policy_drops_match(std::uint64_t program_drops, std::uint64_t denied_sent) {
  return verdict("policy_drops_match", denied_sent > 0 && program_drops == denied_sent,
                 "program policy_drops " + num(program_drops) + ", denied sent " +
                     num(denied_sent));
}

CheckResult border_fib_tracks_presence(const std::vector<FibSample>& samples) {
  std::uint64_t wrong = 0;
  std::string first;
  for (const FibSample& s : samples) {
    for (std::size_t b = 0; b < s.border_fib.size(); ++b) {
      if (s.border_fib[b] == s.expected_border) continue;
      if (wrong++ == 0) {
        first = "; first: hour " + std::to_string(s.hour) + " border " + std::to_string(b) +
                " holds " + num(s.border_fib[b]) + ", expected " + num(s.expected_border);
      }
    }
  }
  return verdict("border_fib_tracks_presence", !samples.empty() && wrong == 0,
                 num(samples.size()) + " hourly samples, " + num(wrong) + " mismatches" +
                     first);
}

CheckResult edge_cache_bounded(const std::vector<FibSample>& samples) {
  std::uint64_t over = 0, largest = 0;
  for (const FibSample& s : samples) {
    if (s.border_fib.empty()) continue;
    const std::uint64_t border = *std::min_element(s.border_fib.begin(), s.border_fib.end());
    for (const std::uint64_t e : s.edge_positive) {
      largest = std::max(largest, e);
      if (e > border) ++over;
    }
  }
  return verdict("edge_cache_bounded", !samples.empty() && over == 0,
                 "largest edge cache " + num(largest) + ", " + num(over) +
                     " (sample, edge) pairs above the border FIB");
}

CheckResult flow_outcomes(const FlowTally& flows) {
  return verdict("flow_outcomes", flows.deliver > 0 && flows.drop > 0 && flows.wrong == 0,
                 num(flows.deliver) + " to deliver, " + num(flows.drop) + " to drop, " +
                     num(flows.race) + " in the race window excluded, " + num(flows.wrong) +
                     " wrong");
}

std::vector<CheckResult> self_test() {
  std::vector<CheckResult> out;
  const auto pair_test = [&out](const std::string& name, const CheckResult& right,
                                const CheckResult& wrong) {
    out.push_back(verdict("selftest." + name, right.passed && !wrong.passed,
                          "right input " + std::string(right.passed ? "passed" : "FAILED") +
                              ", wrong input " +
                              std::string(wrong.passed ? "PASSED" : "failed")));
  };

  const std::vector<MoveOutcome> good_moves{{0, 900, 1000}, {50, 1200, 1100}};
  const std::vector<MoveOutcome> lost_border{{0, 900, 1000}, {50, 1200, std::nullopt}};
  pair_test("moves_complete", moves_complete(good_moves), moves_complete(lost_border));
  pair_test("handover_floor", handover_floor(good_moves, 1000),
            handover_floor({{0, 900, 999}}, 1000));

  pair_test("final_locations", final_locations({{"edge-1", "edge-1", "edge-1"}}),
            final_locations({{"edge-1", "edge-1", "edge-0"}}));

  // Two peers, two robots; robot 0 announced by peer 0, robot 1 by peer 1.
  const std::vector<std::uint32_t> expected{7, 9}, own{0, 1};
  pair_test("peer_routes", peer_routes({{0, 9}, {7, 0}}, expected, own),
            peer_routes({{0, 9}, {8, 0}}, expected, own));

  pair_test("delivered_equals_permitted", delivered_equals_permitted(10, 10),
            delivered_equals_permitted(9, 10));
  const DeniedPairs denied{{2, 3}};
  pair_test("no_denied_delivery", no_denied_delivery({{{1, 3}, 5}}, denied),
            no_denied_delivery({{{1, 3}, 5}, {{2, 3}, 1}}, denied));
  pair_test("policy_drops_match", policy_drops_match(4, 4), policy_drops_match(5, 4));

  const FibSample ok{1.0, 12, {12, 12}, {3, 12}};
  const FibSample stale{2.0, 12, {12, 13}, {3, 4}};
  const FibSample bloated{3.0, 12, {12, 12}, {3, 13}};
  pair_test("border_fib_tracks_presence", border_fib_tracks_presence({ok}),
            border_fib_tracks_presence({ok, stale}));
  pair_test("edge_cache_bounded", edge_cache_bounded({ok}), edge_cache_bounded({ok, bloated}));

  FlowTally flows, leaked;
  for (FlowTally* t : {&flows, &leaked}) {
    t->add(FlowExpect::Deliver, true);
    t->add(FlowExpect::Race, true);
  }
  flows.add(FlowExpect::Drop, false);
  leaked.add(FlowExpect::Drop, true);
  pair_test("flow_outcomes", flow_outcomes(flows), flow_outcomes(leaked));
  return out;
}

}  // namespace fb::checks
