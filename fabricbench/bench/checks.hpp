// Correctness checks, computed apart from the program: each takes what the
// benchmark's generator expected and what it observed through the public
// API, as plain values, and returns a verdict. self_test() feeds every
// check a right and a wrong outcome and verifies it tells them apart.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "harness.hpp"

namespace fb::checks {

// --- warehouse-lisp -------------------------------------------------------

/// One move as the generator saw it (host-independent simulated times, ns).
struct MoveOutcome {
  std::int64_t detach_ns = 0;
  std::optional<std::int64_t> attach_ns;  // roam callback fired
  std::optional<std::int64_t> border_ns;  // border installed the new mapping
};

/// Every attempted move completed: attach plus border sync.
CheckResult moves_complete(const std::vector<MoveOutcome>& moves);

/// No handover (max(attach, border) - detach) is shorter than `floor_ns`.
CheckResult handover_floor(const std::vector<MoveOutcome>& moves, std::int64_t floor_ns);

/// Per robot: the edge the generator last moved it to, where the fabric
/// says it is attached, and which edge the map server's record names.
struct LocationOutcome {
  std::string expected;
  std::string located;
  std::string registered;
};
CheckResult final_locations(const std::vector<LocationOutcome>& robots);

// --- warehouse-bgp --------------------------------------------------------

/// `observed[p][r]` is peer p's next hop for robot r (0 = no route);
/// `expected[r]` the next hop the generator last announced and
/// `own_peer[r]` the peer that announced it (which holds no reflected copy).
CheckResult peer_routes(const std::vector<std::vector<std::uint32_t>>& observed,
                        const std::vector<std::uint32_t>& expected,
                        const std::vector<std::uint32_t>& own_peer);

// --- east-west ------------------------------------------------------------

/// Source/destination group pair -> frames.
using PairCounts = std::map<std::pair<std::uint16_t, std::uint16_t>, std::uint64_t>;
/// Denied (source, destination) group pairs in the benchmark's own matrix.
using DeniedPairs = std::vector<std::pair<std::uint16_t, std::uint16_t>>;

/// Frames delivered equal the permitted frames the generator sent.
CheckResult delivered_equals_permitted(std::uint64_t delivered, std::uint64_t permitted_sent);

/// No delivered frame belongs to a denied group pair.
CheckResult no_denied_delivery(const PairCounts& delivered, const DeniedPairs& denied);

/// The program's summed policy_drops equal the generator's denied sends.
CheckResult policy_drops_match(std::uint64_t program_drops, std::uint64_t denied_sent);

// --- campus-day -----------------------------------------------------------

/// One hourly sample of FIB state.
struct FibSample {
  double hour = 0;
  std::uint64_t expected_border = 0;  // present endpoints
  std::vector<std::uint64_t> border_fib;  // per border
  std::vector<std::uint64_t> edge_positive;  // per edge, after a TTL sweep
};

/// Each border's FIB equals the generator's count of present endpoints at
/// every sample.
CheckResult border_fib_tracks_presence(const std::vector<FibSample>& samples);

/// No edge caches more positive entries than the border holds.
CheckResult edge_cache_bounded(const std::vector<FibSample>& samples);

enum class FlowExpect : std::uint8_t { Deliver, Drop, Race };
/// Flow outcomes, tallied as flows settle (a run initiates millions).
struct FlowTally {
  std::uint64_t deliver = 0, drop = 0, race = 0, wrong = 0;
  void add(FlowExpect expect, bool delivered) {
    switch (expect) {
      case FlowExpect::Deliver:
        ++deliver;
        wrong += delivered ? 0 : 1;
        break;
      case FlowExpect::Drop:
        ++drop;
        wrong += delivered ? 1 : 0;
        break;
      case FlowExpect::Race: ++race; break;
    }
  }
};
/// Flows to present, permitted peers are delivered; flows to departed peers
/// (or denied ones) are not. Race flows are excluded and counted.
CheckResult flow_outcomes(const FlowTally& flows);

/// Runs every check above on a right and a wrong outcome; one result per
/// check, passed iff the check accepted the right and refused the wrong.
std::vector<CheckResult> self_test();

}  // namespace fb::checks
