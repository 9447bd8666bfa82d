// The four whole-fabric workloads. Each runs once per process on the
// calling thread: set-up (topology, provisioning, onboarding or initial
// route load) followed by a measured phase of equal simulated slices, a
// drain, the correctness checks, and — when traced — the replay probes.
#pragma once

#include "harness.hpp"

namespace fb {

/// Fig. 11 reactive arm: 200 edges, 16k robots, Poisson 800 moves/s.
RunResult run_warehouse_lisp(const RunOptions& opts, Spans& spans);
/// Fig. 11 proactive arm: the same move process over a BGP route reflector.
RunResult run_warehouse_bgp(const RunOptions& opts, Spans& spans);
/// Steady east-west forwarding with warm map-caches and an SGACL matrix.
RunResult run_east_west(const RunOptions& opts, Spans& spans);
/// Fig. 9 / Table 5 building-B diurnal model, scaled.
RunResult run_campus_day(const RunOptions& opts, Spans& spans);

/// Simulated slices in the measured phase for a run of `seconds`: the
/// per-workload constant is the slice count one host second held on the
/// reference machine, so the work is fixed by (seed, seconds) alone.
[[nodiscard]] inline unsigned slices_for(unsigned seconds, double slices_per_second) {
  const double n = static_cast<double>(seconds) * slices_per_second;
  return n < 5.0 ? 5u : static_cast<unsigned>(n + 0.5);
}

}  // namespace fb
