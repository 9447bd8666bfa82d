// Shared machinery of the whole-fabric benchmark: host clocks, the heap
// allocation counter, in-memory spans, the simulated-slice runner, and the
// result record every workload fills in.
//
// Everything here measures the simulator from the outside: spans wrap the
// benchmark's own calls into public API functions, and counts come from
// the program's MetricsRegistry or from public accessors.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "sim/simulator.hpp"
#include "telemetry/metrics.hpp"

namespace fb {

using Clock = std::chrono::steady_clock;

/// Host nanoseconds since an arbitrary fixed origin.
[[nodiscard]] inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

/// Heap allocations made by this process so far (operator new is replaced
/// in harness.cpp and counts every call).
[[nodiscard]] std::uint64_t alloc_count();

/// Peak resident set of this process, MB (getrusage).
[[nodiscard]] double peak_rss_mb();

/// Quantile `q` in [0, 1] of `values`, linearly interpolated between
/// order statistics; 0 when empty.
[[nodiscard]] double quantile(std::vector<double> values, double q);
[[nodiscard]] inline double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

/// What a span covers. Slices are the parents of the call spans made while
/// they run; replay probes hang off the root.
enum class SpanKind : std::uint16_t {
  Slice,
  EndpointSendUdp,
  RoamEndpoint,
  ConnectEndpoint,
  DisconnectEndpoint,
  BgpAnnounce,
  ProbeSimDispatch,
  ProbeSgaclVerdict,
  ProbeMapCacheLookup,
  ProbeMapServerResolve,
  ProbeTransitDelay,
  ProbeRibLookup,
  kCount,
};

[[nodiscard]] const char* span_name(SpanKind kind);

/// One public call made by a generator, as a child of the running slice.
/// Kept compact: east-west records millions of these per traced run.
struct CallSpan {
  std::int64_t start_ns = 0;
  std::uint32_t dur_ns = 0;
  std::uint32_t slice = 0;   // 1-based index into Spans::batches(), 0 = none
  std::uint32_t allocs = 0;  // heap allocations inside the call
  SpanKind kind = SpanKind::EndpointSendUdp;
};

/// A slice or a replay probe: one span covering `items` operations.
struct BatchSpan {
  SpanKind kind = SpanKind::Slice;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint64_t allocs = 0;
  std::uint64_t items = 0;
};

/// In-memory span log, written out at exit. Disabled (the untraced run) it
/// records nothing and each wrapped call costs one predictable branch.
class Spans {
 public:
  explicit Spans(bool enabled) : enabled_(enabled) {
    if (enabled_) calls_.reserve(1u << 20);
  }

  [[nodiscard]] bool enabled() const { return enabled_; }

  /// Runs `fn` inside a span of `kind` (child of the running slice).
  template <class F>
  decltype(auto) call(SpanKind kind, F&& fn) {
    if (!enabled_) return fn();
    const std::uint64_t a0 = alloc_count();
    const std::int64_t t0 = now_ns();
    if constexpr (std::is_void_v<decltype(fn())>) {
      fn();
      record_call(kind, t0, a0);
    } else {
      decltype(auto) result = fn();
      record_call(kind, t0, a0);
      return result;
    }
  }

  /// Opens a slice: calls recorded until finish_slice() are its children.
  void open_slice() {
    batches_.push_back(BatchSpan{SpanKind::Slice, now_ns(), 0, alloc_count(), 0});
    slice_ = static_cast<std::uint32_t>(batches_.size());
  }
  void finish_slice(std::uint64_t ops) {
    BatchSpan& b = batches_[slice_ - 1];
    b.end_ns = now_ns();
    b.allocs = alloc_count() - b.allocs;
    b.items = ops;
    slice_ = 0;
  }

  /// Records a replay probe that ran `items` operations from `start_ns`.
  void record_probe(SpanKind kind, std::int64_t start_ns, std::uint64_t allocs_before,
                    std::uint64_t items) {
    batches_.push_back(
        BatchSpan{kind, start_ns, now_ns(), alloc_count() - allocs_before, items});
  }

  [[nodiscard]] const std::vector<CallSpan>& calls() const { return calls_; }
  [[nodiscard]] const std::vector<BatchSpan>& batches() const { return batches_; }

  /// Median duration (ns) of call spans of `kind`; 0 when none.
  [[nodiscard]] double median_call_ns(SpanKind kind) const;
  /// Mean allocations per call span of `kind`; 0 when none.
  [[nodiscard]] double mean_call_allocs(SpanKind kind) const;
  /// Host seconds covered by call spans inside slices.
  [[nodiscard]] double call_seconds_in_slices() const;
  /// Host seconds covered by slices.
  [[nodiscard]] double slice_seconds() const;

  /// Writes the log in the binary layout spans.py reads (a CSV of a
  /// traced east-west run would run to hundreds of MB). False on I/O error.
  bool write(const std::string& path) const;

 private:
  void record_call(SpanKind kind, std::int64_t t0, std::uint64_t a0) {
    const std::int64_t t1 = now_ns();
    calls_.push_back(CallSpan{t0, static_cast<std::uint32_t>(t1 - t0), slice_,
                              static_cast<std::uint32_t>(alloc_count() - a0), kind});
  }

  bool enabled_;
  std::uint32_t slice_ = 0;
  std::vector<CallSpan> calls_;
  std::vector<BatchSpan> batches_;
};

/// One timed simulated slice: the work it completed and its host time.
struct SliceTime {
  std::uint64_t work = 0;
  double secs = 0;
};

/// Host seconds `slices` take outside the host's slow spells. Contention
/// from other tenants of a shared VM slows the process's memory accesses
/// for seconds at a time and never speeds them up, so a high quantile of
/// the rates of many short slices of like work tracks the program's own
/// speed. Slices are grouped into strata of `per_stratum` consecutive
/// slices, each of one kind of work; a stratum counts its work divided by
/// the 95th percentile of its slice rates (work per host second), and a
/// stratum without work counts its raw host time. A stratum of one slice is
/// timed as it ran.
[[nodiscard]] double filtered_seconds(const std::vector<SliceTime>& slices,
                                      std::size_t per_stratum);

/// Host-side timing of a run of equal simulated slices.
struct PhaseTiming {
  std::vector<SliceTime> slices;  // work = operations (phase) or events (warm-up)
  std::size_t per_stratum = 1;
  std::uint64_t ops = 0;
  std::uint64_t events = 0;
  std::uint64_t allocs = 0;
  sda::sim::Duration simulated{};  // simulated span of the phase
  double host_s = 0;
  [[nodiscard]] double filtered_s() const { return filtered_seconds(slices, per_stratum); }
  /// The estimator behind ops_per_s: operations over filtered_s() (see
  /// README). With one stratum it is the 95th percentile of the slice
  /// rates; the median and the whole-phase rate move with the share of a
  /// run that fell in a slow spell.
  [[nodiscard]] double ops_per_s() const {
    const double secs = filtered_s();
    return secs == 0 ? 0.0 : static_cast<double>(ops) / secs;
  }
  [[nodiscard]] std::vector<double> slice_rates() const {
    std::vector<double> rates;
    rates.reserve(slices.size());
    for (const SliceTime& s : slices) rates.push_back(static_cast<double>(s.work) / s.secs);
    return rates;
  }
};

/// Runs `slices` slices of `slice` simulated time from `start`, in strata
/// of `per_stratum` slices. `work_done()` returns the cumulative work
/// count; `at_boundary(k)` runs (untimed) after slice k, for samples taken
/// at slice ends. `spans` records one span per slice when enabled.
template <class WorkFn, class BoundaryFn>
PhaseTiming run_slices(sda::sim::Simulator& sim, sda::sim::SimTime start,
                       sda::sim::Duration slice, unsigned slices, std::size_t per_stratum,
                       Spans& spans, WorkFn&& work_done, BoundaryFn&& at_boundary) {
  PhaseTiming out;
  out.slices.reserve(slices);
  out.per_stratum = per_stratum;
  const std::uint64_t work0 = work_done();
  const std::uint64_t events0 = sim.executed_events();
  std::uint64_t allocs_in_phase = 0;
  for (unsigned k = 0; k < slices; ++k) {
    const std::uint64_t before = work_done();
    const std::uint64_t a0 = alloc_count();
    const std::int64_t t0 = now_ns();
    if (spans.enabled()) spans.open_slice();
    sim.run_until(start + slice * (k + 1));
    const std::int64_t t1 = now_ns();
    allocs_in_phase += alloc_count() - a0;
    if (spans.enabled()) spans.finish_slice(work_done() - before);
    const double secs = static_cast<double>(t1 - t0) / 1e9;
    out.host_s += secs;
    out.slices.push_back(SliceTime{work_done() - before, secs});
    at_boundary(k);
  }
  out.ops = work_done() - work0;
  out.events = sim.executed_events() - events0;
  out.allocs = allocs_in_phase;
  out.simulated = slice * slices;
  return out;
}

/// Times one cold set-up from process start: the work outside the
/// simulator directly, and each simulated warm-up stage in equal slices
/// whose work is the events they execute, through filtered_seconds().
class SetupTimer {
 public:
  explicit SetupTimer(std::int64_t process_start_ns) : mark_ns_(process_start_ns) {}

  /// Runs `sim` to `until` in `slices` equal slices, `per_stratum` to a
  /// stratum (one kind of work each); `at_boundary` runs (untimed) after
  /// each slice.
  void warm_up(sda::sim::Simulator& sim, sda::sim::SimTime until, unsigned slices,
               std::size_t per_stratum, const std::function<void()>& at_boundary = {});

  /// Set-up seconds so far: direct time plus filtered warm-up time.
  [[nodiscard]] double seconds() const;
  /// The parts of seconds(), and the warm-up's raw host time.
  [[nodiscard]] double direct_s() const;
  [[nodiscard]] double warm_up_s() const { return warm_s_; }
  [[nodiscard]] double warm_up_raw_s() const { return warm_raw_s_; }

 private:
  std::int64_t mark_ns_;  // end of the last warm-up stage (or process start)
  double direct_s_ = 0;   // direct time before the last warm-up stage
  double warm_s_ = 0;
  double warm_raw_s_ = 0;
};

/// Sum of every counter in `snap` whose name ends with `suffix`.
[[nodiscard]] std::uint64_t sum_suffix(const sda::telemetry::Snapshot& snap,
                                       const std::string& suffix);
/// Value of one counter (0 if absent).
[[nodiscard]] std::uint64_t counter(const sda::telemetry::Snapshot& snap,
                                    const std::string& name);

/// Host ns per call of `fn` over `iterations` calls (one span per probe).
template <class F>
double replay_probe(Spans& spans, SpanKind kind, std::size_t iterations, F&& fn) {
  const std::uint64_t a0 = alloc_count();
  const std::int64_t t0 = now_ns();
  for (std::size_t i = 0; i < iterations; ++i) fn(i);
  const std::int64_t t1 = now_ns();
  if (spans.enabled()) spans.record_probe(kind, t0, a0, iterations);
  return iterations == 0 ? 0.0
                         : static_cast<double>(t1 - t0) / static_cast<double>(iterations);
}

/// Schedules and dispatches `n` no-op events on `sim` (which must be idle
/// up to its current time); returns ns per event.
double probe_sim_dispatch(sda::sim::Simulator& sim, Spans& spans, std::size_t n);

/// One named correctness check and its verdict.
struct CheckResult {
  std::string name;
  bool passed = false;
  std::string detail;  // what was compared, or the first mismatch
};

/// Everything one workload run reports.
struct RunResult {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  double setup_s = 0;  // SetupTimer::seconds() at the end of set-up
  PhaseTiming phase;
  std::uint64_t setup_allocs = 0;
  std::vector<CheckResult> checks;
  /// Per-layer metrics (traced run only), by name.
  std::map<std::string, double> layer;
  /// Workload facts for the manifest (sizes, simulated span, counts).
  std::map<std::string, std::string> facts;
};

/// Ends the set-up timed by `timer`: records setup_s, the allocations so
/// far, and the parts of setup_s as manifest facts.
void finish_setup(const SetupTimer& timer, RunResult& out);

struct RunOptions {
  std::uint64_t seed = 1;
  unsigned seconds = 10;
  bool trace = false;
  std::int64_t process_start_ns = 0;
};

}  // namespace fb
