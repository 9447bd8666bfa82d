#include "harness.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstddef>
#include <cstdlib>
#include <cstring>
#include <new>

namespace {

// Every operator new in the process bumps this counter. Relaxed atomics:
// the benchmark is single-threaded, the atomic only keeps the count
// well-defined should a library thread allocate.
std::atomic<std::uint64_t> g_allocs{0};

void* counted_alloc(std::size_t size) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (size == 0) size = 1;
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc{};
}

void* counted_aligned_alloc(std::size_t size, std::align_val_t align) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  const auto a = static_cast<std::size_t>(align);
  const std::size_t rounded = (std::max<std::size_t>(size, 1) + a - 1) / a * a;
  if (void* p = std::aligned_alloc(a, rounded)) return p;
  throw std::bad_alloc{};
}

}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return counted_alloc(size);
  } catch (...) {
    return nullptr;
  }
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return counted_alloc(size);
  } catch (...) {
    return nullptr;
  }
}
void* operator new(std::size_t size, std::align_val_t align) {
  return counted_aligned_alloc(size, align);
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return counted_aligned_alloc(size, align);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }

namespace fb {

std::uint64_t alloc_count() { return g_allocs.load(std::memory_order_relaxed); }

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (pos - static_cast<double>(lo));
}

double filtered_seconds(const std::vector<SliceTime>& slices, std::size_t per_stratum) {
  double total = 0;
  const std::size_t step = std::max<std::size_t>(per_stratum, 1);
  for (std::size_t begin = 0; begin < slices.size(); begin += step) {
    const std::size_t end = std::min(begin + step, slices.size());
    std::uint64_t work = 0;
    double raw = 0;
    std::vector<double> rates;
    for (std::size_t k = begin; k < end; ++k) {
      work += slices[k].work;
      raw += slices[k].secs;
      rates.push_back(static_cast<double>(slices[k].work) / slices[k].secs);
    }
    const double rate = quantile(std::move(rates), 0.95);
    total += work == 0 || rate == 0 ? raw : static_cast<double>(work) / rate;
  }
  return total;
}

void SetupTimer::warm_up(sda::sim::Simulator& sim, sda::sim::SimTime until, unsigned slices,
                         std::size_t per_stratum, const std::function<void()>& at_boundary) {
  const std::int64_t start_ns = now_ns();
  direct_s_ += static_cast<double>(start_ns - mark_ns_) / 1e9;
  const sda::sim::SimTime from = sim.now();
  Spans untraced{false};
  const PhaseTiming t = run_slices(sim, from, (until - from) / slices, slices, per_stratum,
                                   untraced, [&sim] { return sim.executed_events(); },
                                   [&at_boundary](unsigned) {
                                     if (at_boundary) at_boundary();
                                   });
  sim.run_until(until);  // the remainder of the integer division, if any
  warm_s_ += t.filtered_s();
  warm_raw_s_ += t.host_s;
  mark_ns_ = now_ns();
}

double SetupTimer::direct_s() const {
  return direct_s_ + static_cast<double>(now_ns() - mark_ns_) / 1e9;
}

double SetupTimer::seconds() const { return direct_s() + warm_s_; }

void finish_setup(const SetupTimer& timer, RunResult& out) {
  out.setup_s = timer.seconds();
  out.setup_allocs = alloc_count();
  out.facts["setup_direct_s"] = std::to_string(timer.direct_s());
  out.facts["setup_warm_up_s"] = std::to_string(timer.warm_up_s());
  out.facts["setup_warm_up_raw_s"] = std::to_string(timer.warm_up_raw_s());
}

const char* span_name(SpanKind kind) {
  switch (kind) {
    case SpanKind::Slice: return "slice";
    case SpanKind::EndpointSendUdp: return "fabric.endpoint_send_udp";
    case SpanKind::RoamEndpoint: return "fabric.roam_endpoint";
    case SpanKind::ConnectEndpoint: return "fabric.connect_endpoint";
    case SpanKind::DisconnectEndpoint: return "fabric.disconnect_endpoint";
    case SpanKind::BgpAnnounce: return "bgp.announce";
    case SpanKind::ProbeSimDispatch: return "probe.sim_dispatch";
    case SpanKind::ProbeSgaclVerdict: return "probe.sgacl_verdict";
    case SpanKind::ProbeMapCacheLookup: return "probe.map_cache_lookup";
    case SpanKind::ProbeMapServerResolve: return "probe.map_server_resolve";
    case SpanKind::ProbeTransitDelay: return "probe.transit_delay";
    case SpanKind::ProbeRibLookup: return "probe.rib_lookup";
    case SpanKind::kCount: break;
  }
  return "?";
}

double Spans::median_call_ns(SpanKind kind) const {
  std::vector<double> durations;
  for (const CallSpan& c : calls_) {
    if (c.kind == kind) durations.push_back(static_cast<double>(c.dur_ns));
  }
  return median(std::move(durations));
}

double Spans::mean_call_allocs(SpanKind kind) const {
  std::uint64_t allocs = 0, n = 0;
  for (const CallSpan& c : calls_) {
    if (c.kind != kind) continue;
    allocs += c.allocs;
    ++n;
  }
  return n == 0 ? 0.0 : static_cast<double>(allocs) / static_cast<double>(n);
}

double Spans::call_seconds_in_slices() const {
  std::uint64_t ns = 0;
  for (const CallSpan& c : calls_) {
    if (c.slice != 0) ns += c.dur_ns;
  }
  return static_cast<double>(ns) / 1e9;
}

double Spans::slice_seconds() const {
  std::int64_t ns = 0;
  for (const BatchSpan& b : batches_) {
    if (b.kind == SpanKind::Slice) ns += b.end_ns - b.start_ns;
  }
  return static_cast<double>(ns) / 1e9;
}

// Layout (native little-endian, the structs' own padding):
//   "FBSPANS1", u32 kind count, per kind: u32 length + name bytes,
//   u64 batch count, BatchSpan[] (40 bytes: u16 kind, pad, i64 start_ns,
//   i64 end_ns, u64 allocs, u64 items),
//   u64 call count, CallSpan[] (24 bytes: i64 start_ns, u32 dur_ns,
//   u32 slice (1-based batch index), u32 allocs, u16 kind, pad).
static_assert(sizeof(BatchSpan) == 40 && offsetof(BatchSpan, start_ns) == 8);
static_assert(sizeof(CallSpan) == 24 && offsetof(CallSpan, kind) == 20);

bool Spans::write(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (!f) return false;
  bool ok = std::fwrite("FBSPANS1", 1, 8, f) == 8;
  const auto kinds = static_cast<std::uint32_t>(SpanKind::kCount);
  ok = ok && std::fwrite(&kinds, sizeof kinds, 1, f) == 1;
  for (std::uint32_t k = 0; k < kinds; ++k) {
    const char* name = span_name(static_cast<SpanKind>(k));
    const auto len = static_cast<std::uint32_t>(std::strlen(name));
    ok = ok && std::fwrite(&len, sizeof len, 1, f) == 1 && std::fwrite(name, 1, len, f) == len;
  }
  const std::uint64_t nb = batches_.size(), nc = calls_.size();
  ok = ok && std::fwrite(&nb, sizeof nb, 1, f) == 1 &&
       std::fwrite(batches_.data(), sizeof(BatchSpan), nb, f) == nb;
  ok = ok && std::fwrite(&nc, sizeof nc, 1, f) == 1 &&
       std::fwrite(calls_.data(), sizeof(CallSpan), nc, f) == nc;
  return std::fclose(f) == 0 && ok;
}

std::uint64_t sum_suffix(const sda::telemetry::Snapshot& snap, const std::string& suffix) {
  std::uint64_t total = 0;
  for (const auto& [name, value] : snap.counters) {
    if (name.ends_with(suffix)) total += value;
  }
  return total;
}

std::uint64_t counter(const sda::telemetry::Snapshot& snap, const std::string& name) {
  const auto it = snap.counters.find(name);
  return it == snap.counters.end() ? 0 : it->second;
}

double probe_sim_dispatch(sda::sim::Simulator& sim, Spans& spans, std::size_t n) {
  // Batches of 1024 no-op events keep the queue as shallow as a running
  // fabric's; each batch is scheduled, then dispatched.
  constexpr std::size_t kBatch = 1024;
  std::uint64_t ran = 0;
  sda::sim::SimTime t = sim.now();
  const std::uint64_t a0 = alloc_count();
  const std::int64_t t0 = now_ns();
  for (std::size_t done = 0; done < n; done += kBatch) {
    const std::size_t batch = std::min(kBatch, n - done);
    for (std::size_t i = 0; i < batch; ++i) {
      sim.schedule_at(t + sda::sim::Duration{static_cast<std::int64_t>(i)}, [&ran] { ++ran; });
    }
    t = t + sda::sim::Duration{static_cast<std::int64_t>(batch)};
    sim.run_until(t);
  }
  const std::int64_t t1 = now_ns();
  if (spans.enabled()) spans.record_probe(SpanKind::ProbeSimDispatch, t0, a0, n);
  if (ran != n) {
    std::fprintf(stderr, "sim dispatch probe ran %llu of %zu events\n",
                 static_cast<unsigned long long>(ran), n);
  }
  return n == 0 ? 0.0 : static_cast<double>(t1 - t0) / static_cast<double>(n);
}

}  // namespace fb
