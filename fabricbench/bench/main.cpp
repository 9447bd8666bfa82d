// Whole-fabric benchmark: entry point.
//
//   fabricbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//               [--out-dir <dir>] [--commit <sha>] [--src-digest <hash>]
//
// Prints the correctness verdicts, a run manifest, and as its last line one
// JSON object {"correct", "attempted", "failed", "metrics"}: the end-to-end
// metrics untraced, the per-layer metrics traced. Exits 0 iff the run
// completed (a failed check still exits 0 and reports "correct": false).
#include <cpuid.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <map>
#include <string>
#include <thread>

#include "checks.hpp"
#include "harness.hpp"
#include "workloads.hpp"

namespace {

using fb::RunResult;

struct Args {
  std::string workload;
  fb::RunOptions opts;
  std::string out_dir = ".";
  std::string commit = "unknown";
  std::string src_digest = "unknown";
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "fabricbench: %s\n"
               "usage: fabricbench --workload <warehouse-lisp|warehouse-bgp|east-west|"
               "campus-day> --seed <n> --seconds <s> --trace <0|1> [--out-dir <dir>]"
               " [--commit <sha>] [--src-digest <hash>]\n",
               why);
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + key).c_str());
    const char* value = argv[++i];
    char* end = nullptr;
    if (key == "--workload") {
      a.workload = value;
    } else if (key == "--seed") {
      a.opts.seed = std::strtoull(value, &end, 10);
      if (*end != '\0') usage("--seed takes a whole number");
      have_seed = true;
    } else if (key == "--seconds") {
      const unsigned long s = std::strtoul(value, &end, 10);
      if (*end != '\0' || s == 0 || s > 600) usage("--seconds takes 1..600");
      a.opts.seconds = static_cast<unsigned>(s);
    } else if (key == "--trace") {
      if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0) {
        usage("--trace takes 0 or 1");
      }
      a.opts.trace = value[0] == '1';
    } else if (key == "--out-dir") {
      a.out_dir = value;
    } else if (key == "--commit") {
      a.commit = value;
    } else if (key == "--src-digest") {
      a.src_digest = value;
    } else {
      usage(("unknown option " + key).c_str());
    }
  }
  if (a.workload.empty() || !have_seed) usage("--workload and --seed are required");
  return a;
}

std::string cpu_model() {
  unsigned regs[12] = {};
  if (__get_cpuid_max(0x80000000u, nullptr) < 0x80000004u) return "unknown";
  for (unsigned i = 0; i < 3; ++i) {
    __get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1], &regs[4 * i + 2],
                &regs[4 * i + 3]);
  }
  std::string s(reinterpret_cast<const char*>(regs), sizeof(regs));
  s = s.c_str();  // drop trailing NULs
  const auto first = s.find_first_not_of(' ');
  return first == std::string::npos ? "unknown" : s.substr(first);
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

/// Every per-layer metric the traced run prints, with its unit. A workload
/// that does not exercise a layer reports 0 for it.
const std::map<std::string, std::string>& layer_units() {
  static const std::map<std::string, std::string> units{
      {"sim.events_per_op", "events/op"},
      {"sim.dispatch_ns", "ns"},
      {"sim.self_s", "s"},
      {"fabric.endpoint_send_udp_ns", "ns"},
      {"fabric.roam_endpoint_us", "us"},
      {"fabric.connect_endpoint_us", "us"},
      {"fabric.disconnect_endpoint_us", "us"},
      {"fabric.allocs_per_send", "allocs/call"},
      {"fabric.allocs_per_roam", "allocs/call"},
      {"dataplane.sgacl_verdict_ns", "ns"},
      {"dataplane.encaps_per_op", "count/op"},
      {"dataplane.policy_drops_per_op", "count/op"},
      {"dataplane.border_installs_per_op", "count/op"},
      {"lisp.map_cache_hit_ratio", "ratio"},
      {"lisp.map_cache_lookup_ns", "ns"},
      {"lisp.map_server_resolve_ns", "ns"},
      {"lisp.map_requests_per_op", "count/op"},
      {"lisp.map_registers_per_op", "count/op"},
      {"lisp.map_notifies_per_op", "count/op"},
      {"lisp.smrs_per_op", "count/op"},
      {"underlay.transit_delay_ns", "ns"},
      {"underlay.deliveries_per_op", "count/op"},
      {"policy.auths_per_op", "count/op"},
      {"bgp.announce_ns", "ns"},
      {"bgp.peer_updates_per_op", "count/op"},
      {"bgp.rib_lookup_ns", "ns"},
      {"bgp.rib_entries", "count"},
      {"heap.allocs_per_event", "allocs/event"},
      {"heap.setup_allocs", "count"},
  };
  return units;
}

double ratio(double num, double den) { return den == 0 ? 0.0 : num / den; }

}  // namespace

int main(int argc, char** argv) {
  const std::int64_t process_start = fb::now_ns();
  Args args = parse(argc, argv);
  args.opts.process_start_ns = process_start;

  static const std::map<std::string, std::function<RunResult(const fb::RunOptions&, fb::Spans&)>>
      workloads{{"warehouse-lisp", fb::run_warehouse_lisp},
                {"warehouse-bgp", fb::run_warehouse_bgp},
                {"east-west", fb::run_east_west},
                {"campus-day", fb::run_campus_day}};
  const auto wl = workloads.find(args.workload);
  if (wl == workloads.end()) usage(("unknown workload " + args.workload).c_str());

  fb::Spans spans{args.opts.trace};
  RunResult r = wl->second(args.opts, spans);

  for (fb::CheckResult& c : fb::checks::self_test()) r.checks.push_back(std::move(c));
  bool correct = true;
  for (const fb::CheckResult& c : r.checks) {
    correct = correct && c.passed;
    std::printf("check %-32s %s  %s\n", c.name.c_str(), c.passed ? "PASS" : "FAIL",
                c.detail.c_str());
  }

  const double ops_per_s = r.phase.ops_per_s();
  const double whole_phase_rate = ratio(static_cast<double>(r.phase.ops), r.phase.host_s);
  std::printf("phase: %llu ops, %llu events, %zu slices (%zu per stratum), %.4f host s,"
              " filtered rate %.1f ops/s, median slice rate %.1f ops/s, whole-phase rate %.1f"
              " ops/s%s\n",
              static_cast<unsigned long long>(r.phase.ops),
              static_cast<unsigned long long>(r.phase.events), r.phase.slices.size(),
              r.phase.per_stratum, r.phase.host_s, ops_per_s, fb::median(r.phase.slice_rates()),
              whole_phase_rate, args.opts.trace ? " (traced)" : "");

  if (r.phase.per_stratum < r.phase.slices.size()) {
    // Where the estimate's host time goes, stratum by stratum.
    std::printf("strata (ops, filtered host ms):");
    const std::vector<fb::SliceTime>& sl = r.phase.slices;
    for (std::size_t b = 0; b < sl.size(); b += r.phase.per_stratum) {
      const std::vector<fb::SliceTime> stratum(
          sl.begin() + static_cast<std::ptrdiff_t>(b),
          sl.begin() + static_cast<std::ptrdiff_t>(std::min(b + r.phase.per_stratum, sl.size())));
      std::uint64_t ops = 0;
      for (const fb::SliceTime& s : stratum) ops += s.work;
      std::printf(" %llu/%.1f", static_cast<unsigned long long>(ops),
                  fb::filtered_seconds(stratum, stratum.size()) * 1e3);
    }
    std::printf("\n");
  }

  if (args.opts.trace) {
    r.layer["sim.events_per_op"] =
        ratio(static_cast<double>(r.phase.events), static_cast<double>(r.phase.ops));
    r.layer["sim.self_s"] = spans.slice_seconds() - spans.call_seconds_in_slices();
    r.layer["heap.allocs_per_event"] =
        ratio(static_cast<double>(r.phase.allocs), static_cast<double>(r.phase.events));
    r.layer["heap.setup_allocs"] = static_cast<double>(r.setup_allocs);
    const std::string path = args.out_dir + "/spans-" + args.workload + ".bin";
    if (spans.write(path)) {
      std::printf("spans: %zu calls, %zu slices/probes written to %s\n", spans.calls().size(),
                  spans.batches().size(), path.c_str());
    } else {
      std::fprintf(stderr, "fabricbench: could not write %s\n", path.c_str());
    }
  }

  // Run manifest: what was measured, where, and how it was built.
  std::string manifest = "{\"manifest\": {";
  const auto field = [&manifest](const std::string& k, const std::string& v, bool last = false) {
    manifest += "\"" + k + "\": \"" + json_escape(v) + "\"" + (last ? "" : ", ");
  };
  field("workload", args.workload);
  field("seed", std::to_string(args.opts.seed));
  field("seconds", std::to_string(args.opts.seconds));
  field("trace", args.opts.trace ? "1" : "0");
  field("git_commit", args.commit);
  field("src_digest", args.src_digest);
  field("compiler", FB_COMPILER);
  field("flags", FB_FLAGS);
  field("build_type", FB_BUILD_TYPE);
  field("nproc", std::to_string(std::thread::hardware_concurrency()));
  field("cpu_model", cpu_model());
  field("ops_estimator",
        "ops / sum over strata of stratum ops / 95th percentile of its slice rates");
  field("slices", std::to_string(r.phase.slices.size()));
  field("slices_per_stratum", std::to_string(r.phase.per_stratum));
  field("sim_phase_ms",
        std::to_string(std::chrono::duration_cast<std::chrono::milliseconds>(r.phase.simulated).count()));
  field("phase_ops", std::to_string(r.phase.ops));
  field("phase_events", std::to_string(r.phase.events));
  for (const auto& [k, v] : r.facts) field(k, v);
  manifest.resize(manifest.size() - 2);
  manifest += "}}";
  std::printf("%s\n", manifest.c_str());

  std::string metrics;
  const auto metric = [&metrics](const std::string& name, double value, const std::string& unit) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", value);
    if (!metrics.empty()) metrics += ", ";
    metrics += "\"" + name + "\": {\"value\": " + buf + ", \"unit\": \"" + unit + "\"}";
  };
  if (args.opts.trace) {
    for (const auto& [name, unit] : layer_units()) {
      const auto it = r.layer.find(name);
      metric(name, it == r.layer.end() ? 0.0 : it->second, unit);
    }
    std::printf("traced: filtered rate %.1f ops/s\n", ops_per_s);
  } else {
    metric("setup_s", r.setup_s, "s");
    metric("ops_per_s", ops_per_s, "ops/s");
    metric("peak_rss_mb", fb::peak_rss_mb(), "MB");
    metric("allocs_per_op",
           ratio(static_cast<double>(r.phase.allocs), static_cast<double>(r.phase.ops)),
           "allocations/op");
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {%s}}\n",
              correct ? "true" : "false", static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed), metrics.c_str());
  return 0;
}
