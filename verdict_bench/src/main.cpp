// verdict_bench: time from a netlist (or a serve frame) to a checked
// verdict, on four closed-loop workloads. See verdict_bench/README.md.
//
//   verdict_bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                 [--trace-file <path>] [--scratch-dir <dir>] [--setup-only 1]
//
// Prints a human-readable report, then, as its last line, one JSON object
// {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics
// with --trace 0, the per-layer metrics with --trace 1. With --setup-only 1
// it sets the workload up, tears it down and prints only the set-up's
// seconds; the main run starts itself that way for its extra set-ups.

#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <numeric>
#include <sstream>
#include <string>
#include <vector>

#include "stats.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace vb {
namespace {

/// Set-ups per run, each in a fresh process; setup_s is their median.
constexpr int kSetups = 3;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_file;
  std::string scratch_dir = ".bench_build";
  bool setup_only = false;
};

[[noreturn]] void usage(const std::string& message) {
  std::cerr << "verdict_bench: " << message
            << "\nusage: verdict_bench --workload <flow_gate|retime_large|"
               "equiv_pairs|serve_mix> --seed <n> --seconds <s> --trace <0|1> "
               "[--trace-file <path>] [--scratch-dir <dir>] [--setup-only 1]\n";
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args args;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) usage("missing value for " + key);
    const std::string value = argv[++i];
    try {
      if (key == "--workload") {
        args.workload = value;
        have_workload = true;
      } else if (key == "--seed") {
        args.seed = std::stoull(value);
      } else if (key == "--seconds") {
        args.seconds = std::stod(value);
      } else if (key == "--trace") {
        args.trace = value == "1";
      } else if (key == "--trace-file") {
        args.trace_file = value;
      } else if (key == "--scratch-dir") {
        args.scratch_dir = value;
      } else if (key == "--setup-only") {
        args.setup_only = value == "1";
      } else {
        usage("unknown option " + key);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + key + ": " + value);
    }
  }
  if (!have_workload) usage("--workload is required");
  if (!(args.seconds > 0)) usage("--seconds must be positive");
  return args;
}

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Seconds of one cold set-up: this program started afresh with
/// --setup-only 1, from its start to the end of the workload's set-up.
double cold_setup_s(const Args& args) {
  char exe[4096];
  const ssize_t n = ::readlink("/proc/self/exe", exe, sizeof(exe) - 1);
  if (n <= 0) throw std::runtime_error("cannot locate /proc/self/exe");
  exe[n] = '\0';
  const auto quoted = [](const std::string& s) {
    std::string q = "'";
    for (const char c : s) q += c == '\'' ? std::string("'\\''") : std::string(1, c);
    return q + "'";
  };
  const std::string command =
      quoted(exe) + " --workload " + quoted(args.workload) + " --seed " +
      std::to_string(args.seed) + " --seconds " + std::to_string(args.seconds) +
      " --trace " + (args.trace ? "1" : "0") + " --scratch-dir " +
      quoted(args.scratch_dir) + " --setup-only 1";
  std::FILE* child = ::popen(command.c_str(), "r");
  if (child == nullptr) throw std::runtime_error("cannot start a set-up process");
  std::string out;
  char buffer[256];
  while (std::fgets(buffer, sizeof(buffer), child) != nullptr) out += buffer;
  const int status = ::pclose(child);  // waits for the child
  if (status == -1 || !WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    throw std::runtime_error("set-up process failed");
  }
  return std::stod(out);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string render_result(bool correct, const Ledger& ledger,
                          const std::vector<Metric>& metrics) {
  std::ostringstream os;
  os.precision(12);
  os << "{\"correct\": " << (correct ? "true" : "false")
     << ", \"attempted\": " << ledger.attempted()
     << ", \"failed\": " << ledger.failed() << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    os << (i == 0 ? "" : ", ") << "\"" << metrics[i].name
       << "\": {\"value\": " << metrics[i].value << ", \"unit\": \""
       << metrics[i].unit << "\"}";
  }
  os << "}}";
  return os.str();
}

double share(double part, double whole) { return whole > 0 ? part / whole : 0.0; }

std::vector<Metric> per_layer_metrics(const RunState& state, const Tracer& tracer) {
  std::vector<Metric> out;
  const auto self = tracer.self_times();
  // Mean self time per op that made the call.
  for (const char* layer :
       {"io.parse", "analysis.lint", "netlist.cleanup", "retime.graph",
        "retime.min_area", "retime.min_period", "retime.min_area_at_period",
        "retime.sequence", "core.gate", "sim.cex_replay"}) {
    const auto it = self.find(layer);
    const double ms = it == self.end() ? 0.0 : share(it->second.total_ms,
                                                     static_cast<double>(it->second.ops));
    out.push_back({std::string(layer) + "_ms", ms, "ms"});
  }
  const auto counter = [&](const std::string& name) {
    const auto it = state.counters.find(name);
    return it == state.counters.end() ? 0.0 : it->second;
  };
  const auto sample_median = [&](const std::string& name) {
    const auto it = state.samples.find(name);
    return it == state.samples.end() ? 0.0 : median(it->second);
  };
  out.push_back({"retime.moves", counter("retime.moves"), "count"});
  for (const char* engine : {"static", "explicit", "bdd", "sat"}) {
    out.push_back({std::string("core.decided_by.") + engine,
                   counter(std::string("core.decided_by.") + engine), "count"});
  }
  out.push_back({"core.static_hit_share",
                 share(counter("core.decided_by.static"), counter("core.decisions")),
                 "share"});
  for (const char* kind : {"steps", "wall", "nodes"}) {
    out.push_back({std::string("budget.exhausted_by.") + kind,
                   counter(std::string("budget.exhausted_by.") + kind), "count"});
  }
  for (const char* name : {"explicit.pairs", "bdd.peak_nodes", "bdd.gc_runs",
                           "bdd.reorder_runs", "sat.conflicts", "sat.depth_reached",
                           "sat.induction_depth"}) {
    out.push_back({name, counter(name), "count"});
  }
  out.push_back({"serve.queue_ms_p50", sample_median("serve.queue_ms"), "ms"});
  for (const char* type : {"lint", "simulate", "faultsim", "validate", "cls-equivalence"}) {
    out.push_back({std::string("serve.run_ms_p50.") + type,
                   sample_median(std::string("serve.run_ms.") + type), "ms"});
  }
  out.push_back({"serve.frame_overhead_ms_p50",
                 sample_median("serve.frame_overhead_ms"), "ms"});
  out.push_back({"serve.cache_hit_ratio",
                 share(counter("serve.cache_hits"), counter("serve.jobs")), "share"});
  out.push_back({"serve.jobs_failed", counter("serve.jobs_failed"), "count"});
  out.push_back({"serve.jobs_shed", counter("serve.jobs_shed"), "count"});
  out.push_back({"verdict.proven_share",
                 share(static_cast<double>(state.ledger.proven()),
                       static_cast<double>(state.ledger.governed())),
                 "share"});
  out.push_back({"verdict.failed_share",
                 share(static_cast<double>(state.ledger.failed()),
                       static_cast<double>(state.ledger.attempted())),
                 "share"});
  out.push_back({"trace.mirror_match", counter("trace.mirror_match"), "count"});
  out.push_back({"trace.mirror_mismatch", counter("trace.mirror_mismatch"), "count"});
  out.push_back({"trace.unaccounted_share", tracer.unaccounted_share("op"), "share"});
  // Both executions ran the same ops, so the ops/s ratio is the ratio of
  // summed op times.
  const auto sum = [](const std::vector<double>& v) {
    return std::accumulate(v.begin(), v.end(), 0.0);
  };
  out.push_back({"trace.overhead_share",
                 1.0 - share(sum(state.op_ms), sum(state.traced_op_ms)), "share"});
  return out;
}

int run(const Args& args, Clock::time_point process_start) {
  Tracer tracer(args.trace);
  WorkloadConfig config{args.workload, args.seed, args.seconds, &tracer,
                        args.scratch_dir};

  // This process's own set-up is the first of kSetups cold ones; the
  // others run after it, each in a process of its own, so that none of
  // them starts with warm allocator arenas or touched pages.
  const auto workload = make_workload(config);
  workload->setup();
  std::vector<double> setup_s{seconds_between(process_start, Clock::now())};
  if (args.setup_only) {
    workload->teardown();
    std::printf("%.9f\n", setup_s.front());
    return 0;
  }
  for (int r = 1; r < kSetups; ++r) setup_s.push_back(cold_setup_s(args));

  // The trace run executes every pass twice (untraced, then traced), so it
  // runs half the passes to keep the same length.
  const int passes = args.trace ? (workload->passes() + 1) / 2 : workload->passes();
  RunState state;
  std::size_t scheduled = 0;
  for (int p = 0; p < passes; ++p) {
    scheduled += workload->ops_in_pass(p);
    workload->run_pass(p, false, state);
    if (args.trace) workload->run_pass(p, true, state);
  }
  workload->teardown();

  const Ledger& ledger = state.ledger;
  const bool correct = ledger.unattributed() == 0 &&
                       state.traced_ledger.unattributed() == 0 &&
                       ledger.attempted() == scheduled;
  // All passes' ops over all their time: a slow stretch of a few seconds
  // then weighs by its length, where a median over passes would flip
  // between the host's fast and slow stretches.
  const double ops_per_s =
      static_cast<double>(scheduled) /
      std::accumulate(state.pass_seconds.begin(), state.pass_seconds.end(), 0.0);
  const double p50 = median(state.op_ms);
  const Tail tail = tail_percentile(state.op_ms);
  const double failed_share = share(static_cast<double>(ledger.failed()),
                                    static_cast<double>(ledger.attempted()));
  const double proven_share = share(static_cast<double>(ledger.proven()),
                                    static_cast<double>(ledger.governed()));

  std::printf("verdict_bench workload=%s seed=%llu seconds=%g trace=%d\n",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed),
              args.seconds, args.trace ? 1 : 0);
  std::printf("setup_s %.4f s (median of %d cold set-ups:", median(setup_s), kSetups);
  for (const double s : setup_s) std::printf(" %.4f", s);
  std::printf(")\n");
  std::printf("schedule %d passes, %zu ops\n", passes, scheduled);
  std::printf("ops_per_s %.3f 1/s (per pass:", ops_per_s);
  for (int p = 0; p < passes; ++p) {
    std::printf(" %.2f", static_cast<double>(workload->ops_in_pass(p)) /
                             state.pass_seconds[static_cast<std::size_t>(p)]);
  }
  std::printf(")\n");
  std::printf("verdict_ms_p50 %.3f ms (%zu samples)\n", p50, state.op_ms.size());
  std::printf("verdict_ms_tail %.3f ms = p%g (%zu samples, %zu beyond)\n", tail.value,
              tail.percentile, tail.samples, tail.beyond);
  std::printf("proven_share %.4f (%zu of %zu governed ops)\n", proven_share,
              ledger.proven(), ledger.governed());
  std::printf("failed_share %.4f (%zu of %zu ops; unattributed %zu)\n", failed_share,
              ledger.failed(), ledger.attempted(), ledger.unattributed());
  for (const FailKind kind : {FailKind::kThrew, FailKind::kErrorEnvelope,
                              FailKind::kGateRejected, FailKind::kCexNoReplay,
                              FailKind::kContradictsKnown}) {
    if (ledger.failed_by(kind) > 0) {
      std::printf("  failed %-24s %zu\n", to_string(kind), ledger.failed_by(kind));
    }
  }
  for (const Defect defect : {Defect::kMultiplierMinAreaRejected,
                              Defect::kSatUnsound, Defect::kNone}) {
    if (ledger.failed_by(defect) > 0) {
      std::printf("  defect %-28s %zu\n", to_string(defect), ledger.failed_by(defect));
    }
  }
  for (const std::string& example : ledger.examples()) {
    std::printf("  e.g. %s\n", example.c_str());
  }
  std::printf("verdict_ok_share %.4f\n", 1.0 - failed_share);
  std::printf("peak_rss_mb %.1f MB\n", peak_rss_mb());
  std::printf("fingerprint %016llx\n",
              static_cast<unsigned long long>(ledger.fingerprint()));

  std::vector<Metric> metrics;
  if (!args.trace) {
    metrics = {{"setup_s", median(setup_s), "s"},
               {"ops_per_s", ops_per_s, "1/s"},
               {"verdict_ms_p50", p50, "ms"},
               {"verdict_ms_tail", tail.value, "ms"},
               {"verdict_ok_share", 1.0 - failed_share, "share"},
               {"peak_rss_mb", peak_rss_mb(), "MB"}};
  } else {
    metrics = per_layer_metrics(state, tracer);
    for (const Metric& m : metrics) {
      std::printf("%-34s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
    }
    if (!args.trace_file.empty()) {
      std::ofstream out(args.trace_file);
      out << tracer.chrome_json();
      if (!out) throw std::runtime_error("cannot write " + args.trace_file);
      std::printf("trace %s (%zu spans)\n", args.trace_file.c_str(),
                  tracer.spans().size());
    }
  }
  std::printf("%s\n", render_result(correct, ledger, metrics).c_str());
  return 0;
}

}  // namespace
}  // namespace vb

int main(int argc, char** argv) {
  const auto process_start = vb::Clock::now();
  const vb::Args args = vb::parse_args(argc, argv);
  try {
    return vb::run(args, process_start);
  } catch (const std::exception& e) {
    std::cerr << "verdict_bench: " << e.what() << "\n";
    return 1;
  }
}
