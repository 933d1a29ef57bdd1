// rtv — command-line driver for the retiming-validity library.
//
//   rtv info <design>                      summary, stats, safety census
//   rtv convert <in> <out>                 .rnl/.blif/.dot conversion
//   rtv simulate <design> --inputs SEQ[,SEQ...] [--state BITS] [--cls]
//                [--packed] [--vcd F]
//   rtv retime <design> (--min-area|--min-period|--period N) [-o OUT]
//   rtv validate <design> (--min-area|--min-period)           full check
//   rtv lint <design> [--plan F] [--json] [--max-k N] [--strict]
//   rtv audit <design>                     per-move safety classification
//   rtv redundancy <design> [-o OUT]       CLS-redundancy removal
//   rtv faultsim <design> [--mode M] ...   batch fault simulation, JSON out
//   rtv serve [--socket PATH] ...          long-running verification service
//
// Design files are read by extension: .rnl (native) or .blif.

#include <cctype>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <limits>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/lint.hpp"
#include "bdd/equivalence.hpp"
#include "bdd/symbolic.hpp"
#include "core/cls_equiv.hpp"
#include "core/cls_reset.hpp"
#include "core/verify.hpp"
#include "core/flow.hpp"
#include "core/redundancy.hpp"
#include "core/safety.hpp"
#include "core/validator.hpp"
#include "fault/fault.hpp"
#include "serve/server.hpp"
#include "fault/fault_sim.hpp"
#include "io/blif.hpp"
#include "io/dot_export.hpp"
#include "io/json.hpp"
#include "io/rnl_format.hpp"
#include "io/vcd.hpp"
#include "retime/apply.hpp"
#include "retime/graph.hpp"
#include "retime/min_area.hpp"
#include "retime/min_period.hpp"
#include "retime/moves.hpp"
#include "sim/binary_sim.hpp"
#include "sim/cls_sim.hpp"
#include "util/budget.hpp"
#include "util/fault_inject.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace rtv::cli {
namespace {

// Exit codes (documented in usage() and docs/robustness.md). Every failure
// class gets its own code so scripts can tell a malformed netlist from a
// missing file from a blown budget without scraping stderr.
enum ExitCode : int {
  kExitOk = 0,              ///< success / property holds
  kExitVerdictFalse = 1,    ///< ran fine, the checked property does not hold
  kExitUsage = 2,           ///< bad command line
  kExitParse = 3,           ///< input file failed to parse (ParseError)
  kExitInvalidArgument = 4, ///< precondition violation (InvalidArgument)
  kExitCapacity = 5,        ///< capacity limit exceeded (CapacityError)
  kExitIo = 6,              ///< file missing/unreadable/unwritable (IoError)
  kExitExhausted = 7,       ///< budget blown under --on-exhaust=fail
  kExitInternal = 70,       ///< internal invariant failed (a bug)
};

[[noreturn]] void usage(const char* error = nullptr) {
  if (error != nullptr) std::fprintf(stderr, "error: %s\n\n", error);
  std::fprintf(stderr,
               "usage:\n"
               "  rtv info <design>\n"
               "  rtv convert <in> <out>           (.rnl | .blif | .dot)\n"
               "  rtv simulate <design> --inputs SEQ[,SEQ...] [--state BITS]"
               " [--cls] [--packed] [--vcd FILE]\n"
               "  rtv retime <design> (--min-area | --min-period | --period N)"
               " [-o OUT]\n"
               "  rtv validate <design> (--min-area | --min-period)\n"
               "  rtv lint <design> [--plan FILE] [--json] [--max-k N]"
               " [--strict] [--no-semantic]\n"
               "      structural diagnostics (RTV1xx), semantic ternary-\n"
               "      dataflow findings (RTV3xx, on by default; disable"
               " with\n"
               "      --no-semantic) and, with --plan, the Section-4 safety\n"
               "      verdict of a retiming-move plan (RTV2xx)\n"
               "  rtv audit <design>\n"
               "  rtv redundancy <design> [-o OUT]\n"
               "  rtv flow <design> [--min-area|--min-period|--period-then-area]"
               " [-o OUT]\n"
               "  rtv reset <design>                find a CLS reset sequence\n"
               "  rtv equiv <a> <b>                 symbolic C ⊑ D + min delay\n"
               "  rtv cls-equiv <a> <b> [--backend B] [--seed S] [--json]\n"
               "      CLS equivalence from all-X (Thm 5.1); exit 0 iff"
               " equivalent\n"
               "  rtv faultsim <design> [--mode exact|sampled|cls]"
               " [--threads N] [--no-drop]\n"
               "               [--inputs SEQ[,SEQ...] | --random N --cycles L"
               " --seed S]\n"
               "               [--sample-lanes N] [--all-faults]\n"
               "      batch stuck-at fault simulation; prints a JSON coverage"
               " summary\n"
               "      (default: cls mode, all hardware threads, collapsed"
               " faults,\n"
               "      64 random tests of 16 cycles)\n"
               "  rtv serve [--socket PATH] [--threads N] [--max-inflight N]\n"
               "            [--admission-queue N] [--default-deadline-ms N]\n"
               "            [--watchdog-grace N] [--write-timeout-ms N]\n"
               "            [--default-time-budget-ms N] [--cache-bytes N]\n"
               "      long-running verification service: newline-delimited"
               " JSON jobs\n"
               "      over a Unix socket (or stdin/stdout without --socket);\n"
               "      jobs beyond max-inflight wait in a bounded admission\n"
               "      queue (default 2x max-inflight) and are shed with an\n"
               "      'overloaded' envelope when it is full; a watchdog\n"
               "      cancels jobs at their deadline and quarantines ones\n"
               "      that ignore it; wire protocol reference in"
               " docs/serve.md\n"
               "\n"
               "equivalence backends (validate, flow, cls-equiv):\n"
               "  --backend B          explicit (default) | bdd | sat |"
               " portfolio | static\n"
               "                       (engine matrix in docs/backends.md;\n"
               "                       every backend tries the static\n"
               "                       ternary-fixpoint proof first; flow\n"
               "                       checks its own certificate before\n"
               "                       any backend and prints why when it\n"
               "                       refuses)\n"
               "\n"
               "BDD engine (validate, flow, cls-equiv with --backend bdd or"
               " portfolio):\n"
               "  --bdd-gc MODE        on | off (default): reclaim dead"
               " nodes\n"
               "                       under allocation pressure instead of\n"
               "                       exhausting on the node cap\n"
               "  --bdd-reorder MODE   off (default) | pressure: Rudell\n"
               "                       sifting of the variable order when"
               " the\n"
               "                       unique table crosses its trigger\n"
               "\n"
               "resource governance (validate, flow, cls-equiv, faultsim):\n"
               "  --time-budget-ms N   wall-clock budget (0 = unlimited)\n"
               "  --node-limit N       BDD node cap for the budget\n"
               "  --step-quota N       checkpoint quota (deterministic"
               " budget)\n"
               "  --on-exhaust MODE    degrade (default): return a partial,\n"
               "                       honestly-labeled report; fail: exit"
               " 7\n"
               "\n"
               "exit codes: 0 ok/property holds, 1 property fails, 2 usage,\n"
               "  3 parse error, 4 invalid argument, 5 capacity exceeded,\n"
               "  6 file I/O error, 7 budget exhausted (--on-exhaust=fail),\n"
               "  70 internal error\n");
  std::exit(kExitUsage);
}

/// Strict decimal parsing for numeric options: std::atoi would wrap
/// negatives through unsigned ("--threads -1" → ~4 billion worker threads)
/// and silently turn garbage into 0, so accept only plain digits in
/// [0, max] and reject everything else with a usage error.
std::uint64_t parse_number(const char* flag, const std::string& text,
                           std::uint64_t max) {
  errno = 0;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(text.c_str(), &end, 10);
  if (text.empty() || !std::isdigit(static_cast<unsigned char>(text[0])) ||
      *end != '\0' || errno == ERANGE || v > max) {
    usage((std::string(flag) + " needs an integer in [0, " +
           std::to_string(max) + "], got '" + text + "'")
              .c_str());
  }
  return v;
}

bool ends_with(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

Netlist load_design(const std::string& path) {
  if (ends_with(path, ".blif")) return load_blif(path).netlist;
  if (ends_with(path, ".rnl")) return load_rnl(path);
  usage("design files must end in .rnl or .blif");
}

void save_design(const Netlist& n, const std::string& path) {
  if (ends_with(path, ".blif")) {
    save_blif(n, path);
  } else if (ends_with(path, ".rnl")) {
    save_rnl(n, path);
  } else if (ends_with(path, ".dot")) {
    std::ofstream f(path);
    if (!f) throw Error("cannot open '" + path + "'");
    f << netlist_to_dot(n);
  } else {
    usage("output files must end in .rnl, .blif or .dot");
  }
  std::printf("wrote %s\n", path.c_str());
}

struct Args {
  std::vector<std::string> positional;
  std::optional<std::string> inputs, state, out, vcd, mode, plan, backend;
  std::optional<std::string> bdd_gc, bdd_reorder;
  std::optional<int> period;
  std::optional<unsigned> threads, random, cycles, sample_lanes;
  std::optional<std::uint64_t> seed;
  std::optional<std::size_t> max_k;
  // serve
  std::optional<std::string> socket;
  std::optional<unsigned> max_inflight, admission_queue, watchdog_grace;
  std::optional<std::uint64_t> default_time_budget_ms, default_deadline_ms;
  std::optional<std::uint64_t> write_timeout_ms;
  std::optional<std::size_t> cache_bytes;
  bool min_area = false, min_period = false, cls = false, packed = false;
  bool no_drop = false, all_faults = false, json = false, strict = false;
  bool semantic = true;  // lint: ternary dataflow passes (RTV3xx)
  // Resource governance (validate, flow, faultsim).
  std::optional<std::uint64_t> time_budget_ms, step_quota;
  std::optional<std::size_t> node_limit;
  bool fail_on_exhaust = false;  // --on-exhaust fail (default: degrade)
};

/// The limits a governed command should run under. Unset flags mean
/// "unlimited" except the node cap, which keeps its library default.
ResourceLimits limits_from_args(const Args& args) {
  ResourceLimits limits;
  limits.time_budget_ms = args.time_budget_ms.value_or(0);
  limits.step_quota = args.step_quota.value_or(0);
  if (args.node_limit) limits.bdd_node_limit = *args.node_limit;
  return limits;
}

/// --bdd-gc / --bdd-reorder into the BDD backend's engine options (defaults
/// preserve the legacy arena behavior: no collection, fixed order).
BddEquivOptions bdd_options_from_args(const Args& args) {
  BddEquivOptions bdd;
  if (args.bdd_gc) {
    if (*args.bdd_gc == "on") {
      bdd.gc = true;
    } else if (*args.bdd_gc != "off") {
      usage("--bdd-gc must be on or off");
    }
  }
  if (args.bdd_reorder) {
    if (*args.bdd_reorder == "pressure") {
      bdd.reorder.mode = ReorderMode::kOnPressure;
    } else if (*args.bdd_reorder != "off") {
      usage("--bdd-reorder must be off or pressure");
    }
  }
  return bdd;
}

/// --backend selection for the CLS-equivalence gate (default: explicit).
EquivalenceBackend backend_from_args(const Args& args) {
  if (!args.backend) return EquivalenceBackend::kExplicit;
  const auto backend = equivalence_backend_from_string(*args.backend);
  if (!backend) {
    usage("--backend must be explicit, bdd, sat, portfolio or static");
  }
  return *backend;
}

Args parse_args(int argc, char** argv, int first) {
  Args args;
  for (int i = first; i < argc; ++i) {
    std::string a = argv[i];
    // Accept both "--flag value" and "--flag=value".
    std::optional<std::string> inline_value;
    if (a.size() > 2 && a[0] == '-' && a[1] == '-') {
      const std::size_t eq = a.find('=');
      if (eq != std::string::npos) {
        inline_value = a.substr(eq + 1);
        a = a.substr(0, eq);
      }
    }
    const auto value = [&](const char* flag) -> std::string {
      if (inline_value) return *inline_value;
      if (i + 1 >= argc) usage((std::string(flag) + " needs a value").c_str());
      return argv[++i];
    };
    if (a == "--inputs") {
      args.inputs = value("--inputs");
    } else if (a == "--state") {
      args.state = value("--state");
    } else if (a == "-o" || a == "--out") {
      args.out = value("-o");
    } else if (a == "--vcd") {
      args.vcd = value("--vcd");
    } else if (a == "--period") {
      args.period = static_cast<int>(parse_number(
          "--period", value("--period"), std::numeric_limits<int>::max()));
    } else if (a == "--mode") {
      args.mode = value("--mode");
    } else if (a == "--plan") {
      args.plan = value("--plan");
    } else if (a == "--backend") {
      args.backend = value("--backend");
    } else if (a == "--bdd-gc") {
      args.bdd_gc = value("--bdd-gc");
    } else if (a == "--bdd-reorder") {
      args.bdd_reorder = value("--bdd-reorder");
    } else if (a == "--max-k") {
      args.max_k = static_cast<std::size_t>(parse_number(
          "--max-k", value("--max-k"), std::numeric_limits<std::size_t>::max()));
    } else if (a == "--json") {
      args.json = true;
    } else if (a == "--strict") {
      args.strict = true;
    } else if (a == "--semantic") {
      args.semantic = true;
    } else if (a == "--no-semantic") {
      args.semantic = false;
    } else if (a == "--threads") {
      // 0 means "all hardware threads"; cap explicit counts well past any
      // real machine but short of exhausting the OS thread limit.
      args.threads = static_cast<unsigned>(
          parse_number("--threads", value("--threads"), 1024));
    } else if (a == "--random") {
      args.random = static_cast<unsigned>(
          parse_number("--random", value("--random"),
                       std::numeric_limits<unsigned>::max()));
    } else if (a == "--cycles") {
      args.cycles = static_cast<unsigned>(
          parse_number("--cycles", value("--cycles"),
                       std::numeric_limits<unsigned>::max()));
    } else if (a == "--sample-lanes") {
      args.sample_lanes = static_cast<unsigned>(
          parse_number("--sample-lanes", value("--sample-lanes"),
                       std::numeric_limits<unsigned>::max()));
    } else if (a == "--seed") {
      args.seed = parse_number("--seed", value("--seed"),
                               std::numeric_limits<std::uint64_t>::max());
    } else if (a == "--no-drop") {
      args.no_drop = true;
    } else if (a == "--all-faults") {
      args.all_faults = true;
    } else if (a == "--min-area") {
      args.min_area = true;
    } else if (a == "--min-period") {
      args.min_period = true;
    } else if (a == "--cls") {
      args.cls = true;
    } else if (a == "--packed") {
      args.packed = true;
    } else if (a == "--socket") {
      args.socket = value("--socket");
    } else if (a == "--max-inflight") {
      args.max_inflight = static_cast<unsigned>(
          parse_number("--max-inflight", value("--max-inflight"), 4096));
    } else if (a == "--default-time-budget-ms") {
      args.default_time_budget_ms = parse_number(
          "--default-time-budget-ms", value("--default-time-budget-ms"),
          std::numeric_limits<std::uint64_t>::max());
    } else if (a == "--admission-queue") {
      args.admission_queue = static_cast<unsigned>(parse_number(
          "--admission-queue", value("--admission-queue"), 1u << 20));
    } else if (a == "--default-deadline-ms") {
      args.default_deadline_ms = parse_number(
          "--default-deadline-ms", value("--default-deadline-ms"),
          std::numeric_limits<std::uint64_t>::max());
    } else if (a == "--watchdog-grace") {
      args.watchdog_grace = static_cast<unsigned>(parse_number(
          "--watchdog-grace", value("--watchdog-grace"), 1u << 10));
      if (*args.watchdog_grace == 0) {
        usage("--watchdog-grace must be at least 1");
      }
    } else if (a == "--write-timeout-ms") {
      args.write_timeout_ms = parse_number(
          "--write-timeout-ms", value("--write-timeout-ms"),
          std::numeric_limits<std::uint64_t>::max());
    } else if (a == "--cache-bytes") {
      args.cache_bytes = static_cast<std::size_t>(
          parse_number("--cache-bytes", value("--cache-bytes"),
                       std::numeric_limits<std::size_t>::max()));
    } else if (a == "--time-budget-ms") {
      args.time_budget_ms =
          parse_number("--time-budget-ms", value("--time-budget-ms"),
                       std::numeric_limits<std::uint64_t>::max());
    } else if (a == "--node-limit") {
      args.node_limit = static_cast<std::size_t>(
          parse_number("--node-limit", value("--node-limit"),
                       std::numeric_limits<std::size_t>::max()));
    } else if (a == "--step-quota") {
      args.step_quota =
          parse_number("--step-quota", value("--step-quota"),
                       std::numeric_limits<std::uint64_t>::max());
    } else if (a == "--on-exhaust") {
      const std::string mode = value("--on-exhaust");
      if (mode == "fail") {
        args.fail_on_exhaust = true;
      } else if (mode == "degrade") {
        args.fail_on_exhaust = false;
      } else {
        usage("--on-exhaust must be degrade or fail");
      }
    } else if (!a.empty() && a[0] == '-') {
      usage(("unknown flag " + a).c_str());
    } else {
      args.positional.push_back(a);
    }
  }
  return args;
}

int cmd_info(const Args& args) {
  if (args.positional.size() != 1) usage("info needs one design");
  const Netlist n = load_design(args.positional[0]);
  std::printf("%s\n", n.summary().c_str());
  const RetimeGraph g = RetimeGraph::from_netlist(n);
  std::printf("%s\n", g.summary().c_str());
  std::printf("junction-normal: %s, all cells preserve all-X: %s\n",
              n.is_junction_normal() ? "yes" : "no",
              n.all_cells_preserve_all_x() ? "yes" : "no");
  const auto moves = enabled_moves(n);
  std::size_t unsafe = 0;
  for (const auto& m : moves) {
    if (!classify_move(n, m).preserves_safe_replacement()) ++unsafe;
  }
  std::printf("enabled atomic moves: %zu (%zu unsafe without delay)\n",
              moves.size(), unsafe);
  return 0;
}

int cmd_convert(const Args& args) {
  if (args.positional.size() != 2) usage("convert needs <in> <out>");
  save_design(load_design(args.positional[0]), args.positional[1]);
  return 0;
}

/// Splits a comma-separated list of input sequences ("01.10,11.00").
std::vector<std::string> split_sequences(const std::string& s) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (start <= s.size()) {
    const std::size_t comma = s.find(',', start);
    if (comma == std::string::npos) {
      out.push_back(s.substr(start));
      break;
    }
    out.push_back(s.substr(start, comma - start));
    start = comma + 1;
  }
  return out;
}

/// --packed: batch simulation through the packed ternary engine, one lane
/// per comma-separated input sequence (64 sequences per machine word).
int cmd_simulate_packed(const Netlist& n, const Args& args) {
  const std::vector<std::string> parts = split_sequences(*args.inputs);
  if (args.cls) {
    std::vector<TritsSeq> tests;
    for (const std::string& p : parts) {
      tests.push_back(trits_seq_from_string(p));
    }
    const std::vector<TritsSeq> responses = ClsSimulator::run_batch(n, tests);
    for (std::size_t i = 0; i < tests.size(); ++i) {
      std::printf("%s -> %s\n", sequence_to_string(tests[i]).c_str(),
                  sequence_to_string(responses[i]).c_str());
    }
  } else {
    std::vector<BitsSeq> tests;
    for (const std::string& p : parts) {
      tests.push_back(bits_seq_from_string(p));
    }
    Bits state(n.latches().size(), 0);
    if (args.state) state = bits_from_string(*args.state);
    const std::vector<BitsSeq> responses =
        BinarySimulator::run_batch(n, state, tests);
    for (std::size_t i = 0; i < tests.size(); ++i) {
      std::printf("%s -> %s\n", sequence_to_string(tests[i]).c_str(),
                  sequence_to_string(responses[i]).c_str());
    }
  }
  return 0;
}

int cmd_simulate(const Args& args) {
  if (args.positional.size() != 1 || !args.inputs) {
    usage("simulate needs one design and --inputs");
  }
  const Netlist n = load_design(args.positional[0]);
  if (args.packed) return cmd_simulate_packed(n, args);
  if (args.cls) {
    const TritsSeq inputs = trits_seq_from_string(*args.inputs);
    ClsSimulator sim(n);
    for (const Trits& in : inputs) {
      std::printf("%s -> %s\n", to_string(in).c_str(),
                  to_string(sim.step(in)).c_str());
    }
    if (args.vcd) {
      save_vcd(cls_simulate_to_vcd(n, inputs), *args.vcd);
      std::printf("wrote %s\n", args.vcd->c_str());
    }
  } else {
    const BitsSeq inputs = bits_seq_from_string(*args.inputs);
    Bits state(n.latches().size(), 0);
    if (args.state) state = bits_from_string(*args.state);
    BinarySimulator sim(n);
    sim.set_state(state);
    for (const Bits& in : inputs) {
      std::printf("%s -> %s\n", to_string(in).c_str(),
                  to_string(sim.step(in)).c_str());
    }
    if (args.vcd) {
      save_vcd(simulate_to_vcd(n, state, inputs), *args.vcd);
      std::printf("wrote %s\n", args.vcd->c_str());
    }
  }
  return 0;
}

std::vector<int> solve_lags(const RetimeGraph& g, const Args& args) {
  if (args.min_area) return min_area_retime(g).lag;
  if (args.min_period) return min_period_retime_feas(g).lag;
  if (args.period) {
    const auto r = min_area_retime_with_period(g, *args.period);
    if (!r) throw Error("period " + std::to_string(*args.period) +
                        " is infeasible");
    return r->lag;
  }
  usage("pick --min-area, --min-period or --period N");
}

int cmd_retime(const Args& args) {
  if (args.positional.size() != 1) usage("retime needs one design");
  const Netlist n = load_design(args.positional[0]);
  const RetimeGraph g = RetimeGraph::from_netlist(n);
  const std::vector<int> lag = solve_lags(g, args);
  SequencedRetiming seq;
  const SafetyReport safety = analyze_lag_retiming(n, g, lag, &seq);
  std::printf("before: %s\n", g.summary().c_str());
  std::printf("after:  period %d, %zu registers\n", g.clock_period(lag),
              seq.retimed.num_latches());
  std::printf("safety: %s\n", safety.summary().c_str());
  if (args.out) save_design(seq.retimed.compacted(), *args.out);
  return 0;
}

/// --on-exhaust=fail: a blown budget is an error, not a degraded report.
[[noreturn]] void exhausted_failure(const ResourceUsage& usage) {
  std::fprintf(stderr, "error: resource budget exhausted (%s)\n",
               usage.summary().c_str());
  std::exit(kExitExhausted);
}

int cmd_validate(const Args& args) {
  if (args.positional.size() != 1) usage("validate needs one design");
  const Netlist n = load_design(args.positional[0]);
  const RetimeGraph g = RetimeGraph::from_netlist(n);
  ValidationOptions opt;
  opt.verify.backend = backend_from_args(args);
  opt.verify.bdd = bdd_options_from_args(args);
  opt.budget = limits_from_args(args);
  const RetimingValidation v =
      validate_retiming(n, g, solve_lags(g, args), opt);
  std::printf("%s", v.summary().c_str());
  if (v.verdict == Verdict::kExhausted) {
    if (args.fail_on_exhaust) exhausted_failure(v.usage);
    return kExitVerdictFalse;  // a partial report is never a pass
  }
  return v.theorems_hold && v.cls.equivalent ? kExitOk : kExitVerdictFalse;
}

/// Structured static analysis: structural diagnostics, the semantic
/// ternary-dataflow passes (RTV3xx, on by default) plus, with --plan, the
/// Section-4 verdict of a retiming-move plan. Exit 0 when clean, 1 on
/// errors (or on warnings too with --strict). .rnl designs are loaded
/// without the loader's own validation so every defect is reported, not
/// just the first one check_valid would throw on.
int cmd_lint(const Args& args) {
  if (args.positional.size() != 1) usage("lint needs one design");
  const std::string& path = args.positional[0];
  const Netlist n = ends_with(path, ".rnl") ? load_rnl(path, false)
                                            : load_design(path);
  LintOptions opt;
  opt.max_k = args.max_k;
  opt.semantic = args.semantic;
  LintResult result;
  if (args.plan) {
    result = run_lint(n, load_plan(*args.plan, n).moves, opt);
  } else {
    result = run_lint(n, opt);
  }
  std::fputs((args.json ? render_json(result) : render_text(result)).c_str(),
             stdout);
  if (result.has_errors()) return 1;
  return args.strict && result.diagnostics.num_warnings() > 0 ? 1 : 0;
}

int cmd_audit(const Args& args) {
  if (args.positional.size() != 1) usage("audit needs one design");
  const Netlist n = load_design(args.positional[0]);
  for (const RetimingMove& move : enabled_moves(n)) {
    const MoveClass cls = classify_move(n, move);
    std::printf("%-20s %-8s %-10s %s\n", n.name(move.element).c_str(),
                cell_kind_name(n.kind(move.element)),
                to_string(move.direction),
                cls.preserves_safe_replacement() ? "safe (Cor 4.4)"
                                                 : "needs delay (Thm 4.5)");
  }
  return 0;
}

int cmd_redundancy(const Args& args) {
  if (args.positional.size() != 1) usage("redundancy needs one design");
  const Netlist n = load_design(args.positional[0]);
  const RedundancyRemovalResult r = remove_cls_redundancies(n);
  std::printf("tied %zu net(s), swept %zu node(s); gates %zu -> %zu\n",
              r.faults_tied, r.nodes_swept, r.gates_before, r.gates_after);
  if (args.out) save_design(r.optimized, *args.out);
  return 0;
}

int cmd_flow(const Args& args) {
  if (args.positional.size() != 1) usage("flow needs one design");
  const Netlist n = load_design(args.positional[0]);
  FlowOptions opt;
  if (args.min_period) opt.objective = FlowOptions::Objective::kMinPeriod;
  if (args.period) opt.objective = FlowOptions::Objective::kMinAreaAtMinPeriod;
  opt.verify.backend = backend_from_args(args);
  opt.verify.bdd = bdd_options_from_args(args);
  opt.budget = limits_from_args(args);
  const FlowReport r = run_synthesis_flow(n, opt);
  std::printf("%s\n", r.summary().c_str());
  if (r.verdict == Verdict::kExhausted && args.fail_on_exhaust) {
    exhausted_failure(r.usage);
  }
  if (args.out && r.accepted()) save_design(r.optimized, *args.out);
  return r.accepted() ? kExitOk : kExitVerdictFalse;
}

int cmd_reset(const Args& args) {
  if (args.positional.size() != 1) usage("reset needs one design");
  const Netlist n = load_design(args.positional[0]);
  const auto seq = find_cls_reset_sequence(n);
  if (!seq) {
    std::printf("no CLS reset sequence within the search bounds — a\n"
                "conservative three-valued simulator never sees this design\n"
                "initialized (Section 5's X-pessimism in the flesh)\n");
    return 1;
  }
  std::printf("CLS reset sequence of length %zu: %s\n", seq->size(),
              sequence_to_string(*seq).c_str());
  return 0;
}

/// Batch stuck-at fault simulation through the multi-threaded engine; the
/// summary goes to stdout as JSON so coverage runs are scriptable.
int cmd_faultsim(const Args& args) {
  if (args.positional.size() != 1) usage("faultsim needs one design");
  const Netlist n = load_design(args.positional[0]);

  FaultSimOptions opt;
  opt.mode = FaultSimMode::kCls;
  if (args.mode) {
    const auto mode = fault_sim_mode_from_string(*args.mode);
    if (!mode) usage("--mode must be exact, sampled or cls");
    opt.mode = *mode;
  }
  opt.threads = args.threads.value_or(0);  // default: all hardware threads
  opt.drop_detected = !args.no_drop;
  if (args.sample_lanes) opt.sample_lanes = *args.sample_lanes;
  if (args.seed) opt.sample_seed = *args.seed;
  opt.budget = limits_from_args(args);

  std::vector<BitsSeq> tests;
  if (args.inputs) {
    for (const std::string& part : split_sequences(*args.inputs)) {
      tests.push_back(bits_seq_from_string(part));
    }
  } else {
    const unsigned count = args.random.value_or(64);
    const unsigned cycles = args.cycles.value_or(16);
    const std::size_t width = n.primary_inputs().size();
    Rng rng(args.seed.value_or(1));
    tests.resize(count);
    for (BitsSeq& seq : tests) {
      for (unsigned t = 0; t < cycles; ++t) {
        Bits in(width);
        for (auto& v : in) v = rng.coin();
        seq.push_back(std::move(in));
      }
    }
  }

  const std::vector<Fault> faults =
      args.all_faults ? enumerate_faults(n) : collapse_faults(n);
  const FaultSimResult r = fault_simulate(n, faults, tests, opt);

  std::printf("{\n");
  std::printf("  \"design\": \"%s\",\n", args.positional[0].c_str());
  std::printf("  \"mode\": \"%s\",\n", to_string(opt.mode));
  std::printf("  \"threads\": %u,\n", ThreadPool::resolve_threads(opt.threads));
  std::printf("  \"drop_detected\": %s,\n",
              opt.drop_detected ? "true" : "false");
  std::printf("  \"faults\": %zu,\n", faults.size());
  std::printf("  \"tests\": %zu,\n", tests.size());
  std::printf("  \"detected\": %zu,\n", r.num_detected);
  std::printf("  \"coverage\": %.6g,\n", r.coverage);
  std::printf("  \"faults_dropped\": %zu,\n", r.faults_dropped);
  std::printf("  \"tests_run\": %zu,\n", r.tests_run);
  std::printf("  \"wall_seconds\": %.6g,\n", r.wall_seconds);
  std::printf("  \"complete\": %s,\n", r.complete ? "true" : "false");
  std::printf("  \"faults_skipped\": %zu,\n", r.faults_skipped);
  std::printf("  \"budget_exhausted\": %s,\n",
              r.usage.exhausted ? "true" : "false");
  std::printf("  \"budget_blown\": \"%s\",\n",
              r.usage.blown ? to_string(*r.usage.blown) : "none");
  std::printf("  \"usage_wall_ms\": %.6g,\n", r.usage.wall_ms);
  std::printf("  \"usage_steps\": %llu\n",
              static_cast<unsigned long long>(r.usage.steps));
  std::printf("}\n");
  if (!r.complete && args.fail_on_exhaust) exhausted_failure(r.usage);
  return kExitOk;
}

int cmd_serve(const Args& args) {
  if (!args.positional.empty()) {
    usage("serve takes no positional arguments (designs arrive as jobs)");
  }
  serve::ServeOptions opt;
  opt.threads = args.threads.value_or(0);
  opt.max_inflight = args.max_inflight.value_or(0);
  opt.admission_queue = args.admission_queue.value_or(0);
  opt.default_time_budget_ms = args.default_time_budget_ms.value_or(0);
  opt.default_deadline_ms = args.default_deadline_ms.value_or(0);
  if (args.watchdog_grace) opt.watchdog_grace = *args.watchdog_grace;
  if (args.write_timeout_ms) opt.write_timeout_ms = *args.write_timeout_ms;
  if (args.cache_bytes) opt.cache_bytes = *args.cache_bytes;
  serve::Server server(opt);
  if (args.socket) {
    std::fprintf(stderr, "rtv serve: listening on %s\n", args.socket->c_str());
    server.serve_socket(*args.socket);
  } else {
    // No socket: NDJSON over stdin/stdout, one response line per request
    // line. Exits on EOF or a shutdown request, after draining.
    server.serve_stream(std::cin, std::cout);
  }
  const serve::ServeStats s = server.stats();
  std::fprintf(stderr,
               "rtv serve: drained; %llu jobs accepted, %llu ok, %llu "
               "errors, %llu rejected (%llu shed), %llu watchdog kills "
               "(%llu wedged), cache %llu hits / %llu misses\n",
               static_cast<unsigned long long>(s.jobs_accepted),
               static_cast<unsigned long long>(s.jobs_done),
               static_cast<unsigned long long>(s.jobs_failed),
               static_cast<unsigned long long>(s.jobs_rejected),
               static_cast<unsigned long long>(s.jobs_shed),
               static_cast<unsigned long long>(s.watchdog_kills),
               static_cast<unsigned long long>(s.watchdog_wedged),
               static_cast<unsigned long long>(s.cache.hits),
               static_cast<unsigned long long>(s.cache.misses));
  return kExitOk;
}

/// CLS equivalence of two concrete designs (Thm 5.1) through any backend.
/// Exit 0 when equivalent, 1 when distinguishable or undecided.
int cmd_cls_equiv(const Args& args) {
  if (args.positional.size() != 2) usage("cls-equiv needs two designs");
  const Netlist a = load_design(args.positional[0]);
  const Netlist b = load_design(args.positional[1]);
  VerifyOptions opt;
  opt.backend = backend_from_args(args);
  opt.bdd = bdd_options_from_args(args);
  if (args.seed) opt.explicit_opts.seed = *args.seed;
  ResourceBudget budget(limits_from_args(args));
  const ClsEquivalenceResult r = verify_cls_equivalence(a, b, opt, &budget);
  if (args.json) {
    const ResourceUsage& u = r.usage;
    std::ostringstream os;
    os << "{\n"
       << "  \"equivalent\": " << (r.equivalent ? "true" : "false") << ",\n"
       << "  \"verdict\": \"" << to_string(r.verdict) << "\",\n"
       << "  \"exhaustive\": " << (r.exhaustive ? "true" : "false") << ",\n"
       << "  \"decided_by\": \"" << to_string(r.decided_by) << "\",\n"
       << "  \"decided_reason\": \"" << json_escape(r.decided_reason)
       << "\",\n"
       << "  \"counterexample_cycles\": "
       << (r.counterexample ? static_cast<long long>(r.counterexample->size())
                            : -1)
       << ",\n"
       << "  \"usage\": {\"wall_ms\": " << r.usage.wall_ms
       << ", \"steps\": " << u.steps
       << ", \"peak_bdd_nodes\": " << u.peak_bdd_nodes
       << ", \"state_pairs\": " << u.state_pairs
       << ", \"bdd_gc_runs\": " << u.bdd_gc_runs
       << ", \"bdd_nodes_reclaimed\": " << u.bdd_nodes_reclaimed
       << ", \"bdd_reorder_runs\": " << u.bdd_reorder_runs
       << ", \"peak_live_bdd_nodes\": " << u.peak_live_bdd_nodes
       << ", \"exhausted\": " << (u.exhausted ? "true" : "false") << "}\n"
       << "}\n";
    std::fputs(os.str().c_str(), stdout);
  } else {
    std::printf("%s\n", r.summary().c_str());
    std::printf("decided by: %s (%s)\n", to_string(r.decided_by),
                r.decided_reason.c_str());
  }
  if (r.verdict == Verdict::kExhausted) {
    if (args.fail_on_exhaust) exhausted_failure(r.usage);
    return kExitVerdictFalse;  // undecided is never a pass
  }
  return r.equivalent ? kExitOk : kExitVerdictFalse;
}

int cmd_equiv(const Args& args) {
  if (args.positional.size() != 2) usage("equiv needs two designs");
  const Netlist c = load_design(args.positional[0]);
  const Netlist d = load_design(args.positional[1]);
  SymbolicImplication sym(c, d);
  const bool holds = sym.implies();
  std::printf("%s ⊑ %s: %s\n", args.positional[0].c_str(),
              args.positional[1].c_str(), holds ? "holds" : "fails");
  if (!holds) {
    const int n = sym.min_delay_for_implication(32);
    if (n >= 0) {
      std::printf("least n with C^n ⊑ D: %d (safe after %d settle cycles)\n",
                  n, n);
    } else {
      std::printf("no delay makes C^n ⊑ D hold (not a retiming pair?)\n");
    }
  }
  return holds ? 0 : 1;
}

int run(int argc, char** argv) {
  if (argc < 2) usage();
  const std::string cmd = argv[1];
  const Args args = parse_args(argc, argv, 2);
  if (cmd == "info") return cmd_info(args);
  if (cmd == "convert") return cmd_convert(args);
  if (cmd == "simulate") return cmd_simulate(args);
  if (cmd == "retime") return cmd_retime(args);
  if (cmd == "validate") return cmd_validate(args);
  if (cmd == "lint") return cmd_lint(args);
  if (cmd == "audit") return cmd_audit(args);
  if (cmd == "redundancy") return cmd_redundancy(args);
  if (cmd == "flow") return cmd_flow(args);
  if (cmd == "reset") return cmd_reset(args);
  if (cmd == "cls-equiv") return cmd_cls_equiv(args);
  if (cmd == "equiv") return cmd_equiv(args);
  if (cmd == "faultsim") return cmd_faultsim(args);
  if (cmd == "serve") return cmd_serve(args);
  usage(("unknown command '" + cmd + "'").c_str());
}

}  // namespace
}  // namespace rtv::cli

int main(int argc, char** argv) {
  // Opt-in fault-injection harness: RTV_FAULT_INJECT=N trips budget
  // exhaustion at the N-th checkpoint (see util/fault_inject.hpp). A no-op
  // unless the variable is set.
  rtv::fault_inject::arm_from_env();
  // Most-derived classes first — every subclass gets its documented exit
  // code, the Error base is the catch-all.
  try {
    return rtv::cli::run(argc, argv);
  } catch (const rtv::InternalError& e) {
    std::fprintf(stderr, "internal error: %s\n", e.what());
    return rtv::cli::kExitInternal;
  } catch (const rtv::ParseError& e) {
    std::fprintf(stderr, "parse error: %s\n", e.what());
    return rtv::cli::kExitParse;
  } catch (const rtv::CapacityError& e) {
    std::fprintf(stderr, "capacity error: %s\n", e.what());
    return rtv::cli::kExitCapacity;
  } catch (const rtv::IoError& e) {
    std::fprintf(stderr, "io error: %s\n", e.what());
    return rtv::cli::kExitIo;
  } catch (const rtv::InvalidArgument& e) {
    std::fprintf(stderr, "invalid argument: %s\n", e.what());
    return rtv::cli::kExitInvalidArgument;
  } catch (const rtv::Error& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return rtv::cli::kExitVerdictFalse;
  }
}
