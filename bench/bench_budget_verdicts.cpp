// Robustness — time-to-first-verdict under resource governance: every
// budgeted entry point (CLS equivalence, STG extraction, symbolic
// reachability, fault simulation, validate, flow) measured without a budget
// and again under a 100 ms wall-clock deadline.
//
// The report asserts the governance contract before writing anything:
// budgeted runs must return within 2x the deadline (cooperative
// checkpoints are frequent enough that overshoot is bounded by one unit of
// work), and a run whose budget blew must never label its verdict
// "proven". The machine-readable BENCH_robustness.json (path overridable
// via RTV_BENCH_JSON) records both timings and verdicts per entry point;
// the binary re-reads and schema-checks the file, exiting non-zero on any
// violation so the contract cannot silently bit-rot. RTV_BENCH_SMOKE=1
// shrinks the workloads so CI can run the report in seconds.

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "bdd/symbolic.hpp"
#include "core/cls_equiv.hpp"
#include "core/flow.hpp"
#include "core/validator.hpp"
#include "fault/fault.hpp"
#include "fault/fault_sim.hpp"
#include "gen/datapath.hpp"
#include "gen/random_circuits.hpp"
#include "retime/graph.hpp"
#include "sim/vectors.hpp"
#include "stg/stg.hpp"
#include "util/budget.hpp"
#include "util/rng.hpp"

namespace rtv {
namespace {

constexpr std::uint64_t kDeadlineMs = 100;

bool smoke_mode() {
  const char* v = std::getenv("RTV_BENCH_SMOKE");
  return v != nullptr && v[0] != '\0' && v[0] != '0';
}

struct Row {
  std::string entry_point;
  double full_ms = 0.0;          ///< unbudgeted time to verdict
  std::string full_verdict;
  double budgeted_ms = 0.0;      ///< with the 100 ms deadline
  std::string budgeted_verdict;
  bool budget_blew = false;      ///< the deadline actually bit
  bool within_2x = false;        ///< budgeted_ms <= 2 * deadline
  bool honest = false;           ///< blew -> verdict is not "proven"
};

double ms_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

ResourceLimits deadline_limits() {
  ResourceLimits limits;
  limits.time_budget_ms = kDeadlineMs;
  return limits;
}

/// Runs `body` twice — ungoverned, then under the deadline — and fills the
/// contract fields. `body` returns (verdict label, budget blew).
template <typename Body>
Row measure(const std::string& name, Body&& body) {
  Row row;
  row.entry_point = name;

  const auto t0 = std::chrono::steady_clock::now();
  const auto full = body(nullptr);
  row.full_ms = ms_since(t0);
  row.full_verdict = full.first;

  ResourceBudget budget(deadline_limits());
  const auto t1 = std::chrono::steady_clock::now();
  const auto bounded = body(&budget);
  row.budgeted_ms = ms_since(t1);
  row.budgeted_verdict = bounded.first;
  row.budget_blew = bounded.second;
  row.within_2x = row.budgeted_ms <= 2.0 * static_cast<double>(kDeadlineMs);
  row.honest = !(row.budget_blew && row.budgeted_verdict == "proven");
  return row;
}

using VerdictLabel = std::pair<std::string, bool>;

/// Besides `latches`, the generator puts a latch after each gate with
/// probability `latch_after_gate`.
Netlist random_workload(unsigned gates, unsigned latches, unsigned inputs,
                        std::uint64_t seed, double latch_after_gate = 0.05) {
  Rng rng(seed);
  RandomCircuitOptions opt;
  opt.num_inputs = inputs;
  opt.num_outputs = 8;
  opt.num_gates = gates;
  opt.num_latches = latches;
  opt.latch_after_gate_probability = latch_after_gate;
  return random_netlist(opt, rng);
}

std::vector<Row> run_report(bool smoke) {
  std::vector<Row> rows;

  // CLS equivalence, exhaustive regime: the bench_thm51_cls shape (few
  // inputs, gates/4 latches) keeps 3^I under max_branching, so the pair
  // BFS runs and the deadline bites at its per-pair checkpoints.
  {
    const unsigned gates = smoke ? 24 : 96;
    const Netlist n = random_workload(gates, gates / 4, 4, 0xB1);
    rows.push_back(measure("cls_exhaustive", [&](ResourceBudget* b) {
      const ClsEquivalenceResult r = check_cls_equivalence(n, n, {}, b);
      return VerdictLabel{to_string(r.verdict),
                          r.verdict == Verdict::kExhausted};
    }));
  }

  // CLS equivalence, bounded regime: many inputs force bounded random
  // checking, whose per-cycle checkpoints carry the deadline instead.
  {
    const Netlist n =
        random_workload(smoke ? 256 : 4096, smoke ? 8 : 24, 12, 0xB1);
    ClsEquivOptions opt;
    opt.random_sequences = smoke ? 32 : 2000;
    opt.random_length = smoke ? 8 : 64;
    rows.push_back(measure("cls_bounded", [&](ResourceBudget* b) {
      const ClsEquivalenceResult r = check_cls_equivalence(n, n, opt, b);
      return VerdictLabel{to_string(r.verdict), r.verdict == Verdict::kExhausted};
    }));
  }

  // STG extraction: per-state-row checkpoints; cannot return a partial
  // machine, so exhaustion surfaces as ResourceExhausted.
  {
    // The full-size design must fit the extractor: at most 32 latches and
    // 64 outputs, the width of its packed output words. The generator caps
    // every dangling port with an output, so 128 gates (56 outputs), and
    // no per-gate latches, so exactly 13: 2^(13 + 4) rows, well within
    // kDefaultStgEntryCap.
    const Netlist n = random_workload(smoke ? 96 : 128, smoke ? 6 : 13,
                                      smoke ? 2 : 4, 0xB2,
                                      smoke ? 0.05 : 0.0);
    rows.push_back(measure("stg_extract", [&](ResourceBudget* b) {
      try {
        const Stg stg = Stg::extract(n, kDefaultStgEntryCap, b);
        (void)stg.num_states();
        return VerdictLabel{"proven", false};
      } catch (const ResourceExhausted&) {
        return VerdictLabel{"exhausted", true};
      }
    }));
  }

  // Symbolic reachability: checkpoints per image iteration and per BDD
  // node-allocation probe.
  {
    // Full size: the ungoverned run must finish within the default BDD
    // node limit (1024 gates and 48 latches exceeded it); this one proves
    // in about 2 s.
    const Netlist n = random_workload(smoke ? 128 : 384, smoke ? 12 : 16,
                                      8, 0xB3);
    const Bits zero(n.latches().size(), 0);
    rows.push_back(measure("symbolic_reach", [&](ResourceBudget* b) {
      try {
        SymbolicMachine machine(n, kDefaultBddNodeLimit, b);
        machine.reachable(machine.state_cube(zero));
        return VerdictLabel{"proven", false};
      } catch (const ResourceExhausted&) {
        return VerdictLabel{"exhausted", true};
      }
    }));
  }

  // Fault simulation: per-fault and per-test checkpoints in the workers;
  // exhaustion leaves the remaining faults undecided.
  {
    const Netlist n = random_workload(smoke ? 256 : 4096, 8, 12, 0xB4);
    const std::vector<Fault> faults = collapse_faults(n);
    Rng rng(0xB4);
    std::vector<BitsSeq> tests(smoke ? 32 : 512);
    for (BitsSeq& t : tests) {
      for (unsigned c = 0; c < (smoke ? 4u : 16u); ++c) {
        Bits in(n.primary_inputs().size());
        for (auto& v : in) v = rng.coin();
        t.push_back(std::move(in));
      }
    }
    rows.push_back(measure("fault_sim", [&](ResourceBudget* b) {
      FaultSimOptions opt;
      opt.mode = FaultSimMode::kCls;
      opt.threads = 1;
      if (b != nullptr) opt.budget = b->limits();
      const FaultSimResult r = fault_simulate(n, faults, tests, opt);
      return VerdictLabel{r.complete ? "bounded" : "exhausted", !r.complete};
    }));
  }

  // validate: the full pipeline behind `rtv validate` (CLS + the STG phase
  // whenever the design fits the exact-analysis caps).
  {
    const Netlist n = controller_datapath(smoke ? 8 : 48);
    const RetimeGraph g = RetimeGraph::from_netlist(n);
    const std::vector<int> lag(g.num_vertices(), 0);
    VerifyOptions vopt;
    // Bounded mode outright: the exhaustive pair BFS takes minutes on the
    // datapath, and bounded checking is the realistic regime this report
    // is about (the budget behavior is identical).
    vopt.explicit_opts.max_branching = 1;
    vopt.explicit_opts.random_sequences = smoke ? 16 : 500;
    vopt.explicit_opts.random_length = smoke ? 8 : 64;
    rows.push_back(measure("validate", [&](ResourceBudget* b) {
      ValidationOptions opt;
      opt.verify = vopt;
      if (b != nullptr) opt.budget = b->limits();
      const RetimingValidation v = validate_retiming(n, g, lag, opt);
      return VerdictLabel{to_string(v.verdict),
                          v.verdict == Verdict::kExhausted};
    }));
  }

  // flow: cleanup + retiming + CLS gate behind `rtv flow`.
  {
    const Netlist n = controller_datapath(smoke ? 8 : 48);
    VerifyOptions vopt;
    vopt.explicit_opts.max_branching = 1;  // bounded mode, as above
    vopt.explicit_opts.random_sequences = smoke ? 16 : 500;
    vopt.explicit_opts.random_length = smoke ? 8 : 64;
    rows.push_back(measure("flow", [&](ResourceBudget* b) {
      FlowOptions opt;
      opt.verify = vopt;
      if (b != nullptr) opt.budget = b->limits();
      const FlowReport r = run_synthesis_flow(n, opt);
      return VerdictLabel{to_string(r.verdict),
                          r.verdict == Verdict::kExhausted};
    }));
  }

  return rows;
}

std::string bench_json_path() {
  const char* v = std::getenv("RTV_BENCH_JSON");
  return (v != nullptr && v[0] != '\0') ? v : "BENCH_robustness.json";
}

std::string render_bench_json(const std::vector<Row>& rows) {
  std::ostringstream os;
  os.precision(6);
  os << "{\n";
  os << "  \"benchmark\": \"budget_verdicts\",\n";
  os << "  \"schema_version\": 1,\n";
  os << "  \"smoke\": " << (smoke_mode() ? "true" : "false") << ",\n";
  os << "  \"deadline_ms\": " << kDeadlineMs << ",\n";
  os << "  \"entry_points\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    os << "    {\n";
    os << "      \"name\": \"" << r.entry_point << "\",\n";
    os << "      \"full_ms\": " << r.full_ms << ",\n";
    os << "      \"full_verdict\": \"" << r.full_verdict << "\",\n";
    os << "      \"budgeted_ms\": " << r.budgeted_ms << ",\n";
    os << "      \"budgeted_verdict\": \"" << r.budgeted_verdict << "\",\n";
    os << "      \"budget_blew\": " << (r.budget_blew ? "true" : "false")
       << ",\n";
    os << "      \"within_2x_deadline\": " << (r.within_2x ? "true" : "false")
       << ",\n";
    os << "      \"honest_degradation\": " << (r.honest ? "true" : "false")
       << "\n";
    os << "    }" << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  os << "  ]\n";
  os << "}\n";
  return os.str();
}

/// Minimal schema check (no JSON library in the image): required keys,
/// balanced nesting, at least one entry point, and the two contract flags
/// true in every row.
std::string validate_bench_json(const std::string& text) {
  for (const char* key :
       {"\"benchmark\"", "\"schema_version\"", "\"smoke\"", "\"deadline_ms\"",
        "\"entry_points\"", "\"name\"", "\"full_ms\"", "\"full_verdict\"",
        "\"budgeted_ms\"", "\"budgeted_verdict\"", "\"budget_blew\"",
        "\"within_2x_deadline\"", "\"honest_degradation\""}) {
    if (text.find(key) == std::string::npos) {
      return std::string("missing key ") + key;
    }
  }
  long depth_brace = 0, depth_bracket = 0;
  for (char c : text) {
    if (c == '{') ++depth_brace;
    if (c == '}') --depth_brace;
    if (c == '[') ++depth_bracket;
    if (c == ']') --depth_bracket;
    if (depth_brace < 0 || depth_bracket < 0) return "unbalanced nesting";
  }
  if (depth_brace != 0 || depth_bracket != 0) return "unbalanced nesting";
  std::size_t pos = 0;
  unsigned entries = 0;
  while ((pos = text.find("\"within_2x_deadline\":", pos)) !=
         std::string::npos) {
    pos += 21;
    if (text.compare(pos, 5, " true") != 0) {
      return "an entry point overran 2x its deadline";
    }
    ++entries;
  }
  if (entries == 0) return "no entry points";
  pos = 0;
  while ((pos = text.find("\"honest_degradation\":", pos)) !=
         std::string::npos) {
    pos += 21;
    if (text.compare(pos, 5, " true") != 0) {
      return "a degraded run masqueraded as proven";
    }
  }
  return "";
}

void emit_bench_json(const std::vector<Row>& rows) {
  const std::string path = bench_json_path();
  {
    std::ofstream f(path);
    if (!f) {
      std::fprintf(stderr, "error: cannot write %s\n", path.c_str());
      std::exit(1);
    }
    f << render_bench_json(rows);
  }
  std::ifstream f(path);
  std::ostringstream buffer;
  buffer << f.rdbuf();
  const std::string problem = validate_bench_json(buffer.str());
  if (!problem.empty()) {
    std::fprintf(stderr, "error: %s fails schema check: %s\n", path.c_str(),
                 problem.c_str());
    std::exit(1);
  }
  std::printf("wrote %s (schema ok)\n", path.c_str());
}

}  // namespace

void report() {
  bench::heading("robustness / budget verdicts",
                 "time-to-first-verdict per governed entry point, "
                 "ungoverned vs a 100 ms wall-clock budget");
  const std::vector<Row> rows = run_report(smoke_mode());

  std::printf("%-16s %-12s %-10s %-12s %-10s %-6s %-8s\n", "entry point",
              "full ms", "verdict", "budget ms", "verdict", "blew",
              "<=2x dl");
  for (const Row& r : rows) {
    std::printf("%-16s %-12.2f %-10s %-12.2f %-10s %-6s %-8s\n",
                r.entry_point.c_str(), r.full_ms, r.full_verdict.c_str(),
                r.budgeted_ms, r.budgeted_verdict.c_str(),
                r.budget_blew ? "yes" : "no", r.within_2x ? "yes" : "NO");
    if (!r.within_2x) {
      std::fprintf(stderr,
                   "error: %s overran 2x its %llu ms deadline (%.2f ms)\n",
                   r.entry_point.c_str(),
                   static_cast<unsigned long long>(kDeadlineMs),
                   r.budgeted_ms);
      std::exit(1);
    }
    if (!r.honest) {
      std::fprintf(stderr,
                   "error: %s blew its budget but reported 'proven'\n",
                   r.entry_point.c_str());
      std::exit(1);
    }
  }
  std::printf("(deadline %llu ms; a budgeted run must return within 2x the "
              "deadline\nand must never label a degraded verdict as proven)\n",
              static_cast<unsigned long long>(kDeadlineMs));
  emit_bench_json(rows);
}

}  // namespace rtv

RTV_BENCH_MAIN(rtv::report)
