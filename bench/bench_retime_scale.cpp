// E10 — substrate scale (the [SR94] context the paper cites: retiming at
// tens of thousands of gates). Min-period and min-area retiming on
// generated pipelined multipliers and random netlists of growing size.
//
// The report asserts the solver contract before writing anything: on every
// row with at most kOptVertexCap vertices the FEAS min-period search must
// return exactly the lag vector of the W/D-based OPT oracle (hence the same
// period), and on every row the cycle-ratio lower bound must not exceed the
// period found. The machine-readable BENCH_retime.json (path overridable
// via RTV_BENCH_JSON) records per row the size, period before/after, the
// lower bound, solve times and register counts; the binary re-reads and
// schema-checks the file, exiting non-zero on any violation.
// RTV_BENCH_SMOKE=1 runs only the rows with at most kOptVertexCap vertices
// so CI can run the report in seconds.

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <sstream>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "gen/datapath.hpp"
#include "gen/random_circuits.hpp"
#include "retime/graph.hpp"
#include "retime/min_area.hpp"
#include "retime/min_period.hpp"
#include "util/rng.hpp"

namespace rtv {

namespace {

/// Rows up to this many vertices run the OPT cross-check (and are the only
/// rows of a smoke run): OPT's W/D matrices are quadratic in the vertices.
constexpr std::uint32_t kOptVertexCap = 1000;

bool smoke_mode() {
  const char* v = std::getenv("RTV_BENCH_SMOKE");
  return v != nullptr && v[0] != '\0' && v[0] != '0';
}

double seconds_since(
    const std::chrono::steady_clock::time_point& start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

struct Row {
  std::string name;
  std::size_t gates = 0;
  std::uint32_t vertices = 0;
  int period_before = 0;
  int period_after = 0;
  int lower_bound = 0;
  double t_graph = 0.0;
  double t_period = 0.0;  ///< FEAS min-period search, lower bound included
  double t_area = 0.0;
  std::int64_t registers_before = 0;
  std::int64_t registers_after = 0;
  bool opt_checked = false;
  bool opt_agrees = true;  ///< same lags as OPT (vacuous when unchecked)
};

Row scale_row(const char* name, const Netlist& n) {
  Row r;
  r.name = name;
  r.gates = n.num_gates();
  const auto t0 = std::chrono::steady_clock::now();
  const RetimeGraph g = RetimeGraph::from_netlist(n);
  r.t_graph = seconds_since(t0);
  r.vertices = g.num_vertices();
  r.period_before = g.clock_period();

  const auto t1 = std::chrono::steady_clock::now();
  const RetimingSolution period = min_period_retime_feas(g);
  r.t_period = seconds_since(t1);
  r.period_after = period.period;
  r.lower_bound = min_period_lower_bound(g);

  const auto t2 = std::chrono::steady_clock::now();
  const MinAreaResult area = min_area_retime(g);
  r.t_area = seconds_since(t2);
  r.registers_before = area.registers_before;
  r.registers_after = area.registers_after;

  if (r.vertices <= kOptVertexCap) {
    const RetimingSolution opt = min_period_retime_opt(g);
    r.opt_checked = true;
    r.opt_agrees = opt.period == period.period && opt.lag == period.lag;
  }
  return r;
}

Netlist big_random(unsigned gates, std::uint64_t seed) {
  Rng rng(seed);
  RandomCircuitOptions opt;
  opt.num_inputs = 16;
  opt.num_outputs = 16;
  opt.num_gates = gates;
  opt.num_latches = gates / 8;
  opt.latch_after_gate_probability = 0.25;
  return random_netlist(opt, rng);
}

std::vector<Row> run_report(bool smoke) {
  const std::pair<const char*, std::function<Netlist()>> workloads[] = {
      {"mult 8b, 2 rows/stg", [] { return pipelined_multiplier(8, 2); }},
      {"ctrl 128", [] { return controller_datapath(128); }},
      {"random 500", [] { return big_random(500, 4); }},
      {"mult 16b, 4 rows/stg", [] { return pipelined_multiplier(16, 4); }},
      {"mult 32b, 8 rows/stg", [] { return pipelined_multiplier(32, 8); }},
      {"random 5k", [] { return big_random(5000, 1); }},
      {"random 20k", [] { return big_random(20000, 2); }},
  };
  std::vector<Row> rows;
  for (const auto& [name, make] : workloads) {
    const Netlist n = make();
    if (smoke && RetimeGraph::from_netlist(n).num_vertices() > kOptVertexCap) {
      continue;
    }
    rows.push_back(scale_row(name, n));
  }
  if (!smoke && std::getenv("RTV_SCALE_BIG") != nullptr) {
    rows.push_back(scale_row("random 50k", big_random(50000, 3)));  // ~15 min
  }
  return rows;
}

std::string bench_json_path() {
  const char* v = std::getenv("RTV_BENCH_JSON");
  return (v != nullptr && v[0] != '\0') ? v : "BENCH_retime.json";
}

std::string render_bench_json(const std::vector<Row>& rows) {
  std::ostringstream os;
  os.precision(6);
  os << "{\n";
  os << "  \"benchmark\": \"retime_scale\",\n";
  os << "  \"schema_version\": 1,\n";
  os << "  \"smoke\": " << (smoke_mode() ? "true" : "false") << ",\n";
  os << "  \"opt_vertex_cap\": " << kOptVertexCap << ",\n";
  os << "  \"rows\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    os << "    {\n";
    os << "      \"name\": \"" << r.name << "\",\n";
    os << "      \"gates\": " << r.gates << ",\n";
    os << "      \"vertices\": " << r.vertices << ",\n";
    os << "      \"period_before\": " << r.period_before << ",\n";
    os << "      \"period_after\": " << r.period_after << ",\n";
    os << "      \"lower_bound\": " << r.lower_bound << ",\n";
    os << "      \"t_graph_s\": " << r.t_graph << ",\n";
    os << "      \"t_period_s\": " << r.t_period << ",\n";
    os << "      \"t_area_s\": " << r.t_area << ",\n";
    os << "      \"registers_before\": " << r.registers_before << ",\n";
    os << "      \"registers_after\": " << r.registers_after << ",\n";
    os << "      \"opt_checked\": " << (r.opt_checked ? "true" : "false")
       << ",\n";
    os << "      \"opt_agrees\": " << (r.opt_agrees ? "true" : "false")
       << "\n";
    os << "    }" << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  os << "  ]\n";
  os << "}\n";
  return os.str();
}

/// Minimal schema check (no JSON library in the image): required keys,
/// balanced nesting, at least two rows, at least one OPT-checked row, and
/// OPT agreement in every row.
std::string validate_bench_json(const std::string& text) {
  for (const char* key :
       {"\"benchmark\"", "\"schema_version\"", "\"smoke\"",
        "\"opt_vertex_cap\"", "\"rows\"", "\"name\"", "\"gates\"",
        "\"vertices\"", "\"period_before\"", "\"period_after\"",
        "\"lower_bound\"", "\"t_graph_s\"", "\"t_period_s\"", "\"t_area_s\"",
        "\"registers_before\"", "\"registers_after\"", "\"opt_checked\"",
        "\"opt_agrees\""}) {
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
  while ((pos = text.find("\"opt_agrees\":", pos)) != std::string::npos) {
    pos += 13;
    if (text.compare(pos, 5, " true") != 0) {
      return "FEAS and OPT disagree on a row";
    }
    ++entries;
  }
  if (entries < 2) return "fewer than two rows measured";
  if (text.find("\"opt_checked\": true") == std::string::npos) {
    return "no row was cross-checked against OPT";
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
  bench::heading("E10 / [SR94] scale",
                 "min-period (FEAS-style) and min-area retiming vs size");
  const std::vector<Row> rows = run_report(smoke_mode());
  std::printf("%-22s %8s %8s %-10s %6s %-14s %8s %8s %8s %4s\n", "workload",
              "gates", "vertices", "period", "lb", "registers", "t_graph",
              "t_per", "t_area", "opt");
  for (const Row& r : rows) {
    std::printf("%-22s %8zu %8u %4d->%-4d %6d %6lld->%-6lld %8.3f %8.3f "
                "%8.3f %4s\n",
                r.name.c_str(), r.gates, r.vertices, r.period_before,
                r.period_after, r.lower_bound,
                static_cast<long long>(r.registers_before),
                static_cast<long long>(r.registers_after), r.t_graph,
                r.t_period, r.t_area,
                !r.opt_checked ? "-" : r.opt_agrees ? "same" : "DIFF");
    if (!r.opt_agrees) {
      std::fprintf(stderr, "error: %s: FEAS lags differ from OPT's\n",
                   r.name.c_str());
      std::exit(1);
    }
    if (r.lower_bound > r.period_after) {
      std::fprintf(stderr, "error: %s: lower bound %d above period %d\n",
                   r.name.c_str(), r.lower_bound, r.period_after);
      std::exit(1);
    }
  }
  if (!smoke_mode() && std::getenv("RTV_SCALE_BIG") == nullptr) {
    std::printf("%-22s (set RTV_SCALE_BIG=1 to run; ~15 minutes)\n",
                "random 50k");
  }
  std::printf("\n(times in seconds; [SR94] reports 50k-gate circuits as the\n"
              "practical frontier of 1994 — shape target: near-linear graph\n"
              "construction, super-linear but tractable optimization)\n");
  emit_bench_json(rows);
}

namespace {

void BM_GraphConstruction(benchmark::State& state) {
  const Netlist n = big_random(static_cast<unsigned>(state.range(0)), 9);
  for (auto _ : state) {
    benchmark::DoNotOptimize(RetimeGraph::from_netlist(n));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_GraphConstruction)->Arg(1000)->Arg(4000)->Arg(16000)->Complexity();

void BM_MinPeriodFeas(benchmark::State& state) {
  const Netlist n = big_random(static_cast<unsigned>(state.range(0)), 10);
  const RetimeGraph g = RetimeGraph::from_netlist(n);
  for (auto _ : state) {
    benchmark::DoNotOptimize(min_period_retime_feas(g));
  }
}
BENCHMARK(BM_MinPeriodFeas)->Arg(1000)->Arg(4000);

void BM_MinArea(benchmark::State& state) {
  const Netlist n = big_random(static_cast<unsigned>(state.range(0)), 11);
  const RetimeGraph g = RetimeGraph::from_netlist(n);
  for (auto _ : state) {
    benchmark::DoNotOptimize(min_area_retime(g));
  }
}
BENCHMARK(BM_MinArea)->Arg(1000)->Arg(4000);

void BM_MinPeriodOptSmall(benchmark::State& state) {
  // The exact O(V^3) OPT algorithm for comparison at small sizes.
  const Netlist n = big_random(static_cast<unsigned>(state.range(0)), 12);
  const RetimeGraph g = RetimeGraph::from_netlist(n);
  for (auto _ : state) {
    benchmark::DoNotOptimize(min_period_retime_opt(g));
  }
}
BENCHMARK(BM_MinPeriodOptSmall)->Arg(250)->Arg(1000);

}  // namespace
}  // namespace rtv

RTV_BENCH_MAIN(rtv::report)
