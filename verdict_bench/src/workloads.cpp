#include "workloads.hpp"

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <utility>

#include "analysis/lint.hpp"
#include "corpus.hpp"
#include "core/flow.hpp"
#include "core/safety.hpp"
#include "core/verify.hpp"
#include "io/blif.hpp"
#include "io/json.hpp"
#include "io/rnl_format.hpp"
#include "retime/graph.hpp"
#include "retime/min_area.hpp"
#include "retime/min_period.hpp"
#include "sat/equiv.hpp"
#include "serve/server.hpp"
#include "sim/cls_sim.hpp"
#include "stats.hpp"

namespace vb {

using rtv::ClsEquivalenceResult;
using rtv::EquivalenceBackend;
using rtv::FlowOptions;
using rtv::Netlist;
using rtv::ResourceKind;
using rtv::ResourceLimits;
using Objective = rtv::FlowOptions::Objective;

namespace {

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// Passes in a run of `seconds`: a fixed function of the arguments, never
/// of how fast the ops ran, so every run of one seed has the same ops.
int passes_for(double seconds, double pass_seconds, int min_passes = 3) {
  return std::max(min_passes, static_cast<int>(seconds / pass_seconds + 0.5));
}

// --- per-layer counters shared by every workload ---------------------------

void note_blown(RunState& state, const std::optional<ResourceKind>& blown) {
  if (!blown) return;
  switch (*blown) {
    case ResourceKind::kSteps: state.counters["budget.exhausted_by.steps"] += 1; break;
    case ResourceKind::kWallClock: state.counters["budget.exhausted_by.wall"] += 1; break;
    case ResourceKind::kBddNodes: state.counters["budget.exhausted_by.nodes"] += 1; break;
    default: break;
  }
}

void note_decided_by(RunState& state, const std::string& engine) {
  state.counters["core.decided_by." + engine] += 1;
  state.counters["core.decisions"] += 1;
}

/// Engine counters of one gate/verify result (traced executions only).
void note_verify(RunState& state, const ClsEquivalenceResult& r) {
  note_decided_by(state, rtv::to_string(r.decided_by));
  note_blown(state, r.usage.blown);
  if (r.decided_by == EquivalenceBackend::kExplicit) {
    state.counters["explicit.pairs"] += static_cast<double>(r.pairs_explored);
  }
  double& peak = state.counters["bdd.peak_nodes"];
  peak = std::max(peak, static_cast<double>(r.usage.peak_bdd_nodes));
  state.counters["bdd.gc_runs"] += static_cast<double>(r.usage.bdd_gc_runs);
  state.counters["bdd.reorder_runs"] += static_cast<double>(r.usage.bdd_reorder_runs);
}

/// The SAT engine's own counters are not carried by ClsEquivalenceResult;
/// the traced run asks the engine once more, outside the op's span.
void note_sat_counters(RunState& state, Tracer& tracer, int op,
                       const Netlist& a, const Netlist& b,
                       const rtv::SatEquivOptions& options,
                       const ResourceLimits& limits) {
  Span span(tracer, "sat.counters", op);
  rtv::ResourceBudget budget(limits);
  const rtv::SatClsOutcome outcome = rtv::sat_cls_equivalence(a, b, options, &budget);
  state.counters["sat.conflicts"] += static_cast<double>(outcome.conflicts);
  double& depth = state.counters["sat.depth_reached"];
  depth = std::max(depth, static_cast<double>(outcome.depth_reached));
  double& k = state.counters["sat.induction_depth"];
  k = std::max(k, static_cast<double>(outcome.induction_depth));
}

// --- flow workloads: flow_gate and retime_large -----------------------------

/// One flow op: a design's BLIF text to a gated verdict.
struct FlowOp {
  std::size_t design = 0;  ///< index into FlowWorkload::designs_
  Objective objective = Objective::kMinArea;
};

/// What the untraced execution of an op concluded, for the mirror check.
struct FlowSummary {
  bool valid = false;
  std::size_t registers = 0;
  std::string verdict;
  bool equivalent = false;
};

/// One pass's plan: which designs (appended to `designs`) under which
/// objectives.
using FlowPlan = std::vector<FlowOp> (*)(rtv::Rng& rng, std::vector<Design>& designs);

class FlowWorkload : public Workload {
 public:
  FlowWorkload(const WorkloadConfig& config, FlowPlan plan, double pass_seconds,
               ResourceLimits limits, int min_passes = 3)
      : config_(config),
        plan_(plan),
        passes_(passes_for(config.seconds, pass_seconds, min_passes)) {
    options_.budget = limits;
  }

  void setup() override {
    rtv::Rng rng(config_.seed);
    // Plan order, the same for every seed: an op's time depends on what
    // ran before it, so a seeded order would add to the spread between
    // seeds.
    for (int p = 0; p < passes_; ++p) schedule_.push_back(plan_(rng, designs_));
    for (const Design& d : designs_) blif_.push_back(blif_round_trip(d.netlist));
    RunState warm;
    run_pass(0, false, warm);
  }

  int passes() const override { return passes_; }
  std::size_t ops_in_pass(int pass) const override {
    return schedule_[static_cast<std::size_t>(pass)].size();
  }

  void run_pass(int pass, bool traced, RunState& state) override {
    const std::vector<FlowOp>& ops = schedule_[static_cast<std::size_t>(pass)];
    if (summaries_.size() < ops.size()) summaries_.resize(ops.size());
    const auto start = Clock::now();
    for (std::size_t i = 0; i < ops.size(); ++i) {
      const int op_id = pass * 1000 + static_cast<int>(i);
      if (traced) {
        run_mirror(ops[i], op_id, summaries_[i], state);
      } else {
        summaries_[i] = run_flow(ops[i], state);
      }
    }
    const double seconds = ms_between(start, Clock::now()) / 1000.0;
    if (!traced) state.pass_seconds.push_back(seconds);
  }

 private:
  OpContext context(const FlowOp& op) const {
    return {designs_[op.design].family, objective_name(op.objective), "explicit"};
  }

  std::string label(const FlowOp& op) const {
    return designs_[op.design].name + " " + objective_name(op.objective);
  }

  static void record(Ledger& ledger, OpOutcome outcome, std::string label) {
    outcome.label = std::move(label);
    ledger.record(outcome);
  }

  static OpOutcome judge_flow(const Netlist& design, const rtv::FlowReport& report,
                              const OpContext& context) {
    OpOutcome outcome;
    outcome.verdict = rtv::to_string(report.verdict);
    outcome.equivalent = report.cls.equivalent;
    outcome.governed = true;
    const auto fail = [&](FailKind kind, std::string detail) {
      outcome.fail = kind;
      outcome.defect = attribute(kind, context, detail);
      outcome.detail = std::move(detail);
      return outcome;
    };
    if (report.cls.counterexample &&
        !cex_distinguishes(design, report.optimized, *report.cls.counterexample)) {
      return fail(FailKind::kCexNoReplay, "gate counterexample does not replay");
    }
    if (!report.cls.equivalent) {
      std::ostringstream os;
      os << context.objective << " flow rejected by its gate ("
         << report.safety.stats.forward_moves << " forward moves, k="
         << report.safety.delay_bound << ", counterexample length "
         << (report.cls.counterexample ? report.cls.counterexample->size() : 0)
         << ")";
      return fail(FailKind::kGateRejected, os.str());
    }
    return outcome;
  }

  FlowSummary run_flow(const FlowOp& op, RunState& state) {
    FlowOptions options = options_;
    options.objective = op.objective;
    const OpContext ctx = context(op);
    const auto t0 = Clock::now();
    try {
      const Netlist design = rtv::read_blif(blif_[op.design]).netlist;
      const rtv::FlowReport report = rtv::run_synthesis_flow(design, options);
      const double ms = ms_between(t0, Clock::now());
      state.op_ms.push_back(ms);
      record(state.ledger, judge_flow(design, report, ctx), label(op));
      return {true, report.registers_after, rtv::to_string(report.verdict),
              report.cls.equivalent};
    } catch (const std::exception& e) {
      const double ms = ms_between(t0, Clock::now());
      state.op_ms.push_back(ms);
      record(state.ledger, judge_exception(e, FailKind::kThrew, ctx), label(op));
      return {};
    }
  }

  /// The flow's phase order (core/flow.cpp) driven from outside, one span
  /// per public call: read_blif -> run_lint -> cleanup passes ->
  /// RetimeGraph::from_netlist -> solver -> analyze_lag_retiming ->
  /// verify_cls_equivalence.
  void run_mirror(const FlowOp& op, int op_id, const FlowSummary& reference,
                  RunState& state) {
    Tracer& t = *config_.tracer;
    const OpContext ctx = context(op);
    std::optional<Netlist> design;
    Netlist work;
    ClsEquivalenceResult cls;
    rtv::SafetyReport safety;
    bool exhausted = false;
    const auto t0 = Clock::now();
    try {
      Span root(t, "op", op_id);
      const int parent = root.id();
      {
        Span s(t, "io.parse", op_id, parent);
        design = rtv::read_blif(blif_[op.design]).netlist;
      }
      {
        Span s(t, "analysis.lint", op_id, parent);
        rtv::LintOptions lint;
        lint.warn_unreachable = false;
        lint.semantic = false;
        if (rtv::run_lint(*design, lint).has_errors()) {
          throw std::runtime_error("input design fails structural lint");
        }
      }
      rtv::ResourceBudget budget(options_.budget);
      {
        Span s(t, "netlist.cleanup", op_id, parent);
        work = *design;
        work.junctionize();
        budget.checkpoint("flow/cleanup");
        work.propagate_constants();
        work.sweep_unobservable();
        work.trim_dangling();
        work = work.compacted();
      }
      budget.checkpoint("flow/retime");
      std::optional<rtv::RetimeGraph> graph;
      {
        Span s(t, "retime.graph", op_id, parent);
        graph = rtv::RetimeGraph::from_netlist(work);
        (void)graph->clock_period();
      }
      std::vector<int> lag;
      switch (op.objective) {
        case Objective::kMinArea: {
          Span s(t, "retime.min_area", op_id, parent);
          lag = rtv::min_area_retime(*graph).lag;
          break;
        }
        case Objective::kMinPeriod: {
          Span s(t, "retime.min_period", op_id, parent);
          lag = rtv::min_period_retime_feas(*graph).lag;
          break;
        }
        case Objective::kMinAreaAtMinPeriod: {
          Span s(t, "retime.min_area_at_period", op_id, parent);
          const int target = rtv::min_period_retime_feas(*graph).period;
          lag = rtv::min_area_retime_with_period(*graph, target).value().lag;
          break;
        }
        case Objective::kNone:
          lag.assign(graph->num_vertices(), 0);
          break;
      }
      {
        Span s(t, "retime.sequence", op_id, parent);
        rtv::SequencedRetiming seq;
        safety = rtv::analyze_lag_retiming(work, *graph, lag, &seq);
        state.counters["retime.moves"] += static_cast<double>(seq.moves.size());
        work = std::move(seq.retimed).compacted();
      }
      {
        Span s(t, "retime.graph", op_id, parent);
        (void)rtv::RetimeGraph::from_netlist(work).clock_period();
      }
      budget.checkpoint("flow/cls-gate");
      {
        Span s(t, "core.gate", op_id, parent);
        cls = rtv::verify_cls_equivalence(*design, work, options_.verify, &budget);
      }
      exhausted = budget.exhausted();
      state.traced_op_ms.push_back(ms_between(t0, Clock::now()));
    } catch (const std::exception& e) {
      state.traced_op_ms.push_back(ms_between(t0, Clock::now()));
      record(state.traced_ledger, judge_exception(e, FailKind::kThrew, ctx), label(op));
      state.counters[reference.valid ? "trace.mirror_mismatch" : "trace.mirror_match"] += 1;
      return;
    }
    note_verify(state, cls);
    const std::string verdict =
        exhausted ? "exhausted" : rtv::to_string(cls.verdict);
    OpOutcome outcome;
    {
      rtv::FlowReport report;
      report.cls = cls;
      report.safety = safety;
      report.optimized = work;
      report.verdict = exhausted ? rtv::Verdict::kExhausted : cls.verdict;
      Span s(t, cls.counterexample ? "sim.cex_replay" : "check", op_id);
      outcome = judge_flow(*design, report, ctx);
    }
    record(state.traced_ledger, outcome, label(op));
    const bool match = reference.valid && reference.registers == work.num_latches() &&
                       reference.verdict == verdict &&
                       reference.equivalent == cls.equivalent;
    state.counters[match ? "trace.mirror_match" : "trace.mirror_mismatch"] += 1;
  }

  WorkloadConfig config_;
  FlowPlan plan_;
  int passes_;
  FlowOptions options_;
  std::vector<Design> designs_;
  std::vector<std::string> blif_;
  std::vector<std::vector<FlowOp>> schedule_;
  std::vector<FlowSummary> summaries_;
};

/// The flow budget spans the whole flow, retiming solve included. On
/// flow_gate every gate either finishes within 36 steps or, like the
/// explicit pair BFS on add4x2 and ctrl8 (seconds to minutes unbudgeted),
/// runs into the step quota. A step is a checkpoint of the library's own
/// work (one state pair, or 1024 input vectors of one), so a capped op costs
/// the engine's time for 80 steps, not a clock constant; the wall clock is
/// only a backstop, several times the slowest capped op.
ResourceLimits flow_gate_limits() {
  ResourceLimits limits;
  limits.step_quota = 80;
  limits.time_budget_ms = 3000;
  return limits;
}

/// retime_large's gates are bounded sampling (36 steps) after solves of up
/// to about 0.8 s, which the wall clock also counts; nothing is capped.
ResourceLimits retime_large_limits() {
  ResourceLimits limits;
  limits.step_quota = 80;
  limits.time_budget_ms = 5000;
  return limits;
}

std::size_t add_named(std::vector<Design>& designs, const std::string& name) {
  designs.push_back(named_design(name));
  return designs.size() - 1;
}

std::vector<FlowOp> flow_gate_plan(rtv::Rng& rng, std::vector<Design>& designs) {
  static const char* kFixed[] = {"s27",    "fig1",   "add4x2", "add8x2",
                                 "ctrl8",  "ctrl16", "mul4x1", "mul4x2",
                                 "lfsr8",  "ring6"};
  std::vector<FlowOp> ops;
  for (const char* name : kFixed) ops.push_back({add_named(designs, name)});
  // Ten inputs put 3^10 ternary vectors per state pair past the explicit
  // engine's exhaustive limit, so the random designs' gates are bounded
  // sampling: never near the cap whatever the seed draws. From 120 gates
  // up their ops also sort above the fixed ones around the median.
  for (int i = 0; i < 3; ++i) {
    const auto gates = static_cast<unsigned>(rng.range(120, 200));
    designs.push_back(random_design(rng.next(), gates, 10, 4));
    ops.push_back({designs.size() - 1});
  }
  return ops;
}

/// Fifteen ops a pass, laid out so the order statistics land on fixed
/// designs whatever the seed draws: the small random design's min-period op
/// sorts below the median and the large one's min-area op near the top.
/// With an odd count the median is the middle sample of one op's block,
/// ctrl128's min-period op (about 85 ms), whose neighbours sit near 55 ms
/// and 135 ms; a median between two ops' blocks would read the extremes of
/// both.
std::vector<FlowOp> retime_large_plan(rtv::Rng& rng, std::vector<Design>& designs) {
  constexpr Objective kAll[] = {Objective::kMinArea, Objective::kMinPeriod,
                                Objective::kMinAreaAtMinPeriod};
  std::vector<FlowOp> ops;
  for (const char* name : {"mul8x2", "mul8x4", "ctrl128", "add64x4"}) {
    const std::size_t d = add_named(designs, name);
    for (const Objective o : kAll) ops.push_back({d, o});
  }
  ops.push_back({add_named(designs, "mul8x1"), Objective::kMinArea});
  // Min-area-at-min-period is left out on random designs: its solve grows
  // to seconds at 1.2k gates and tens of seconds at 3k (README).
  designs.push_back(random_design(rng.next(), 400, 16, 16));
  ops.push_back({designs.size() - 1, Objective::kMinPeriod});
  designs.push_back(random_design(rng.next(), 1400, 16, 16));
  ops.push_back({designs.size() - 1, Objective::kMinArea});
  return ops;
}

// --- equiv_pairs ---------------------------------------------------------------

struct EquivPair {
  std::size_t design = 0;  ///< index into EquivWorkload::designs_
  std::string kind;        ///< identity|min-area|min-period|mutant
  Netlist b;
  KnownAnswer known = KnownAnswer::kUnknown;
};

struct EquivOp {
  std::size_t pair = 0;
  EquivalenceBackend backend = EquivalenceBackend::kExplicit;
};

/// Every library default except the budget: a step quota that no natural
/// verdict on this corpus gets within 2x of (the largest natural count is
/// 66 steps, SAT's BMC depth cap), and a wall-clock backstop for SAT, whose
/// steps are coarse.
ResourceLimits equiv_limits() {
  ResourceLimits limits;
  limits.step_quota = 240;
  limits.time_budget_ms = 3000;
  return limits;
}

class EquivWorkload : public Workload {
 public:
  explicit EquivWorkload(const WorkloadConfig& config)
      : config_(config), passes_(passes_for(config.seconds, 1.0)) {}

  void setup() override {
    std::vector<EquivOp> ops;
    for (const char* name : {"s27", "fig1", "mul4x1", "mul4x2"}) {
      Design d = named_design(name);
      // Round-tripped as a check only: the BLIF reader turns every gate
      // into a table cell, and the one-gate mutants need the gates.
      blif_round_trip(d.netlist);
      // The same mutant under every seed: whether SAT refutes a mutant in
      // milliseconds or "proves" it in 100 ms depends on the site.
      const std::uint64_t pair_seed = fnv1a(d.name);
      designs_.push_back(std::move(d));
      add_pairs(designs_.size() - 1, pair_seed, ops);
    }
    // Every pass runs the same ops, so the median and the tail rank the same
    // multiset under every seed; the seed draws each pass's order. Seeded
    // random designs are left out: on 8- to 10-gate designs their engine
    // times range from 0.01 to 120 ms with the seed, around the median.
    rtv::Rng rng(config_.seed);
    for (int p = 0; p < passes_; ++p) {
      rng.shuffle(ops);
      schedule_.push_back(ops);
    }
    RunState warm;
    run_pass(0, false, warm);
  }

  int passes() const override { return passes_; }
  std::size_t ops_in_pass(int pass) const override {
    return schedule_[static_cast<std::size_t>(pass)].size();
  }

  void run_pass(int pass, bool traced, RunState& state) override {
    const std::vector<EquivOp>& ops = schedule_[static_cast<std::size_t>(pass)];
    const auto start = Clock::now();
    for (std::size_t i = 0; i < ops.size(); ++i) {
      run_op(ops[i], pass * 1000 + static_cast<int>(i), traced, state);
    }
    const double seconds = ms_between(start, Clock::now()) / 1000.0;
    if (!traced) state.pass_seconds.push_back(seconds);
  }

 private:
  void add_pairs(std::size_t d, std::uint64_t seed, std::vector<EquivOp>& ops) {
    const Netlist& a = designs_[d].netlist;
    std::vector<EquivPair> pairs;
    pairs.push_back({d, "identity", a, KnownAnswer::kEquivalent});
    pairs.push_back({d, "min-area", retimed_variant(a, Objective::kMinArea)});
    pairs.push_back({d, "min-period", retimed_variant(a, Objective::kMinPeriod)});
    // The first seeded one-gate mutant that co-simulation tells apart from
    // the original (most swaps are invisible from all-X); the last one
    // tried if none is.
    constexpr unsigned kMutationAttempts = 32;
    for (unsigned attempt = 0; attempt < kMutationAttempts; ++attempt) {
      EquivPair mutant{d, "mutant", mutate_one_gate(a, seed, attempt)};
      const bool distinguished = cosim_witness(a, mutant.b, seed + attempt).has_value();
      if (distinguished) mutant.known = KnownAnswer::kInequivalent;
      if (distinguished || attempt + 1 == kMutationAttempts) {
        pairs.push_back(std::move(mutant));
        break;
      }
    }
    for (EquivPair& pair : pairs) {
      if (pair.known == KnownAnswer::kUnknown &&
          cosim_witness(a, pair.b, seed).has_value()) {
        pair.known = KnownAnswer::kInequivalent;
      }
      pairs_.push_back(std::move(pair));
      for (EquivalenceBackend backend :
           {EquivalenceBackend::kExplicit, EquivalenceBackend::kBdd,
            EquivalenceBackend::kSat}) {
        ops.push_back({pairs_.size() - 1, backend});
      }
    }
  }

  void run_op(const EquivOp& op, int op_id, bool traced, RunState& state) {
    const EquivPair& pair = pairs_[op.pair];
    const Design& design = designs_[pair.design];
    const OpContext ctx{design.family, pair.kind, rtv::to_string(op.backend)};
    const auto record = [&](OpOutcome outcome, double ms) {
      outcome.label = design.name + " " + pair.kind + " " + ctx.backend;
      (traced ? state.traced_ledger : state.ledger).record(outcome);
      (traced ? state.traced_op_ms : state.op_ms).push_back(ms);
    };
    rtv::VerifyOptions options;
    options.backend = op.backend;
    Tracer* tracer = traced ? config_.tracer : nullptr;
    std::optional<ClsEquivalenceResult> result;
    const auto t0 = Clock::now();
    try {
      std::optional<Span> root;
      if (tracer != nullptr) root.emplace(*tracer, "op", op_id);
      rtv::ResourceBudget budget(equiv_limits());
      std::optional<Span> call;
      if (tracer != nullptr) call.emplace(*tracer, "core.verify", op_id, root->id());
      result = rtv::verify_cls_equivalence(design.netlist, pair.b, options, &budget);
    } catch (const std::exception& e) {
      record(judge_exception(e, FailKind::kThrew, ctx), ms_between(t0, Clock::now()));
      return;
    }
    const double ms = ms_between(t0, Clock::now());
    if (!traced) {
      record(judge_equivalence(design.netlist, pair.b, *result, pair.known, ctx), ms);
      return;
    }
    note_verify(state, *result);
    if (result->decided_by == EquivalenceBackend::kSat) {
      note_sat_counters(state, *tracer, op_id, design.netlist, pair.b,
                        options.sat, equiv_limits());
    }
    // The replay check, spanned as the sim layer's work.
    Span span(*tracer, result->counterexample ? "sim.cex_replay" : "check", op_id);
    record(judge_equivalence(design.netlist, pair.b, *result, pair.known, ctx), ms);
  }

  WorkloadConfig config_;
  int passes_;
  std::vector<Design> designs_;
  std::vector<EquivPair> pairs_;
  std::vector<std::vector<EquivOp>> schedule_;
};

// --- serve_mix ---------------------------------------------------------------

/// A blocking NDJSON client over a Unix-domain socket.
class LineClient {
 public:
  explicit LineClient(const std::string& path) {
    fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd_ < 0) throw std::runtime_error("socket() failed");
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (path.size() >= sizeof(addr.sun_path)) {
      throw std::runtime_error("socket path too long");
    }
    std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
    // The server thread was started at the beginning of set-up, so it has
    // bound long before this; yield a bounded number of times in case it
    // has not yet, never sleep.
    int rc = -1;
    for (int attempt = 0; attempt < 100000 && rc != 0; ++attempt) {
      rc = ::connect(fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr));
      if (rc != 0) std::this_thread::yield();
    }
    if (rc != 0) {
      ::close(fd_);
      throw std::runtime_error(std::string("connect() failed: ") + std::strerror(errno));
    }
  }
  ~LineClient() { ::close(fd_); }
  LineClient(const LineClient&) = delete;
  LineClient& operator=(const LineClient&) = delete;

  void send_line(std::string frame) {
    frame.push_back('\n');
    std::size_t off = 0;
    while (off < frame.size()) {
      const ssize_t n = ::send(fd_, frame.data() + off, frame.size() - off, MSG_NOSIGNAL);
      if (n <= 0) throw std::runtime_error("send() failed");
      off += static_cast<std::size_t>(n);
    }
  }

  std::string recv_line() {
    for (;;) {
      const std::size_t nl = buffer_.find('\n');
      if (nl != std::string::npos) {
        std::string line = buffer_.substr(0, nl);
        buffer_.erase(0, nl + 1);
        return line;
      }
      char chunk[8192];
      const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (n <= 0) throw std::runtime_error("recv() failed: connection closed");
      buffer_.append(chunk, static_cast<std::size_t>(n));
    }
  }

 private:
  int fd_ = -1;
  std::string buffer_;
};

struct ServeDesign {
  Design design;
  std::string rnl;
  std::string id;  ///< design_id once preloaded, empty for inline-only
  std::string sim_inputs;
  std::vector<std::string> sim_expected;  ///< ClsSimulator responses
};

struct ServeJob {
  std::string type;  ///< lint|simulate|faultsim|validate|cls-equivalence
  std::size_t a = 0;  ///< index into ServeWorkload::designs_
  std::size_t b = 0;  ///< second design (cls-equivalence)
  bool inline_design = false;
};

constexpr unsigned kServePoolThreads = 2;
constexpr unsigned kServeClients = 2;
constexpr std::size_t kServeJobsPerPass = 1000;
/// Jobs a pass that run into the wall-clock cap (see ServeWorkload).
constexpr std::size_t kServeCappedPerPass = 3;

class ServeWorkload : public Workload {
 public:
  explicit ServeWorkload(const WorkloadConfig& config)
      : config_(config), passes_(passes_for(config.seconds, 1.2)) {}

  ~ServeWorkload() override { stop(); }
  ServeWorkload(const ServeWorkload&) = delete;
  ServeWorkload& operator=(const ServeWorkload&) = delete;

  void setup() override {
    rtv::serve::ServeOptions options;
    options.threads = kServePoolThreads;
    options.max_inflight = kServePoolThreads;
    server_ = std::make_unique<rtv::serve::Server>(options);
    static int instance = 0;
    socket_path_ = config_.scratch_dir + "/vb-" + std::to_string(::getpid()) +
                   "-" + std::to_string(instance++) + ".sock";
    server_thread_ = std::thread([this] { serve_loop(); });

    rtv::Rng rng(config_.seed);
    // Preloaded designs (sent by design_id) and their min-area retimings
    // (cls-equivalence partners), then fresh random designs sent inline.
    std::vector<std::size_t> preloaded;
    for (const char* name : {"s27", "fig1", "lfsr8", "ring6"}) {
      preloaded.push_back(add_design(named_design(name), rng));
      const Design& base = designs_.back().design;
      partner_[preloaded.back()] = add_design(
          {base.name + "-min-area", base.family,
           retimed_variant(base.netlist, Objective::kMinArea)},
          rng);
    }
    // add4x2 against itself: the explicit pair BFS runs for seconds
    // unbudgeted, so these jobs always stop at the 40 ms wall clock. They
    // are 0.3% of the mix and cost the cap, which puts a steady job class
    // at the top of the latency distribution instead of rare scheduling
    // accidents.
    const std::size_t capped = add_design(named_design("add4x2"), rng);
    partner_[capped] = capped;
    for (ServeDesign& d : designs_) preload(d);
    // Timed passes, then (trace mode) as many traced passes, then the
    // warm-up pass: every execution sends its own fresh inline designs, so
    // inline jobs really miss the cache.
    static const char* kTypes[] = {"lint", "simulate", "faultsim", "validate",
                                   "cls-equivalence"};
    const int schedules = passes_ * (config_.tracer->enabled() ? 2 : 1) + 1;
    for (int p = 0; p < schedules; ++p) {
      std::vector<ServeJob> jobs;
      for (std::size_t j = 0; j < kServeJobsPerPass; ++j) {
        ServeJob job;
        job.type = kTypes[j % 5];
        if (j < kServeCappedPerPass) {
          jobs.push_back({"cls-equivalence", capped, capped, false});
          continue;
        }
        // Inline jobs are single-design and cheap (a fresh design would
        // make validate and cls-equivalence a search, not a service call).
        job.inline_design = j % 5 < 3 && rng.below(4) == 0;
        if (job.inline_design) {
          job.a = add_design(
              random_design(rng.next(), static_cast<unsigned>(rng.range(12, 30)), 4, 3),
              rng);
        } else {
          job.a = preloaded[rng.index(preloaded.size())];
        }
        job.b = job.inline_design ? job.a : partner_.at(job.a);
        jobs.push_back(job);
      }
      rng.shuffle(jobs);
      schedule_.push_back(std::move(jobs));
    }
    for (unsigned c = 0; c < kServeClients; ++c) {
      clients_.push_back(std::make_unique<LineClient>(socket_path_));
    }
    RunState warm;
    run_jobs(schedule_.back(), 0, false, warm);
  }

  int passes() const override { return passes_; }
  std::size_t ops_in_pass(int pass) const override {
    return schedule_[static_cast<std::size_t>(pass)].size();
  }

  void run_pass(int pass, bool traced, RunState& state) override {
    run_jobs(schedule_[static_cast<std::size_t>(traced ? passes_ + pass : pass)], pass,
             traced, state);
  }

  void teardown() override {
    stop();
    if (serve_error_) std::rethrow_exception(std::exchange(serve_error_, nullptr));
  }

 private:
  /// Runs `jobs` over the closed-loop clients, client c taking every
  /// kServeClients-th job, and merges their outcomes in job order.
  void run_jobs(const std::vector<ServeJob>& jobs, int pass, bool traced,
                RunState& state) {
    std::vector<RunState> per_client(kServeClients);
    std::vector<std::exception_ptr> errors(kServeClients);
    const auto start = Clock::now();
    {
      std::vector<std::thread> threads;
      for (unsigned c = 0; c < kServeClients; ++c) {
        threads.emplace_back([&, c] {
          try {
            for (std::size_t j = c; j < jobs.size(); j += kServeClients) {
              run_job(*clients_[c], jobs[j], pass * 1000 + static_cast<int>(j),
                      traced, per_client[c]);
            }
          } catch (...) {
            errors[c] = std::current_exception();
          }
        });
      }
      for (std::thread& t : threads) t.join();
    }
    const double seconds = ms_between(start, Clock::now()) / 1000.0;
    for (const std::exception_ptr& e : errors) {
      if (e) std::rethrow_exception(e);
    }
    if (!traced) state.pass_seconds.push_back(seconds);
    // Merge in job order so the fingerprint does not depend on timing.
    std::vector<std::size_t> next(kServeClients, 0);
    for (std::size_t j = 0; j < jobs.size(); ++j) {
      RunState& from = per_client[j % kServeClients];
      const std::size_t k = next[j % kServeClients]++;
      (traced ? state.traced_ledger : state.ledger).record(from.outcomes[k]);
      (traced ? state.traced_op_ms : state.op_ms).push_back(from.op_ms[k]);
    }
    for (RunState& from : per_client) {
      for (const auto& [name, v] : from.counters) state.counters[name] += v;
      for (auto& [name, v] : from.samples) {
        auto& into = state.samples[name];
        into.insert(into.end(), v.begin(), v.end());
      }
    }
    const rtv::serve::ServeStats stats = server_->stats();
    state.counters["serve.jobs_failed"] = static_cast<double>(stats.jobs_failed);
    state.counters["serve.jobs_shed"] = static_cast<double>(stats.jobs_shed);
  }

  /// Asks the server to shut down and joins its thread; never throws.
  void stop() noexcept {
    if (!server_thread_.joinable()) return;
    try {
      LineClient control(socket_path_);
      control.send_line(R"({"rtv_serve": 3, "id": "bye", "type": "shutdown"})");
      control.recv_line();
    } catch (const std::exception&) {
      // The server may already be draining; joining below still ends it.
    }
    server_thread_.join();
    clients_.clear();
  }

  void serve_loop() {
    try {
      server_->serve_socket(socket_path_);
    } catch (...) {
      serve_error_ = std::current_exception();
    }
  }

  std::size_t add_design(Design design, rtv::Rng& rng) {
    ServeDesign d;
    d.design = std::move(design);
    d.design.netlist = rtv::read_blif(blif_round_trip(d.design.netlist)).netlist;
    d.rnl = rtv::write_rnl(d.design.netlist);
    // Two random ternary input sequences; the expected CLS responses come
    // from the scalar simulator, independently of the server.
    const std::size_t inputs = d.design.netlist.primary_inputs().size();
    std::vector<std::string> seqs;
    for (int s = 0; s < 2; ++s) {
      rtv::TritsSeq seq(4, rtv::Trits(inputs));
      for (auto& cycle : seq) {
        for (rtv::Trit& t : cycle) t = static_cast<rtv::Trit>(rng.below(3));
      }
      rtv::ClsSimulator sim(d.design.netlist);
      sim.reset_to_all_x();
      d.sim_expected.push_back(rtv::sequence_to_string(sim.run(seq)));
      seqs.push_back(rtv::sequence_to_string(seq));
    }
    d.sim_inputs = seqs[0] + "," + seqs[1];
    designs_.push_back(std::move(d));
    return designs_.size() - 1;
  }

  void preload(ServeDesign& d) {
    const std::string response = server_->handle_line(
        R"({"rtv_serve": 3, "id": "preload", "type": "lint", "design": ")" +
        rtv::json_escape(d.rnl) + "\"}");
    const rtv::JsonValue doc = rtv::parse_json(response);
    const rtv::JsonValue* id = doc.find("design_id");
    if (id == nullptr || !id->is_string()) {
      throw std::runtime_error("preload failed: " + response);
    }
    d.id = id->as_string();
  }

  std::string frame(const ServeJob& job, int op_id) const {
    const ServeDesign& a = designs_[job.a];
    const ServeDesign& b = designs_[job.b];
    std::ostringstream os;
    os << R"({"rtv_serve": 3, "id": "j)" << op_id << R"(", "type": ")" << job.type
       << "\", ";
    if (job.inline_design) {
      os << R"("design": ")" << rtv::json_escape(a.rnl) << "\", ";
    } else {
      os << R"("design_id": ")" << a.id << "\", ";
    }
    if (job.type == "cls-equivalence") {
      if (job.inline_design) {
        os << R"("design_b": ")" << rtv::json_escape(b.rnl) << "\", ";
      } else {
        os << R"("design_b_id": ")" << b.id << "\", ";
      }
    }
    os << R"("budget": {"step_quota": 100000, "time_ms": 40}, "options": )";
    if (job.type == "simulate") {
      os << R"({"mode": "cls", "inputs": ")" << a.sim_inputs << "\"}";
    } else if (job.type == "faultsim") {
      os << R"({"mode": "cls", "tests": 16, "cycles": 8, "seed": 7})";
    } else if (job.type == "validate") {
      os << R"({"objective": "min-area"})";
    } else {
      os << "{}";
    }
    os << "}";
    return os.str();
  }

  OpOutcome judge(const ServeJob& job, const rtv::JsonValue& doc) const {
    const ServeDesign& a = designs_[job.a];
    const OpContext ctx{a.design.family, "", "explicit"};
    OpOutcome outcome;
    const auto fail = [&](FailKind kind, std::string detail) {
      outcome.fail = kind;
      outcome.defect = attribute(kind, ctx, detail);
      outcome.detail = job.type + ": " + detail;
      return outcome;
    };
    const rtv::JsonValue* ok = doc.find("ok");
    if (ok == nullptr || !ok->is_bool() || !ok->as_bool()) {
      outcome.verdict = "error";
      const rtv::JsonValue* error = doc.find("error");
      return fail(FailKind::kErrorEnvelope,
                  error != nullptr ? rtv::write_json(*error) : "malformed response");
    }
    const rtv::JsonValue& result = *doc.find("result");
    const rtv::JsonValue& stats = *doc.find("stats");
    outcome.verdict = stats.find("verdict")->as_string();
    outcome.governed = outcome.verdict != "none";
    if (job.type == "simulate") {
      const auto& responses = result.find("responses")->as_array();
      bool same = responses.size() == a.sim_expected.size();
      for (std::size_t i = 0; same && i < responses.size(); ++i) {
        same = responses[i].as_string() == a.sim_expected[i];
      }
      if (!same) return fail(FailKind::kContradictsKnown, "responses differ from ClsSimulator");
    } else if (job.type == "cls-equivalence") {
      outcome.equivalent = result.find("equivalent")->as_bool();
      const rtv::JsonValue* cex = result.find("counterexample");
      if (cex != nullptr && cex->is_string() &&
          !cex_distinguishes(a.design.netlist, designs_[job.b].design.netlist,
                             rtv::trits_seq_from_string(cex->as_string()))) {
        return fail(FailKind::kCexNoReplay, "counterexample does not replay");
      }
      if (job.a == job.b && !outcome.equivalent) {
        return fail(FailKind::kContradictsKnown, "identity pair reported inequivalent");
      }
    } else if (job.type == "faultsim") {
      if (result.find("detected")->as_number() > result.find("faults")->as_number()) {
        return fail(FailKind::kContradictsKnown, "more faults detected than exist");
      }
    }
    return outcome;
  }

  void run_job(LineClient& client, const ServeJob& job, int op_id, bool traced,
               RunState& state) {
    const std::string request = frame(job, op_id);
    const auto t0 = Clock::now();
    client.send_line(request);
    const std::string response = client.recv_line();
    const auto t1 = Clock::now();
    const double latency = ms_between(t0, t1);
    state.op_ms.push_back(latency);
    const rtv::JsonValue doc = rtv::parse_json(response);
    OpOutcome outcome = judge(job, doc);
    outcome.label = job.type + " " + designs_[job.a].design.name +
                    (job.inline_design ? " inline" : "");
    state.outcomes.push_back(std::move(outcome));
    const rtv::JsonValue* stats = doc.find("stats");
    if (stats == nullptr) return;
    const double queue = stats->find("queue_ms")->as_number();
    const double run = stats->find("run_ms")->as_number();
    state.samples["serve.queue_ms"].push_back(queue);
    state.samples["serve.run_ms." + job.type].push_back(run);
    state.samples["serve.frame_overhead_ms"].push_back(latency - queue - run);
    state.counters["serve.jobs"] += 1;
    if (stats->find("cache_hit")->as_bool()) state.counters["serve.cache_hits"] += 1;
    if (!traced) return;
    if (const rtv::JsonValue* decided = doc.find("result")->find("decided_by")) {
      note_decided_by(state, decided->as_string());
    }
    if (const rtv::JsonValue* usage = stats->find("usage")) {
      const rtv::JsonValue* blown = usage->find("blown");
      if (blown != nullptr && blown->is_string()) {
        const std::string& b = blown->as_string();
        note_blown(state, b == "step quota"         ? std::optional(ResourceKind::kSteps)
                          : b == "wall-clock deadline" ? std::optional(ResourceKind::kWallClock)
                          : b == "BDD node cap"      ? std::optional(ResourceKind::kBddNodes)
                                                     : std::nullopt);
      }
    }
    // The server reports its own queue and run intervals; place them at
    // the end of the request interval (the response is written right after
    // the run) so the remainder is the frame overhead.
    Tracer& t = *config_.tracer;
    const int root = t.record("op", op_id, -1, t0, t1);
    const auto run_start = t1 - std::chrono::duration_cast<Clock::duration>(
                                    std::chrono::duration<double, std::milli>(run));
    const auto queue_start = run_start - std::chrono::duration_cast<Clock::duration>(
                                             std::chrono::duration<double, std::milli>(queue));
    t.record("serve.queue", op_id, root, std::max(queue_start, t0), run_start);
    t.record("serve.run." + job.type, op_id, root, std::max(run_start, t0), t1);
  }

  WorkloadConfig config_;
  int passes_;
  std::unique_ptr<rtv::serve::Server> server_;
  std::string socket_path_;
  std::thread server_thread_;
  std::exception_ptr serve_error_;
  std::vector<std::unique_ptr<LineClient>> clients_;
  std::vector<ServeDesign> designs_;
  std::map<std::size_t, std::size_t> partner_;
  std::vector<std::vector<ServeJob>> schedule_;
};

}  // namespace

std::unique_ptr<Workload> make_workload(const WorkloadConfig& config) {
  if (config.name == "flow_gate") {
    return std::make_unique<FlowWorkload>(config, flow_gate_plan, 0.8,
                                          flow_gate_limits());
  }
  if (config.name == "retime_large") {
    return std::make_unique<FlowWorkload>(config, retime_large_plan, 2.5,
                                          retime_large_limits(), 5);
  }
  if (config.name == "equiv_pairs") return std::make_unique<EquivWorkload>(config);
  if (config.name == "serve_mix") return std::make_unique<ServeWorkload>(config);
  throw std::invalid_argument("unknown workload: " + config.name);
}

}  // namespace vb
