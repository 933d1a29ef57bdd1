// Tests for the certificate-carrying flow gate (core/certificate.hpp):
// soundness against the explicit engine, mutation tests showing every
// corrupted witness is refused, budget behaviour, and the flow's reporting.

#include <gtest/gtest.h>

#include <algorithm>

#include "core/certificate.hpp"
#include "core/flow.hpp"
#include "gen/datapath.hpp"
#include "gen/iscas.hpp"
#include "gen/paper_circuits.hpp"
#include "gen/random_circuits.hpp"
#include "gen/shift.hpp"
#include "io/rnl_format.hpp"
#include "retime/graph.hpp"
#include "retime/min_area.hpp"
#include "retime/min_period.hpp"
#include "retime/sequencer.hpp"
#include "test_helpers.hpp"
#include "util/fault_inject.hpp"
#include "util/rng.hpp"

namespace rtv {
namespace {

using testing::constant_gated_toggle;
using testing::toggle_circuit;

/// The flow's witness and output, rebuilt step by step (cleanup, then a
/// retiming) so that the tests can corrupt it before certifying.
struct Witnessed {
  FlowWitness witness;
  Netlist claimed;
};

Witnessed witnessed_flow(const Netlist& design, bool min_period = false) {
  Netlist work = design;
  work.junctionize();
  work.propagate_constants();
  work.sweep_unobservable();
  work.trim_dangling();
  Witnessed w;
  std::vector<NodeId> old_to_new;
  w.witness.cleaned = work.compacted(&old_to_new);
  for (const NodeId l : design.latches()) {
    w.witness.latch_map.push_back(old_to_new[l.value]);
  }
  const RetimeGraph g = RetimeGraph::from_netlist(w.witness.cleaned);
  const std::vector<int> lag =
      min_period ? min_period_retime_feas(g).lag : min_area_retime(g).lag;
  SequencedRetiming seq = sequence_retiming(w.witness.cleaned, g, lag);
  w.witness.moves = std::move(seq.moves);
  w.claimed = seq.retimed.compacted();
  return w;
}

FlowCertificate certify(const Netlist& design, const Witnessed& w) {
  return certify_flow(design, w.witness, w.claimed);
}

void expect_refused(const Netlist& design, const Witnessed& w,
                    const std::string& why) {
  const FlowCertificate c = certify(design, w);
  EXPECT_EQ(c.status, CertificateStatus::kRefused) << c.reason;
  EXPECT_NE(c.reason.find(why), std::string::npos) << c.reason;
}

/// `n` with one random gate input tied to a random constant, so that the
/// cleanup has rewrites (and possibly swept latches) to certify.
Netlist with_tied_pin(Netlist n, Rng& rng) {
  std::vector<NodeId> gates;
  for (const NodeId id : n.live_nodes()) {
    if (is_variadic_gate(n.kind(id)) && n.num_pins(id) >= 2) {
      gates.push_back(id);
    }
  }
  if (gates.empty()) return n;
  const NodeId g = gates[rng.index(gates.size())];
  const PinRef pin(g, static_cast<std::uint32_t>(rng.index(n.num_pins(g))));
  n.disconnect(pin);
  n.connect(PortRef(n.add_const(rng.coin()), 0), pin);
  return n;
}

/// The explicit engine's exhaustive verdict, forced: no bounded fallback.
ClsEquivalenceResult exhaustive_explicit(const Netlist& a, const Netlist& b) {
  VerifyOptions opt;
  opt.allow_static_proof = false;
  opt.explicit_opts.max_branching = 100000;
  opt.explicit_opts.max_pairs = 2000000;
  return verify_cls_equivalence(a, b, opt);
}

/// `n` with combinational cell `id` rebuilt as `kind` (same fanin, same
/// sinks), then compacted; `latch_map` entries are carried through.
Netlist rebuilt_as(Netlist n, NodeId id, CellKind kind,
                   std::vector<NodeId>& latch_map) {
  const NodeId g = n.add_gate(kind, n.num_pins(id));
  for (std::uint32_t pin = 0; pin < n.num_pins(id); ++pin) {
    n.connect(n.node(id).fanin[pin], PinRef(g, pin));
  }
  const std::vector<PinRef> sinks = n.sinks(PortRef(id, 0));
  for (const PinRef& s : sinks) {
    n.disconnect(s);
    n.connect(PortRef(g, 0), s);
  }
  n.trim_dangling();
  std::vector<NodeId> old_to_new;
  Netlist out = n.compacted(&old_to_new);
  for (NodeId& l : latch_map) {
    if (l.valid()) l = old_to_new[l.value];
  }
  out.check_valid(true);
  return out;
}

// ---- the flow carries its own proof -----------------------------------------

TEST(CertificateGate, ProvesTheFlowOnSmallDesigns) {
  for (const Netlist& design :
       {toggle_circuit(), iscas_s27(), figure1_original(), figure1_retimed(),
        lfsr(8, {0, 3, 5, 7}), twisted_ring(6), pipelined_adder(4, 2)}) {
    for (const auto objective : {FlowOptions::Objective::kMinArea,
                                 FlowOptions::Objective::kMinPeriod}) {
      FlowOptions opt;
      opt.objective = objective;
      const FlowReport r = run_synthesis_flow(design, opt);
      EXPECT_EQ(r.cls.decided_by, EquivalenceBackend::kCertificate)
          << r.summary();
      EXPECT_EQ(r.cls.verdict, Verdict::kProven);
      EXPECT_TRUE(r.accepted());
      EXPECT_TRUE(r.certificate_refusal.empty());
      EXPECT_NE(r.summary().find("decided by:      certificate"),
                std::string::npos);
    }
  }
}

TEST(CertificateGate, RewrittenConeIsDischargedBySat) {
  const Netlist design = constant_gated_toggle();
  const FlowReport r = run_synthesis_flow(design);
  ASSERT_EQ(r.cls.decided_by, EquivalenceBackend::kCertificate) << r.summary();
  EXPECT_LT(r.gates_after, r.gates_before);
  EXPECT_NE(r.cls.decided_reason.find("1 by SAT"), std::string::npos)
      << r.cls.decided_reason;
}

TEST(CertificateGate, RedundancyRemovalKeepsTheEngineGate) {
  FlowOptions opt;
  opt.redundancy_removal = true;
  const FlowReport r = run_synthesis_flow(toggle_circuit(), opt);
  EXPECT_NE(r.cls.decided_by, EquivalenceBackend::kCertificate);
  EXPECT_TRUE(r.certificate_refusal.empty());
}

TEST(CertificateGate, ConstantCellMovesFallBackToTheEngine) {
  // The min-area solver lags the multiplier's constant cells, and a
  // backward move across a 0-input cell deletes a latch that CLS sees at
  // cycle 0: outside Thm 5.1, so the certificate must refuse and the engine
  // rejects the flow.
  FlowOptions opt;
  opt.verify.explicit_opts.max_branching = 1;  // bounded sampling suffices
  const FlowReport r = run_synthesis_flow(pipelined_multiplier(4, 1), opt);
  EXPECT_NE(r.cls.decided_by, EquivalenceBackend::kCertificate);
  EXPECT_NE(r.certificate_refusal.find("does not map all-X"),
            std::string::npos)
      << r.certificate_refusal;
  EXPECT_NE(r.certificate_refusal.find("const"), std::string::npos);
  EXPECT_NE(r.summary().find("certificate:     refused: move"),
            std::string::npos);
  EXPECT_FALSE(r.accepted());
}

// ---- soundness: agreement with the explicit engine --------------------------

TEST(CertificateCrossCheck, AgreesWithTheExhaustiveExplicitEngine) {
  std::vector<Netlist> designs = {toggle_circuit(), constant_gated_toggle(),
                                  iscas_s27(), figure1_original(),
                                  lfsr(8, {0, 3, 5, 7}), twisted_ring(6)};
  Rng rng(20260513);
  RandomCircuitOptions gen;
  gen.num_inputs = 3;
  gen.num_outputs = 2;
  gen.num_gates = 14;
  gen.num_latches = 3;
  gen.table_probability = 0.2;
  gen.latch_after_gate_probability = 0.25;
  while (designs.size() < 40) {
    Netlist n = random_netlist(gen, rng);
    if (n.num_latches() > 12 || n.primary_inputs().size() > 4) continue;
    // Every other random design gets a constant for the cleanup to fold.
    if (designs.size() % 2 == 0) n = with_tied_pin(std::move(n), rng);
    designs.push_back(std::move(n));
  }
  std::size_t proven = 0, by_sat = 0;
  for (std::size_t i = 0; i < designs.size(); ++i) {
    for (const bool min_period : {false, true}) {
      const Witnessed w = witnessed_flow(designs[i], min_period);
      const FlowCertificate c = certify(designs[i], w);
      if (c.status != CertificateStatus::kProven) continue;
      ++proven;
      by_sat += c.reason.find(" 0 by SAT") == std::string::npos;
      const ClsEquivalenceResult oracle =
          exhaustive_explicit(designs[i], w.claimed);
      ASSERT_EQ(oracle.verdict, Verdict::kProven) << "design " << i;
      EXPECT_TRUE(oracle.equivalent)
          << "design " << i << ": certificate proved a distinguishable pair ("
          << c.reason << ")";
    }
  }
  EXPECT_GE(proven, 50u);
  EXPECT_GE(by_sat, 5u);
}

// ---- mutation tests: corrupted witnesses are refused ------------------------

/// A witness with enough moves that order and direction matter.
Witnessed moving_witness(const Netlist& design) {
  const Witnessed w = witnessed_flow(design);
  EXPECT_EQ(certify(design, w).status, CertificateStatus::kProven);
  EXPECT_GE(w.witness.moves.size(), 3u);
  return w;
}

TEST(CertificateMutation, DroppedMoveIsRefused) {
  const Netlist design = pipelined_adder(4, 2);
  const Witnessed base = moving_witness(design);
  for (std::size_t i = 0; i < base.witness.moves.size(); ++i) {
    Witnessed w = base;
    w.witness.moves.erase(w.witness.moves.begin() +
                          static_cast<std::ptrdiff_t>(i));
    expect_refused(design, w, "move");
  }
  // Without the last move the replay runs through and must then differ.
  Witnessed w = base;
  w.witness.moves.pop_back();
  expect_refused(design, w, "do not reproduce the claimed netlist");
}

TEST(CertificateMutation, ClaimedNetlistWithAMovedLatchIsRefused) {
  // Same cells and the same latch count, but one latch on another wire.
  const Netlist design = pipelined_adder(4, 2);
  Witnessed w = moving_witness(design);
  Netlist& claimed = w.claimed;
  const std::size_t latches = claimed.num_latches();
  const NodeId latch = claimed.latches()[0];
  const NodeId driver = claimed.node(latch).fanin[0].node;
  claimed.bypass_and_remove(latch);
  for (const NodeId id : claimed.live_nodes()) {
    if (id == driver || !is_combinational(claimed.kind(id))) continue;
    claimed.insert_on_wire(PortRef(id, 0), claimed.sole_sink(PortRef(id, 0)),
                           CellKind::kLatch);
    break;
  }
  ASSERT_EQ(claimed.num_latches(), latches);
  expect_refused(design, w, "latches after replay");
}

TEST(CertificateMutation, ReorderedMovesAreRefused) {
  const Netlist design = pipelined_adder(4, 2);
  Witnessed w = moving_witness(design);
  std::reverse(w.witness.moves.begin(), w.witness.moves.end());
  expect_refused(design, w, "move");
}

TEST(CertificateMutation, FlippedDirectionIsRefused) {
  const Netlist design = pipelined_adder(4, 2);
  const Witnessed base = moving_witness(design);
  for (std::size_t i = 0; i < base.witness.moves.size(); ++i) {
    Witnessed w = base;
    MoveDirection& d = w.witness.moves[i].direction;
    d = d == MoveDirection::kForward ? MoveDirection::kBackward
                                     : MoveDirection::kForward;
    expect_refused(design, w, "move");
  }
}

TEST(CertificateMutation, MoveOnTheWrongElementIsRefused) {
  const Netlist design = pipelined_adder(4, 2);
  const Witnessed base = moving_witness(design);
  const Netlist& cleaned = base.witness.cleaned;
  std::size_t tried = 0;
  for (std::uint32_t i = 0; i < cleaned.num_slots() && tried < 20; ++i) {
    const NodeId other(i);
    if (other == base.witness.moves[0].element ||
        !is_combinational(cleaned.kind(other))) {
      continue;
    }
    Witnessed w = base;
    w.witness.moves[0].element = other;
    expect_refused(design, w, "move");
    ++tried;
  }
  EXPECT_EQ(tried, 20u);
  Witnessed w = base;
  w.witness.moves[0].element = cleaned.latches()[0];
  expect_refused(design, w, "names no combinational cell");
}

TEST(CertificateMutation, ClaimedNetlistWithAChangedCellIsRefused) {
  // The first AND of the claimed netlist declared as an OR; the .rnl round
  // trip keeps every other node in its slot.
  const Netlist design = pipelined_adder(4, 2);
  Witnessed w = moving_witness(design);
  std::string text = write_rnl(w.claimed);
  const std::size_t at = text.find(" and ");
  ASSERT_NE(at, std::string::npos);
  text.replace(at, 5, " or ");
  w.claimed = read_rnl(text);
  expect_refused(design, w, "differs from the claimed");
}

TEST(CertificateMutation, MoveAcrossAConstantCellIsRefused) {
  // in AND (1 -> L) -> out. The backward move across the constant deletes L:
  // structurally enabled, but the constant maps all-X to 1, not X.
  Netlist n;
  const NodeId in = n.add_input("in");
  const NodeId out = n.add_output("out");
  const NodeId one = n.add_const(true, "one");
  const NodeId l = n.add_latch("L");
  const NodeId g = n.add_gate(CellKind::kAnd, 2, "g");
  n.connect(one, l);
  n.connect(in, g, 0);
  n.connect(PortRef(l, 0), PinRef(g, 1));
  n.connect(PortRef(g, 0), PinRef(out, 0));
  n.check_valid(true);
  Witnessed w;
  w.witness.cleaned = n;
  w.witness.latch_map = n.latches();
  w.witness.moves = {{one, MoveDirection::kBackward}};
  w.claimed = n;
  apply_move(w.claimed, w.witness.moves[0]);
  ASSERT_EQ(w.claimed.num_latches(), 0u);
  expect_refused(n, w, "does not map all-X");
  // The engine agrees that this move is CLS-visible.
  EXPECT_FALSE(exhaustive_explicit(n, w.claimed).equivalent);
}

TEST(CertificateMutation, SwappedLatchesAreRefused) {
  const Netlist design = iscas_s27();
  const Witnessed base = witnessed_flow(design);
  ASSERT_EQ(certify(design, base).status, CertificateStatus::kProven);
  const std::size_t latches = base.witness.latch_map.size();
  ASSERT_GE(latches, 2u);
  for (std::size_t i = 0; i < latches; ++i) {
    for (std::size_t j = i + 1; j < latches; ++j) {
      Witnessed w = base;
      std::swap(w.witness.latch_map[i], w.witness.latch_map[j]);
      expect_refused(design, w, "has no counterpart");
    }
  }
  Witnessed w = base;
  w.witness.latch_map[1] = w.witness.latch_map[0];
  expect_refused(design, w, "already taken");
}

TEST(CertificateMutation, WrongCleanupRewriteIsRefused) {
  // One AND of the cleaned netlist turned into an OR, with the retiming
  // replayed on the corrupted netlist so only the cleanup leg can object.
  const Netlist design = iscas_s27();
  Witnessed w = witnessed_flow(design);
  w.witness.moves.clear();
  const Netlist& cleaned = w.witness.cleaned;
  NodeId target;
  for (const NodeId id : cleaned.live_nodes()) {
    if (cleaned.kind(id) == CellKind::kAnd) {
      target = id;
      break;
    }
  }
  ASSERT_TRUE(target.valid());
  w.witness.cleaned =
      rebuilt_as(cleaned, target, CellKind::kOr, w.witness.latch_map);
  w.claimed = w.witness.cleaned;
  expect_refused(design, w, "has no counterpart");

  // Control: the same rebuild with the right kind is proven.
  Witnessed same = witnessed_flow(design);
  same.witness.moves.clear();
  same.witness.cleaned = rebuilt_as(same.witness.cleaned, target,
                                    CellKind::kAnd, same.witness.latch_map);
  same.claimed = same.witness.cleaned;
  EXPECT_EQ(certify(design, same).status, CertificateStatus::kProven);
}

// ---- budget -----------------------------------------------------------------

TEST(CertificateBudget, BlownBudgetIsExhaustedNeverProven) {
  const Netlist design = constant_gated_toggle();
  const Witnessed w = witnessed_flow(design);
  CancellationToken cancel;
  cancel.request_cancel();
  ResourceBudget cancelled(ResourceLimits{}, cancel);
  const FlowCertificate c =
      certify_flow(design, w.witness, w.claimed, &cancelled);
  EXPECT_EQ(c.status, CertificateStatus::kExhausted);
}

TEST(CertificateBudget, TripAtTheSatCallIsExhausted) {
  const Netlist design = constant_gated_toggle();
  const Witnessed w = witnessed_flow(design);
  // Checkpoint 1 is "flow/certificate", checkpoint 2 the one SAT call.
  fault_inject::arm(2);
  ResourceBudget budget;
  const FlowCertificate c = certify_flow(design, w.witness, w.claimed, &budget);
  const std::vector<std::string> sites = fault_inject::sites_seen();
  fault_inject::disarm();
  EXPECT_EQ(c.status, CertificateStatus::kExhausted) << c.reason;
  ASSERT_EQ(sites.size(), 2u);
  EXPECT_EQ(sites[0], "flow/certificate");
  EXPECT_EQ(sites[1], "certificate/sat");

  // Through the flow: the blown budget reaches the engine, which degrades.
  fault_inject::arm(4);  // flow/cleanup, flow/retime, flow/certificate, sat
  const FlowReport r = run_synthesis_flow(design);
  fault_inject::disarm();
  EXPECT_EQ(r.verdict, Verdict::kExhausted);
  EXPECT_NE(r.cls.decided_by, EquivalenceBackend::kCertificate);
  EXPECT_FALSE(r.accepted());
}

// ---- the backend name -------------------------------------------------------

TEST(CertificateBackend, IsReportedButNeverSelectable) {
  EXPECT_STREQ(to_string(EquivalenceBackend::kCertificate), "certificate");
  EXPECT_FALSE(equivalence_backend_from_string("certificate").has_value());
  VerifyOptions opt;
  opt.backend = EquivalenceBackend::kCertificate;
  EXPECT_THROW(verify_cls_equivalence(toggle_circuit(), toggle_circuit(), opt),
               InvalidArgument);
}

}  // namespace
}  // namespace rtv
