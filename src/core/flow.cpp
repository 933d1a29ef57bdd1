#include "core/flow.hpp"

#include <sstream>

#include "analysis/lint.hpp"
#include "core/certificate.hpp"
#include "core/redundancy.hpp"
#include "retime/graph.hpp"
#include "retime/min_area.hpp"
#include "retime/min_period.hpp"
#include "retime/sequencer.hpp"

namespace rtv {

std::string FlowReport::summary() const {
  std::ostringstream os;
  os << "period " << period_before << " -> " << period_after
     << ", registers " << registers_before << " -> " << registers_after
     << ", gates " << gates_before << " -> " << gates_after << "\n";
  os << "retiming safety: " << safety.summary() << "\n";
  os << "CLS gate:        " << cls.summary() << "\n";
  os << "decided by:      " << to_string(cls.decided_by);
  if (!cls.decided_reason.empty()) os << " (" << cls.decided_reason << ")";
  os << "\n";
  if (!certificate_refusal.empty()) {
    os << "certificate:     refused: " << certificate_refusal << "\n";
  }
  os << "resources:       " << to_string(verdict) << " (" << usage.summary()
     << ")\n";
  if (accepted()) {
    os << "ACCEPTED (three-valued methodology invariant holds)";
  } else if (cls.verdict == Verdict::kExhausted) {
    os << "UNDECIDED (budget exhausted before the CLS gate finished)";
  } else {
    os << "REJECTED (CLS-visible change!)";
  }
  return os.str();
}

FlowReport run_synthesis_flow(const Netlist& design,
                              const FlowOptions& options) {
  if (options.lint_input) {
    LintOptions lint_options;
    // The flow junctionizes and sweeps unobservable logic itself, so only
    // hard structural defects should block it; semantic findings are
    // advisory and never errors, so skip the fixpoint here.
    lint_options.warn_unreachable = false;
    lint_options.semantic = false;
    const LintResult lint = run_lint(design, lint_options);
    RTV_REQUIRE(!lint.has_errors(),
                "input design fails structural lint:\n" + render_text(lint));
  }

  ResourceBudget budget(options.budget, options.cancel);
  FlowReport report;
  report.gates_before = design.num_gates();
  report.registers_before = design.num_latches();

  Netlist work = design;
  work.junctionize();

  budget.checkpoint("flow/cleanup");
  if (options.constant_propagation) work.propagate_constants();
  if (options.sweep_unobservable) work.sweep_unobservable();
  work.trim_dangling();  // restore every-port-driven for the move engine
  // The cleanup's register correspondence, for the certificate: latch slots
  // of `design` are the same slots in `work` before compaction.
  FlowWitness witness;
  {
    std::vector<NodeId> old_to_new;
    work = work.compacted(&old_to_new);
    for (const NodeId l : design.latches()) {
      witness.latch_map.push_back(old_to_new[l.value]);
    }
  }

  budget.checkpoint("flow/retime");
  {
    const RetimeGraph g0 = RetimeGraph::from_netlist(work);
    report.period_before = g0.clock_period();

    std::vector<int> lag(g0.num_vertices(), 0);
    switch (options.objective) {
      case FlowOptions::Objective::kMinArea:
        lag = options.safe_replacement_only
                  ? min_area_retime_safe(g0, work).lag
                  : min_area_retime(g0).lag;
        break;
      case FlowOptions::Objective::kMinPeriod:
        lag = min_period_retime_feas(g0).lag;
        break;
      case FlowOptions::Objective::kMinAreaAtMinPeriod: {
        const int target = min_period_retime_feas(g0).period;
        const auto r = min_area_retime_with_period(g0, target);
        RTV_CHECK_MSG(r.has_value(), "own optimal period must be feasible");
        lag = r->lag;
        break;
      }
      case FlowOptions::Objective::kNone:
        break;
    }
    SequencedRetiming seq;
    report.safety = analyze_lag_retiming(work, g0, lag, &seq);
    witness.cleaned = std::move(work);
    witness.moves = std::move(seq.moves);
    work = std::move(seq.retimed);
  }

  if (options.redundancy_removal && budget.checkpoint("flow/redundancy")) {
    RedundancyOptions ropt;
    ropt.verify = options.verify;
    RedundancyRemovalResult rr =
        remove_cls_redundancies(work, ropt, 64, &budget);
    report.redundancy_curtailed = !rr.complete;
    work = std::move(rr.optimized);
  } else {
    report.redundancy_curtailed = options.redundancy_removal;
  }
  work = work.compacted();

  report.period_after = RetimeGraph::from_netlist(work).clock_period();
  report.registers_after = work.num_latches();
  report.gates_after = work.num_gates();
  // The flow's own proof first; redundancy removal has no certificate leg.
  // A refusal says nothing about the designs: the engine gate decides.
  bool certified = false;
  if (!options.redundancy_removal) {
    const FlowCertificate cert = certify_flow(design, witness, work, &budget);
    certified = cert.status == CertificateStatus::kProven;
    if (certified) {
      report.cls.equivalent = true;
      report.cls.exhaustive = true;
      report.cls.verdict = Verdict::kProven;
      report.cls.decided_by = EquivalenceBackend::kCertificate;
      report.cls.decided_reason = cert.reason;
      report.cls.usage = budget.usage();
    } else if (cert.status == CertificateStatus::kRefused) {
      report.certificate_refusal = cert.reason;
    }
  }
  if (!certified) {
    budget.checkpoint("flow/cls-gate");
    report.cls = verify_cls_equivalence(design, work, options.verify, &budget);
  }
  report.optimized = std::move(work);
  report.verdict = budget.exhausted() ? Verdict::kExhausted : report.cls.verdict;
  report.usage = budget.usage();
  return report;
}

}  // namespace rtv
