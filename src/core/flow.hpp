#pragma once
// The synthesis methodology of the paper's conclusion, as a driver: apply
// sequential optimizations (constant propagation, dead-logic sweep,
// retiming, optional CLS-redundancy removal) and gate the result on the
// Section-5 invariant — the optimized design must be indistinguishable
// from the input by a conservative three-valued simulator started all-X.
// The gate first checks the flow's own certificate (core/certificate.hpp:
// a register correspondence for the cleanup, Cor 5.2 for the retiming
// moves); a state-space engine decides only when the certificate refuses.
// "Because, in practice, all current design methodologies rely on this
// type of three-valued simulation, we conclude that retiming of designs
// without set and reset signals fits into a synthesis methodology."

#include <string>

#include "core/safety.hpp"
#include "core/verify.hpp"
#include "netlist/netlist.hpp"

namespace rtv {

struct FlowOptions {
  enum class Objective {
    kMinArea,             ///< fewest registers, period unconstrained
    kMinPeriod,           ///< fastest clock
    kMinAreaAtMinPeriod,  ///< [SR94]: fewest registers at the optimal clock
    kNone,                ///< cleanup passes only, no retiming
  };
  Objective objective = Objective::kMinArea;
  /// Restrict the retiming to moves that preserve safe replacement
  /// (Cor 4.4): the optimized design is then a drop-in replacement for ANY
  /// environment, not only CLS-based methodologies. Currently honored by
  /// the kMinArea objective (lag >= 0 on non-justifiable elements).
  bool safe_replacement_only = false;
  /// Run the structural lint (analysis/lint.hpp) on the input design and
  /// refuse to start when it reports errors — the coded diagnostics name
  /// every defect instead of the first one check_valid would throw on.
  bool lint_input = true;
  bool constant_propagation = true;
  bool sweep_unobservable = true;
  /// CLS-preserving redundancy removal (expensive: per-fault equivalence
  /// proofs); only sensible for small designs.
  bool redundancy_removal = false;
  /// The engine gate behind the flow's certificate (core/certificate.hpp):
  /// backend selection plus every engine's sub-options (core/verify.hpp).
  /// The certificate always runs first; the engine decides only when it
  /// refuses or when redundancy removal ran.
  VerifyOptions verify;
  /// Resource governance: one budget built from these limits spans every
  /// phase of the flow (cleanup, retiming, redundancy removal, CLS gate).
  ResourceLimits budget;
  CancellationToken cancel;
};

struct FlowReport {
  Netlist optimized;
  SafetyReport safety;          ///< Section-4 classification of the retiming
  ClsEquivalenceResult cls;     ///< the methodology gate (must be equivalent)
  /// Why the flow's certificate refused (the first refused move and its
  /// cell, or the first unmatched cone); empty when it proved the gate, ran
  /// out of budget, or did not run.
  std::string certificate_refusal;
  int period_before = 0;
  int period_after = 0;
  std::size_t registers_before = 0;
  std::size_t registers_after = 0;
  std::size_t gates_before = 0;
  std::size_t gates_after = 0;
  /// kExhausted whenever the budget blew anywhere in the flow (the report
  /// is partial), otherwise the CLS gate's verdict.
  Verdict verdict = Verdict::kProven;
  ResourceUsage usage;
  /// Redundancy removal was requested but curtailed by the budget.
  bool redundancy_curtailed = false;

  /// True iff the flow is safe to ship under the paper's criterion. A
  /// budget-exhausted CLS gate is NOT acceptance — a degraded check must
  /// never masquerade as the methodology invariant holding.
  bool accepted() const {
    return cls.equivalent && cls.verdict != Verdict::kExhausted;
  }
  std::string summary() const;
};

/// Runs the flow; never mutates the input. Throws only on structural
/// errors — an optimization that broke the CLS invariant is reported via
/// accepted() == false (and would falsify Theorem 5.1 if the only
/// transformations were retiming moves).
FlowReport run_synthesis_flow(const Netlist& design,
                              const FlowOptions& options = {});

}  // namespace rtv
