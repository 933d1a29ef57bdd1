#pragma once
// Certificate-carrying flow gate: proves the synthesis flow's own steps
// CLS-equivalent from all-X instead of searching the state space of the
// input/output pair (translation validation — check the run, not the
// compiler; Pnueli, Siegel & Singerman, TACAS 1998).
//
// The flow (core/flow.hpp) performs two steps whose composition is
// CLS-equivalent to the input by transitivity:
//
//  1. Cleanup (constant propagation, sweep, trim) keeps latches 1:1 or
//     drops them. Its certificate is a register correspondence: the
//     cleanup's own old->new latch map. Both netlists are cut at the
//     latches and hashed structurally (seeing through JUNC/BUF); matched
//     latches share one variable, swept original latches become free
//     ternary variables. Every primary output and matched next-state whose
//     hashes coincide is discharged; each remaining cone gets one
//     incremental SAT call over the per-cell dual-rail encoding
//     (aig/cls_encode.hpp). Induction from all-X over the matched latches
//     then gives CLS equivalence.
//  2. Retiming is a list of atomic moves. Every move must cross a cell
//     that maps all-X inputs to all-X outputs (Thm 5.1's precondition), and
//     replaying the moves with apply_move on the cleaned netlist must
//     reproduce the claimed netlist exactly: the same cells and the same
//     latch count on every wire. Cor 5.2 then discharges the step.
//
// The certificate only ever proves; a refusal says nothing about the
// designs, and the flow falls back to the general engine.

#include <string>
#include <vector>

#include "netlist/netlist.hpp"
#include "retime/moves.hpp"
#include "util/budget.hpp"

namespace rtv {

/// What the flow did, as it did it.
struct FlowWitness {
  /// Per latch of the input design (latches() order): its latch in
  /// `cleaned`, or an invalid id where the cleanup removed it.
  std::vector<NodeId> latch_map;
  /// The design after the cleanup passes, before retiming.
  Netlist cleaned;
  /// The retiming step as applied to `cleaned`, in order.
  std::vector<RetimingMove> moves;
};

enum class CertificateStatus : std::uint8_t {
  kProven,     ///< both legs hold: the claimed netlist is CLS-equivalent
  kRefused,    ///< some check failed; `reason` names the first one
  kExhausted,  ///< the budget blew before the certificate finished
};

struct FlowCertificate {
  CertificateStatus status = CertificateStatus::kRefused;
  /// The proof's census when proven, otherwise the first refusal.
  std::string reason;
};

/// Checks that `claimed` is CLS-equivalent to `design` from all-X by the
/// two legs above. Checkpoints the budget as "flow/certificate" and once
/// per SAT call ("certificate/sat"); a blown budget yields kExhausted,
/// never kProven.
FlowCertificate certify_flow(const Netlist& design, const FlowWitness& witness,
                             const Netlist& claimed,
                             ResourceBudget* budget = nullptr);

}  // namespace rtv
