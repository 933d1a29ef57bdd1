#include "checks.hpp"

#include <algorithm>

#include "sim/cls_sim.hpp"
#include "sim/packed_sim.hpp"
#include "stats.hpp"
#include "util/rng.hpp"

namespace vb {

using rtv::Netlist;
using rtv::Trit;
using rtv::TritsSeq;

bool cex_distinguishes(const Netlist& a, const Netlist& b,
                       const TritsSeq& inputs) {
  if (a.primary_inputs().size() != b.primary_inputs().size() ||
      a.primary_outputs().size() != b.primary_outputs().size()) {
    return false;
  }
  for (const auto& cycle : inputs) {
    if (cycle.size() != a.primary_inputs().size()) return false;
  }
  rtv::ClsSimulator sa(a);
  rtv::ClsSimulator sb(b);
  sa.reset_to_all_x();
  sb.reset_to_all_x();
  for (const auto& cycle : inputs) {
    if (sa.step(cycle) != sb.step(cycle)) return true;
  }
  return false;
}

std::optional<TritsSeq> cosim_witness(const Netlist& a, const Netlist& b,
                                      std::uint64_t seed, unsigned sequences,
                                      unsigned length) {
  rtv::Rng rng(seed);
  const std::size_t inputs = a.primary_inputs().size();
  std::vector<TritsSeq> tests(sequences, TritsSeq(length));
  for (TritsSeq& test : tests) {
    for (auto& cycle : test) {
      cycle.resize(inputs);
      // Mostly definite inputs: X inputs rarely expose a difference.
      for (Trit& t : cycle) {
        const std::uint64_t r = rng.below(8);
        t = r == 0 ? Trit::kX : (r % 2 == 0 ? Trit::kZero : Trit::kOne);
      }
    }
  }
  const rtv::PackedResponses ra = rtv::packed_cls_responses(a, tests);
  const rtv::PackedResponses rb = rtv::packed_cls_responses(b, tests);
  const std::size_t outputs = a.primary_outputs().size();
  for (unsigned lane = 0; lane < sequences; ++lane) {
    const Trit* da = ra.lane_data(lane);
    const Trit* db = rb.lane_data(lane);
    for (std::size_t cycle = 0; cycle < length; ++cycle) {
      bool differ = false;
      for (std::size_t o = 0; o < outputs; ++o) {
        differ |= da[cycle * outputs + o] != db[cycle * outputs + o];
      }
      if (!differ) continue;
      TritsSeq witness(tests[lane].begin(),
                       tests[lane].begin() + static_cast<std::ptrdiff_t>(cycle) + 1);
      // The packed simulator is part of the library: confirm on the
      // scalar one before trusting the witness as a known answer.
      if (cex_distinguishes(a, b, witness)) return witness;
      break;
    }
  }
  return std::nullopt;
}

const char* to_string(FailKind kind) {
  switch (kind) {
    case FailKind::kNone: return "none";
    case FailKind::kThrew: return "threw";
    case FailKind::kErrorEnvelope: return "error-envelope";
    case FailKind::kGateRejected: return "gate-rejected";
    case FailKind::kCexNoReplay: return "cex-no-replay";
    case FailKind::kContradictsKnown: return "contradicts-known-answer";
  }
  return "?";
}

const char* to_string(Defect defect) {
  switch (defect) {
    case Defect::kNone: return "unattributed";
    case Defect::kMultiplierMinAreaRejected: return "multiplier-min-area-rejected";
    case Defect::kSatUnsound: return "sat-unsound";
  }
  return "?";
}

Defect attribute(FailKind kind, const OpContext& context, const std::string& detail) {
  const bool min_area = context.objective == "min-area" ||
                        context.objective == "min-area-at-period";
  if (kind == FailKind::kGateRejected && min_area && context.family == "multiplier") {
    return Defect::kMultiplierMinAreaRejected;
  }
  if (context.backend != "sat") return Defect::kNone;
  // Attributed only where it was seen: the min-period and mutant pairs of
  // the multipliers. The same failure anywhere else is a new defect and
  // makes the run incorrect.
  const bool multiplier_pair =
      context.family == "multiplier" &&
      (context.objective == "min-period" || context.objective == "mutant");
  if (!multiplier_pair) return Defect::kNone;
  // The library's own InternalError, or the same unsoundness unreported: a
  // counterexample that does not replay, or a false proof.
  const bool self_reported =
      (kind == FailKind::kThrew || kind == FailKind::kErrorEnvelope) &&
      detail.find("counterexample that does not distinguish") != std::string::npos;
  if (self_reported || kind == FailKind::kContradictsKnown ||
      kind == FailKind::kCexNoReplay) {
    return Defect::kSatUnsound;
  }
  return Defect::kNone;
}

namespace {

std::string first_line(const std::string& text) {
  return text.substr(0, std::min(text.find('\n'), std::size_t{160}));
}

OpOutcome failure(OpOutcome outcome, FailKind kind, const OpContext& context,
                  std::string detail) {
  outcome.fail = kind;
  outcome.defect = attribute(kind, context, detail);
  outcome.detail = first_line(detail);
  return outcome;
}

}  // namespace

OpOutcome judge_equivalence(const Netlist& a, const Netlist& b,
                            const rtv::ClsEquivalenceResult& result,
                            KnownAnswer known, const OpContext& context) {
  OpOutcome outcome;
  outcome.verdict = rtv::to_string(result.verdict);
  outcome.equivalent = result.equivalent;
  outcome.governed = true;
  if (result.counterexample && !cex_distinguishes(a, b, *result.counterexample)) {
    return failure(outcome, FailKind::kCexNoReplay, context,
                   "counterexample does not replay: " +
                       rtv::sequence_to_string(*result.counterexample));
  }
  if (known == KnownAnswer::kEquivalent && !result.equivalent) {
    return failure(outcome, FailKind::kContradictsKnown, context,
                   "identity pair reported inequivalent");
  }
  if (known == KnownAnswer::kInequivalent && result.equivalent &&
      result.verdict == rtv::Verdict::kProven) {
    return failure(outcome, FailKind::kContradictsKnown, context,
                   "proved equivalent despite a replayed witness: " +
                       result.decided_reason);
  }
  return outcome;
}

OpOutcome judge_exception(const std::exception& error, FailKind kind,
                          const OpContext& context) {
  OpOutcome outcome;
  outcome.verdict = "error";
  return failure(outcome, kind, context, error.what());
}

void Ledger::record(const OpOutcome& outcome) {
  ++attempted_;
  if (outcome.governed) {
    ++governed_;
    if (outcome.verdict == "proven") ++proven_;
  }
  if (outcome.fail != FailKind::kNone) {
    ++failed_;
    ++by_kind_[static_cast<std::size_t>(outcome.fail)];
    ++by_defect_[static_cast<std::size_t>(outcome.defect)];
    if (outcome.defect == Defect::kNone) ++unattributed_;
    const std::string example = std::string(to_string(outcome.fail)) + " [" +
                                to_string(outcome.defect) + "] " + outcome.label +
                                ": " + outcome.detail;
    if (examples_.size() < 8 &&
        std::find(examples_.begin(), examples_.end(), example) == examples_.end()) {
      examples_.push_back(example);
    }
  }
  const std::string token = outcome.label + ":" + outcome.verdict +
                            (outcome.equivalent ? "=" : "!") + to_string(outcome.fail) + ";";
  fingerprint_ = fnv1a(token, fingerprint_);
}

std::size_t Ledger::failed_by(FailKind kind) const {
  return by_kind_[static_cast<std::size_t>(kind)];
}

std::size_t Ledger::failed_by(Defect defect) const {
  return by_defect_[static_cast<std::size_t>(defect)];
}

}  // namespace vb
