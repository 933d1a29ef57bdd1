#pragma once
// Correctness checks that do not trust the code under test, and the
// failure accounting behind failed/failed_share.
//
// * Every counterexample an op returns is replayed here on two fresh
//   ClsSimulator instances; one that does not make the CLS outputs differ
//   is a failure of the op, whatever the engine claimed.
// * Equivalence pairs carry a known answer fixed at set-up: identity pairs
//   are equivalent; a pair is inequivalent once a seeded packed-CLS
//   co-simulation has found a distinguishing sequence (the witness is then
//   itself replayed on ClsSimulator). A proof contradicting a known answer
//   is a failure.
// * Each failure is attributed to one catalogued defect of the library
//   when it matches one; a failure that matches none makes the run
//   incorrect.

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/cls_equiv.hpp"
#include "netlist/netlist.hpp"
#include "sim/vectors.hpp"

namespace vb {

/// True iff the CLS output sequences of `a` and `b`, both started all-X,
/// differ somewhere along `inputs` (replayed on rtv::ClsSimulator).
bool cex_distinguishes(const rtv::Netlist& a, const rtv::Netlist& b,
                       const rtv::TritsSeq& inputs);

/// Seeded 64-lane packed-CLS co-simulation of `a` and `b` over
/// `sequences` random ternary input sequences of `length` cycles; returns
/// the first sequence (truncated at the first differing cycle) whose CLS
/// outputs differ, confirmed by cex_distinguishes.
std::optional<rtv::TritsSeq> cosim_witness(const rtv::Netlist& a,
                                           const rtv::Netlist& b,
                                           std::uint64_t seed,
                                           unsigned sequences = 256,
                                           unsigned length = 16);

enum class KnownAnswer { kUnknown, kEquivalent, kInequivalent };

/// Why an op counts as failed (kNone = it did not).
enum class FailKind {
  kNone,
  kThrew,             ///< the call threw
  kErrorEnvelope,     ///< serve answered with an error envelope
  kGateRejected,      ///< a flow's own CLS gate rejected its result
  kCexNoReplay,       ///< a returned counterexample does not distinguish
  kContradictsKnown,  ///< a proof contradicts the pair's known answer
};
const char* to_string(FailKind kind);

/// Catalogued library defects a failure may be attributed to.
enum class Defect {
  kNone,
  /// Min-area (and min-area-at-min-period) retimings of
  /// pipelined_multiplier are rejected by the flow's own CLS gate with a
  /// length-1 counterexample.
  kMultiplierMinAreaRejected,
  /// The SAT backend returns counterexamples that do not distinguish the
  /// designs (InternalError, or caught by the replay check) and closes
  /// k-induction on pairs a replayed witness distinguishes. Seen on the
  /// min-period and one-gate-mutant pairs of pipelined_multiplier.
  kSatUnsound,
};
const char* to_string(Defect defect);

/// What the op was, as far as attribution needs to know.
struct OpContext {
  std::string family;     ///< design family, e.g. "multiplier", "random"
  std::string objective;  ///< "min-area", "min-period", "min-area-at-period", "" for none
  std::string backend;    ///< equivalence backend asked for
};

/// The catalogued defect a failure matches, from what the op was and the
/// failure's message.
Defect attribute(FailKind kind, const OpContext& context, const std::string& detail);

/// One op's judged result.
struct OpOutcome {
  std::string verdict = "none";  ///< proven|bounded|exhausted|none|error
  bool equivalent = false;
  bool governed = false;  ///< the op carries a verdict on the ladder
  FailKind fail = FailKind::kNone;
  Defect defect = Defect::kNone;
  std::string detail;  ///< first line of the failure message, if any
  std::string label;   ///< what the op was, e.g. "add4x2 identity bdd"
};

/// Judges an equivalence result against the replay check and the pair's
/// known answer.
OpOutcome judge_equivalence(const rtv::Netlist& a, const rtv::Netlist& b,
                            const rtv::ClsEquivalenceResult& result,
                            KnownAnswer known, const OpContext& context);

/// Failure for a call that threw.
OpOutcome judge_exception(const std::exception& error, FailKind kind,
                          const OpContext& context);

/// Running tally of judged ops in schedule order.
class Ledger {
 public:
  void record(const OpOutcome& outcome);

  std::size_t attempted() const { return attempted_; }
  std::size_t failed() const { return failed_; }
  /// Failures not attributable to any catalogued defect.
  std::size_t unattributed() const { return unattributed_; }
  std::size_t governed() const { return governed_; }
  std::size_t proven() const { return proven_; }
  std::size_t failed_by(FailKind kind) const;
  std::size_t failed_by(Defect defect) const;
  /// Hash of the ordered (label, verdict, equivalent, failure) tuples.
  std::uint64_t fingerprint() const { return fingerprint_; }
  /// A few distinct failure details, for the human-readable report.
  const std::vector<std::string>& examples() const { return examples_; }

 private:
  std::size_t attempted_ = 0;
  std::size_t failed_ = 0;
  std::size_t unattributed_ = 0;
  std::size_t governed_ = 0;
  std::size_t proven_ = 0;
  std::vector<std::size_t> by_kind_ = std::vector<std::size_t>(6, 0);
  std::vector<std::size_t> by_defect_ = std::vector<std::size_t>(3, 0);
  std::uint64_t fingerprint_ = 0xcbf29ce484222325ULL;
  std::vector<std::string> examples_;
};

}  // namespace vb
