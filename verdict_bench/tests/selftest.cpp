// Self-test of the benchmark's own logic: the tail-rank rule, failure
// accounting and defect attribution, the counterexample replay check, and
// span self times. Run it with `python3 verdict_bench/run.py --selftest`.

#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "checks.hpp"
#include "corpus.hpp"
#include "gen/paper_circuits.hpp"
#include "stats.hpp"
#include "trace.hpp"

namespace {

int failures = 0;

void expect(bool ok, const std::string& what) {
  if (!ok) {
    ++failures;
    std::printf("FAIL %s\n", what.c_str());
  }
}

bool near(double a, double b) { return std::fabs(a - b) < 1e-9; }

std::vector<double> iota(std::size_t n) {
  std::vector<double> v;
  for (std::size_t i = 1; i <= n; ++i) v.push_back(static_cast<double>(i));
  return v;
}

void tail_rank_rule() {
  // 100 samples: p90 is rank 90 with exactly 10 beyond; p95 would leave 5.
  vb::Tail t = vb::tail_percentile(iota(100));
  expect(t.percentile == 90 && near(t.value, 90) && t.beyond == 10 && t.samples == 100,
         "100 samples quote p90 with 10 beyond");
  // 1000 samples: p99 leaves exactly 10.
  t = vb::tail_percentile(iota(1000));
  expect(t.percentile == 99 && near(t.value, 990) && t.beyond == 10,
         "1000 samples quote p99");
  // 40 samples: p75 (rank 30, 10 beyond); p80 would leave 8.
  t = vb::tail_percentile(iota(40));
  expect(t.percentile == 75 && near(t.value, 30) && t.beyond == 10,
         "40 samples quote p75");
  // Too few for any tail: the median, with its short beyond count.
  t = vb::tail_percentile(iota(7));
  expect(t.percentile == 50 && near(t.value, 4) && t.beyond == 3,
         "7 samples fall back to the median");
  // Order of the input does not matter.
  std::vector<double> shuffled = iota(100);
  std::swap(shuffled[3], shuffled[97]);
  expect(near(vb::tail_percentile(shuffled).value, 90), "tail sorts its input");
  expect(near(vb::median({3, 1, 2}), 2) && near(vb::median({4, 1, 3, 2}), 2.5),
         "median of odd and even counts");
}

void failure_accounting() {
  vb::Ledger ledger;
  vb::OpOutcome ok;
  ok.label = "s27 min-area";
  ok.verdict = "proven";
  ok.governed = true;
  ok.equivalent = true;
  ledger.record(ok);
  const vb::OpContext mul_area{"multiplier", "min-area", "explicit"};
  vb::OpOutcome rejected;
  rejected.verdict = "bounded";
  rejected.governed = true;
  rejected.fail = vb::FailKind::kGateRejected;
  rejected.defect = vb::attribute(rejected.fail, mul_area, "");
  ledger.record(rejected);
  const vb::OpContext adder_sat{"adder", "min-period", "sat"};
  const vb::OpOutcome threw = vb::judge_exception(
      std::runtime_error("boom"), vb::FailKind::kThrew, adder_sat);
  ledger.record(threw);

  expect(ledger.attempted() == 3 && ledger.failed() == 2, "two of three ops failed");
  expect(ledger.governed() == 2 && ledger.proven() == 1, "one of two governed ops proven");
  expect(ledger.failed_by(vb::FailKind::kGateRejected) == 1 &&
             ledger.failed_by(vb::FailKind::kThrew) == 1,
         "failures counted by kind");
  expect(ledger.failed_by(vb::Defect::kMultiplierMinAreaRejected) == 1,
         "multiplier min-area rejection attributed");
  expect(ledger.unattributed() == 1, "a throw on an adder is not a catalogued defect");

  // Attribution needs the whole context and the message.
  const std::string bad_cex =
      "equivalence backend 'sat' returned a counterexample that does not "
      "distinguish the designs: 10.01";
  expect(vb::attribute(vb::FailKind::kThrew, {"multiplier", "min-period", "sat"}, bad_cex) ==
             vb::Defect::kSatUnsound,
         "sat's non-distinguishing counterexample attributed");
  expect(vb::attribute(vb::FailKind::kThrew, {"multiplier", "mutant", "sat"}, bad_cex) ==
             vb::Defect::kSatUnsound,
         "sat's non-distinguishing counterexample on a multiplier mutant attributed");
  expect(vb::attribute(vb::FailKind::kThrew, {"multiplier", "min-period", "sat"}, "boom") ==
             vb::Defect::kNone,
         "any other sat throw not attributed");
  for (const char* family : {"paper", "iscas", "random"}) {
    expect(vb::attribute(vb::FailKind::kThrew, {family, "min-period", "sat"}, bad_cex) ==
               vb::Defect::kNone,
           std::string("sat's non-distinguishing counterexample on a ") + family +
               " design not attributed");
  }
  // Silent unsoundness counts as known only on the multiplier pairs.
  expect(vb::attribute(vb::FailKind::kContradictsKnown, {"multiplier", "mutant", "sat"},
                       "proved equivalent despite a replayed witness") ==
             vb::Defect::kSatUnsound,
         "sat false proof on a multiplier mutant attributed");
  for (const char* family : {"paper", "iscas", "random"}) {
    expect(vb::attribute(vb::FailKind::kContradictsKnown, {family, "mutant", "sat"},
                         "proved equivalent despite a replayed witness") ==
               vb::Defect::kNone,
           std::string("sat false proof on a ") + family + " design not attributed");
    expect(vb::attribute(vb::FailKind::kCexNoReplay, {family, "min-period", "sat"},
                         "counterexample does not replay") == vb::Defect::kNone,
           std::string("sat non-replaying counterexample on a ") + family +
               " design not attributed");
  }
  expect(vb::attribute(vb::FailKind::kContradictsKnown, {"multiplier", "identity", "sat"},
                       "identity pair reported inequivalent") == vb::Defect::kNone,
         "sat contradiction on a multiplier identity pair not attributed");
  expect(vb::attribute(vb::FailKind::kThrew, {"multiplier", "min-period", "bdd"}, bad_cex) ==
             vb::Defect::kNone,
         "bdd throw not attributed to the sat defect");
  expect(vb::attribute(vb::FailKind::kGateRejected, {"multiplier", "min-period", "explicit"},
                       "") == vb::Defect::kNone,
         "min-period rejection not attributed to the min-area defect");
  expect(vb::attribute(vb::FailKind::kGateRejected, {"random", "min-area", "explicit"}, "") ==
             vb::Defect::kNone,
         "min-area rejection of a random design not attributed");

  // The fingerprint depends on order and content.
  vb::Ledger a, b;
  a.record(ok);
  a.record(rejected);
  b.record(rejected);
  b.record(ok);
  expect(a.fingerprint() != b.fingerprint(), "fingerprint is order-sensitive");
  vb::Ledger c;
  c.record(ok);
  c.record(rejected);
  expect(a.fingerprint() == c.fingerprint(), "fingerprint is deterministic");
}

void replay_catches_corrupted_counterexample() {
  // A one-gate mutant of Figure 1's design D, told apart by co-simulation.
  const rtv::Netlist d = rtv::figure1_original();
  std::optional<rtv::TritsSeq> witness;
  rtv::Netlist mutant;
  for (unsigned attempt = 0; attempt < 8 && !witness; ++attempt) {
    mutant = vb::mutate_one_gate(d, 11, attempt);
    witness = vb::cosim_witness(d, mutant, 5);
  }
  expect(witness.has_value(), "co-simulation finds a witness for a mutant of D");
  if (!witness) return;
  expect(vb::cex_distinguishes(d, mutant, *witness), "the witness replays");
  expect(!vb::cex_distinguishes(d, d, *witness), "no sequence distinguishes D from itself");

  const vb::OpContext ctx{"paper", "mutant", "explicit"};
  rtv::ClsEquivalenceResult claimed;
  claimed.equivalent = false;
  claimed.verdict = rtv::Verdict::kProven;
  claimed.counterexample = *witness;
  vb::OpOutcome o = vb::judge_equivalence(d, mutant, claimed,
                                          vb::KnownAnswer::kInequivalent, ctx);
  expect(o.fail == vb::FailKind::kNone, "a genuine counterexample passes");

  // Corrupt it: the same sequence against the unmutated design.
  o = vb::judge_equivalence(d, d, claimed, vb::KnownAnswer::kEquivalent, ctx);
  expect(o.fail == vb::FailKind::kCexNoReplay, "a non-distinguishing counterexample is caught");
  // Corrupt it differently: wrong input width.
  rtv::ClsEquivalenceResult widened = claimed;
  widened.counterexample->front().push_back(rtv::Trit::kZero);
  o = vb::judge_equivalence(d, mutant, widened, vb::KnownAnswer::kInequivalent, ctx);
  expect(o.fail == vb::FailKind::kCexNoReplay, "a malformed counterexample is caught");

  // A proof of equivalence against a replayed witness contradicts it.
  rtv::ClsEquivalenceResult proof;
  proof.equivalent = true;
  proof.verdict = rtv::Verdict::kProven;
  o = vb::judge_equivalence(d, mutant, proof, vb::KnownAnswer::kInequivalent, ctx);
  expect(o.fail == vb::FailKind::kContradictsKnown, "a false proof is caught");
  // A bounded "no difference seen" is evidence, not a contradiction.
  proof.verdict = rtv::Verdict::kBounded;
  o = vb::judge_equivalence(d, mutant, proof, vb::KnownAnswer::kInequivalent, ctx);
  expect(o.fail == vb::FailKind::kNone, "a bounded miss is not a contradiction");
}

void span_self_times() {
  vb::Tracer tracer(true);
  const auto t0 = vb::Clock::now();
  const auto ms = [&](int n) { return t0 + std::chrono::milliseconds(n); };
  const int root = tracer.record("op", 0, -1, ms(0), ms(10));
  tracer.record("a", 0, root, ms(1), ms(4));
  tracer.record("b", 0, root, ms(3), ms(6));  // overlaps a by 1 ms
  const auto self = tracer.self_times();
  expect(near(self.at("op").total_ms, 5.0), "root self time subtracts the union of children");
  expect(near(tracer.unaccounted_share("op"), 0.5), "unaccounted share of the root");
  expect(tracer.chrome_json().find("\"ph\": \"X\"") != std::string::npos,
         "Chrome trace uses complete events");
  vb::Tracer off(false);
  { vb::Span s(off, "op", 0); }
  expect(off.spans().empty(), "a disabled tracer records nothing");
}

}  // namespace

int main() {
  tail_rank_rule();
  failure_accounting();
  replay_catches_corrupted_counterexample();
  span_self_times();
  std::printf("%s (%d failures)\n", failures == 0 ? "selftest ok" : "selftest FAILED",
              failures);
  return failures == 0 ? 0 : 1;
}
