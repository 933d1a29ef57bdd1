#include "core/certificate.hpp"

#include <optional>
#include <sstream>
#include <unordered_map>

#include "aig/cls_encode.hpp"
#include "aig/compile.hpp"
#include "sat/solver.hpp"

namespace rtv {

namespace {

constexpr std::size_t kNpos = static_cast<std::size_t>(-1);

std::string node_label(const Netlist& n, NodeId id) {
  const std::string& name = n.name(id);
  return name.empty() ? "#" + std::to_string(id.value) : "'" + name + "'";
}

std::string cell_label(const Netlist& n, NodeId id) {
  return std::string(cell_kind_name(n.kind(id))) + " cell " + node_label(n, id);
}

FlowCertificate refuse(std::string why) {
  return {CertificateStatus::kRefused, std::move(why)};
}

FlowCertificate exhausted() {
  return {CertificateStatus::kExhausted, "budget exhausted"};
}

// ---- retiming leg ---------------------------------------------------------

/// The non-latch driver behind `port` and the latch count on the way;
/// nullopt on a latch-only loop.
std::optional<std::pair<PortRef, std::size_t>> through_latches(
    const Netlist& n, PortRef port) {
  std::size_t latches = 0;
  while (n.kind(port.node) == CellKind::kLatch) {
    if (++latches > n.num_latches()) return std::nullopt;
    port = n.node(port.node).fanin[0];
  }
  return std::make_pair(port, latches);
}

/// Rank of every live non-latch node in slot order (kNpos elsewhere).
/// Compaction and latch insertion preserve this order, so the ranks pair
/// up the cells of a replayed netlist with those of its compacted copy.
std::vector<std::size_t> cell_ranks(const Netlist& n, std::size_t& count) {
  std::vector<std::size_t> rank(n.num_slots(), kNpos);
  count = 0;
  for (std::uint32_t i = 0; i < n.num_slots(); ++i) {
    const NodeId id(i);
    if (!n.is_dead(id) && n.kind(id) != CellKind::kLatch) rank[i] = count++;
  }
  return rank;
}

/// Why `a` and `b` are not the same cells with the same latch count on
/// every wire, or nullopt when they are.
std::optional<std::string> structural_difference(const Netlist& a,
                                                 const Netlist& b) {
  std::ostringstream os;
  if (a.num_latches() != b.num_latches()) {
    os << a.num_latches() << " latches after replay, " << b.num_latches()
       << " claimed";
    return os.str();
  }
  std::size_t count_a = 0, count_b = 0;
  const std::vector<std::size_t> rank_a = cell_ranks(a, count_a);
  const std::vector<std::size_t> rank_b = cell_ranks(b, count_b);
  if (count_a != count_b) {
    os << count_a << " cells after replay, " << count_b << " claimed";
    return os.str();
  }
  std::vector<NodeId> cells_b(count_b);
  for (std::uint32_t i = 0; i < b.num_slots(); ++i) {
    if (rank_b[i] != kNpos) cells_b[rank_b[i]] = NodeId(i);
  }
  const auto same_list = [&](const std::vector<NodeId>& la,
                             const std::vector<NodeId>& lb) {
    if (la.size() != lb.size()) return false;
    for (std::size_t i = 0; i < la.size(); ++i) {
      if (rank_a[la[i].value] != rank_b[lb[i].value]) return false;
    }
    return true;
  };
  if (!same_list(a.primary_inputs(), b.primary_inputs()) ||
      !same_list(a.primary_outputs(), b.primary_outputs())) {
    return std::string("primary inputs or outputs differ");
  }
  for (std::uint32_t i = 0; i < a.num_slots(); ++i) {
    if (rank_a[i] == kNpos) continue;
    const NodeId ia(i), ib = cells_b[rank_a[i]];
    const Node& na = a.node(ia);
    const Node& nb = b.node(ib);
    if (na.kind != nb.kind || na.num_pins() != nb.num_pins() ||
        na.num_ports() != nb.num_ports() ||
        (na.kind == CellKind::kTable &&
         a.table(na.table) != b.table(nb.table))) {
      return cell_label(a, ia) + " differs from the claimed " +
             cell_label(b, ib);
    }
    for (std::uint32_t pin = 0; pin < na.num_pins(); ++pin) {
      const auto wa = through_latches(a, na.fanin[pin]);
      const auto wb = through_latches(b, nb.fanin[pin]);
      if (!wa || !wb || rank_a[wa->first.node.value] !=
                            rank_b[wb->first.node.value] ||
          wa->first.port != wb->first.port || wa->second != wb->second) {
        os << "the wire into pin " << pin << " of " << cell_label(a, ia)
           << " differs from the claimed netlist";
        if (wa && wb) {
          os << " (" << wa->second << " latches after replay, " << wb->second
             << " claimed)";
        }
        return os.str();
      }
    }
  }
  return std::nullopt;
}

/// Thm 5.1's precondition on every move, then the replay (Cor 5.2).
FlowCertificate check_retiming(const Netlist& cleaned,
                               const std::vector<RetimingMove>& moves,
                               const Netlist& claimed) {
  const auto describe = [&](std::size_t i) {
    return "move " + std::to_string(i) + " (" +
           to_string(moves[i].direction) + " across " +
           cell_label(cleaned, moves[i].element) + ")";
  };
  for (std::size_t i = 0; i < moves.size(); ++i) {
    const NodeId e = moves[i].element;
    if (!e.valid() || e.value >= cleaned.num_slots() || cleaned.is_dead(e) ||
        !is_combinational(cleaned.kind(e))) {
      return refuse("move " + std::to_string(i) +
                    " names no combinational cell of the cleaned netlist");
    }
    if (!cleaned.preserves_all_x(e)) {
      return refuse(describe(i) +
                    ": the cell does not map all-X to all-X (outside Thm 5.1)");
    }
  }
  Netlist replayed = cleaned;
  for (std::size_t i = 0; i < moves.size(); ++i) {
    if (!can_apply(replayed, moves[i])) {
      return refuse(describe(i) + " is not enabled at its position");
    }
    apply_move(replayed, moves[i]);
  }
  if (const auto diff = structural_difference(replayed, claimed)) {
    return refuse("the replayed moves do not reproduce the claimed netlist: " +
                  *diff);
  }
  return {CertificateStatus::kProven,
          std::to_string(moves.size()) +
              " retiming moves replayed across all-X-preserving cells "
              "(Cor 5.2)"};
}

// ---- cleanup leg ----------------------------------------------------------

std::uint64_t port_key(PortRef p) {
  return (static_cast<std::uint64_t>(p.node.value) << 32) | p.port;
}

struct KeyHash {
  std::size_t operator()(const std::vector<std::uint64_t>& key) const {
    std::uint64_t h = 1469598103934665603ull;  // FNV-1a over the words
    for (const std::uint64_t w : key) {
      h ^= w;
      h *= 1099511628211ull;
    }
    return static_cast<std::size_t>(h);
  }
};

/// The cut miter: one combinational netlist over shared variables in which
/// structurally identical cells of both netlists are one node. BUF and JUNC
/// are transparent; latches are cut into variables chosen by the caller.
class ConeHasher {
 public:
  explicit ConeHasher(std::size_t variables) {
    for (std::size_t i = 0; i < variables; ++i) {
      vars_.emplace_back(miter_.add_input(), 0);
    }
  }

  /// Maps every port of `n` into the miter (result[slot][port]). Primary
  /// input k is variable k; latch k is variable latch_var[k].
  std::vector<std::vector<PortRef>> add(
      const Netlist& n, const std::vector<std::size_t>& latch_var) {
    std::vector<std::vector<PortRef>> ports(n.num_slots());
    for (std::size_t k = 0; k < n.primary_inputs().size(); ++k) {
      ports[n.primary_inputs()[k].value] = {vars_[k]};
    }
    for (std::size_t k = 0; k < n.latches().size(); ++k) {
      ports[n.latches()[k].value] = {vars_[latch_var[k]]};
    }
    std::vector<std::uint32_t> tables(n.num_tables(), TableId::kNpos);
    std::vector<std::uint64_t> key;
    for (const NodeId id : combinational_topo_order(n)) {
      const Node& node = n.node(id);
      if (!is_combinational(node.kind)) continue;
      const auto in = [&](std::uint32_t pin) {
        const PortRef f = node.fanin[pin];
        return ports[f.node.value][f.port];
      };
      std::vector<PortRef>& out = ports[id.value];
      if (node.kind == CellKind::kBuf || node.kind == CellKind::kJunc) {
        out.assign(node.num_ports(), in(0));
        continue;
      }
      key.assign(1, static_cast<std::uint64_t>(node.kind));
      if (node.kind == CellKind::kTable) {
        std::uint32_t& t = tables[node.table.value];
        if (t == TableId::kNpos) {
          t = miter_.add_table(n.table(node.table)).value;
        }
        key.push_back(t);
      }
      for (std::uint32_t pin = 0; pin < node.num_pins(); ++pin) {
        key.push_back(port_key(in(pin)));
      }
      auto [it, fresh] = cells_.try_emplace(key);
      if (fresh) {
        NodeId g;
        switch (node.kind) {
          case CellKind::kConst0:
          case CellKind::kConst1:
            g = miter_.add_const(node.kind == CellKind::kConst1);
            break;
          case CellKind::kTable:
            g = miter_.add_table_cell(
                TableId(static_cast<std::uint32_t>(key[1])));
            break;
          default:
            g = miter_.add_gate(
                node.kind, is_variadic_gate(node.kind) ? node.num_pins() : 0);
            break;
        }
        for (std::uint32_t pin = 0; pin < node.num_pins(); ++pin) {
          miter_.connect(in(pin), PinRef(g, pin));
        }
        it->second = g;
      }
      out.clear();
      for (std::uint32_t p = 0; p < node.num_ports(); ++p) {
        out.emplace_back(it->second, p);
      }
    }
    return ports;
  }

  Netlist& miter() { return miter_; }

 private:
  Netlist miter_;
  std::vector<PortRef> vars_;
  std::unordered_map<std::vector<std::uint64_t>, NodeId, KeyHash> cells_;
};

/// Lazily Tseitin-encodes AIG cones into an incremental solver.
class ConeCnf {
 public:
  ConeCnf(const Aig& aig, sat::Solver& solver)
      : aig_(aig), solver_(solver), lits_(aig.num_vars(), sat::kLitUndef) {}

  /// Solver literal of `l`, encoding whatever of its cone is still new.
  sat::Lit lit(Aig::Lit l) {
    std::vector<Aig::Var> stack{Aig::lit_var(l)}, cone;
    while (!stack.empty()) {
      const Aig::Var v = stack.back();
      stack.pop_back();
      if (lits_[v] != sat::kLitUndef) continue;
      lits_[v] = sat::mk_lit(solver_.new_var());
      cone.push_back(v);
      if (aig_.is_and(v)) {
        stack.push_back(Aig::lit_var(aig_.fanin0(v)));
        stack.push_back(Aig::lit_var(aig_.fanin1(v)));
      }
    }
    for (const Aig::Var v : cone) {
      const sat::Lit x = lits_[v];
      if (aig_.kind(v) == Aig::NodeKind::kConst) {
        solver_.add_clause({sat::neg(x)});
      } else if (aig_.is_and(v)) {
        const sat::Lit a = known(aig_.fanin0(v));
        const sat::Lit b = known(aig_.fanin1(v));
        solver_.add_clause({sat::neg(x), a});
        solver_.add_clause({sat::neg(x), b});
        solver_.add_clause({x, sat::neg(a), sat::neg(b)});
      }
    }
    return known(l);
  }

 private:
  sat::Lit known(Aig::Lit l) const {
    return lits_[Aig::lit_var(l)] ^ (Aig::lit_negated(l) ? 1u : 0u);
  }

  const Aig& aig_;
  sat::Solver& solver_;
  std::vector<sat::Lit> lits_;
};

/// One PO or matched next-state: the two miter ports that must agree.
struct Cone {
  PortRef design;
  PortRef cleaned;
  std::string what;
};

FlowCertificate check_cleanup(const Netlist& design,
                              const FlowWitness& witness,
                              ResourceBudget* budget) {
  const Netlist& cleaned = witness.cleaned;
  const std::size_t num_pis = design.primary_inputs().size();
  if (num_pis != cleaned.primary_inputs().size() ||
      design.primary_outputs().size() != cleaned.primary_outputs().size()) {
    return refuse("the cleanup changed the primary interface");
  }
  if (witness.latch_map.size() != design.num_latches()) {
    return refuse("the latch correspondence does not cover the design");
  }

  // Variables: the PIs, one per cleaned latch (shared with its original),
  // then one free variable per removed original latch.
  std::vector<std::size_t> cleaned_index(cleaned.num_slots(), kNpos);
  for (std::size_t k = 0; k < cleaned.num_latches(); ++k) {
    cleaned_index[cleaned.latches()[k].value] = k;
  }
  std::vector<std::size_t> design_var(design.num_latches());
  std::vector<std::size_t> cleaned_var(cleaned.num_latches(), kNpos);
  std::size_t next_free = num_pis + cleaned.num_latches();
  for (std::size_t k = 0; k < design.num_latches(); ++k) {
    const NodeId m = witness.latch_map[k];
    if (!m.valid()) {
      design_var[k] = next_free++;
      continue;
    }
    const std::size_t c =
        m.value < cleaned.num_slots() ? cleaned_index[m.value] : kNpos;
    if (c == kNpos || cleaned_var[c] != kNpos) {
      return refuse("latch " + node_label(design, design.latches()[k]) +
                    " maps to no latch of the cleaned netlist, or to one "
                    "already taken");
    }
    cleaned_var[c] = design_var[k] = num_pis + c;
  }
  for (std::size_t c = 0; c < cleaned.num_latches(); ++c) {
    if (cleaned_var[c] == kNpos) {
      return refuse("latch " + node_label(cleaned, cleaned.latches()[c]) +
                    " of the cleaned netlist has no original");
    }
  }

  ConeHasher hasher(next_free);
  const auto ports_d = hasher.add(design, design_var);
  const auto ports_c = hasher.add(cleaned, cleaned_var);
  const auto driver = [](const std::vector<std::vector<PortRef>>& ports,
                         const Netlist& n, NodeId sink) {
    const PortRef f = n.node(sink).fanin[0];
    return ports[f.node.value][f.port];
  };

  std::vector<Cone> open;
  std::size_t cones = 0;
  const auto add_cone = [&](PortRef d, PortRef c, std::string what) {
    ++cones;
    if (d != c) open.push_back({d, c, std::move(what)});
  };
  for (std::size_t k = 0; k < design.primary_outputs().size(); ++k) {
    const NodeId po = design.primary_outputs()[k];
    add_cone(driver(ports_d, design, po),
             driver(ports_c, cleaned, cleaned.primary_outputs()[k]),
             "primary output " + node_label(design, po));
  }
  std::size_t swept = 0;
  for (std::size_t k = 0; k < design.num_latches(); ++k) {
    const NodeId l = design.latches()[k];
    if (!witness.latch_map[k].valid()) {
      ++swept;
      continue;
    }
    add_cone(driver(ports_d, design, l),
             driver(ports_c, cleaned, witness.latch_map[k]),
             "next state of latch " + node_label(design, l));
  }

  // The open cones, under the exact per-cell dual-rail encoding. The cut
  // latches are inputs of the miter, so their rails are masked like the PI
  // rails and range over all three values.
  if (!open.empty()) {
    Netlist& miter = hasher.miter();
    for (const Cone& cone : open) {
      for (const PortRef p : {cone.design, cone.cleaned}) {
        miter.connect(p, PinRef(miter.add_output(), 0));
      }
    }
    Aig aig = aig_from_netlist(cls_encode(miter).netlist, Bits{});
    std::vector<Aig::Lit> differs;
    for (std::size_t t = 0; t < open.size(); ++t) {
      const auto rail = [&](std::size_t side, std::size_t r) {
        return aig.output(4 * t + 2 * side + r);
      };
      differs.push_back(aig.lor(aig.lxor(rail(0, 0), rail(1, 0)),
                                aig.lxor(rail(0, 1), rail(1, 1))));
    }
    sat::Solver solver;
    ConeCnf cnf(aig, solver);
    for (std::size_t t = 0; t < open.size(); ++t) {
      if (differs[t] == Aig::kFalse) continue;  // merged by the AIG's strash
      if (budget != nullptr && !budget->checkpoint("certificate/sat")) {
        return exhausted();
      }
      switch (solver.solve({cnf.lit(differs[t])}, budget)) {
        case sat::Solver::Result::kUnsat:
          break;
        case sat::Solver::Result::kSat:
          return refuse("the " + open[t].what +
                        " has no counterpart in the cleaned netlist under "
                        "the latch correspondence");
        case sat::Solver::Result::kUnknown:
          return exhausted();
      }
    }
  }
  std::ostringstream os;
  os << "register correspondence (" << cleaned.num_latches()
     << " latches matched, " << swept << " swept; " << cones - open.size()
     << " of " << cones << " cones hashed, " << open.size()
     << " by SAT)";
  return {CertificateStatus::kProven, os.str()};
}

}  // namespace

FlowCertificate certify_flow(const Netlist& design, const FlowWitness& witness,
                             const Netlist& claimed, ResourceBudget* budget) {
  if (budget != nullptr && !budget->checkpoint("flow/certificate")) {
    return exhausted();
  }
  // The move scan is the cheapest refusal, so the retiming leg goes first.
  const FlowCertificate retiming =
      check_retiming(witness.cleaned, witness.moves, claimed);
  if (retiming.status != CertificateStatus::kProven) return retiming;
  const FlowCertificate cleanup = check_cleanup(design, witness, budget);
  if (cleanup.status != CertificateStatus::kProven) return cleanup;
  if (budget != nullptr && budget->exhausted()) return exhausted();
  return {CertificateStatus::kProven, cleanup.reason + "; " + retiming.reason};
}

}  // namespace rtv
