#pragma once
// Shared builders and assertion helpers for the test suite.

#include <string>

#include "netlist/netlist.hpp"
#include "sim/vectors.hpp"

namespace rtv::testing {

/// A 1-latch toggle: latch t, next = t XOR in, out = t.
/// (Junction-normal after junctionize; used as a tiny sequential fixture.)
inline Netlist toggle_circuit() {
  Netlist n;
  const NodeId in = n.add_input("in");
  const NodeId out = n.add_output("out");
  const NodeId t = n.add_latch("t");
  const NodeId x = n.add_gate(CellKind::kXor, 2, "x");
  n.connect(PortRef(t, 0), PinRef(x, 0));
  n.connect(PortRef(in, 0), PinRef(x, 1));
  n.connect(PortRef(x, 0), PinRef(t, 0));
  n.connect(PortRef(t, 0), PinRef(out, 0));
  n.junctionize();
  n.check_valid(true);
  return n;
}

/// Pure combinational: out = a AND b.
inline Netlist and2_circuit() {
  Netlist n;
  const NodeId a = n.add_input("a");
  const NodeId b = n.add_input("b");
  const NodeId o = n.add_output("o");
  const NodeId g = n.add_gate(CellKind::kAnd, 2, "g");
  n.connect(a, g, 0);
  n.connect(b, g, 1);
  n.connect(PortRef(g, 0), PinRef(o, 0));
  n.check_valid(true);
  return n;
}

/// Two-latch pipeline: in -> L0 -> NOT -> L1 -> out. Retimable both ways.
inline Netlist inverter_pipeline() {
  Netlist n;
  const NodeId in = n.add_input("in");
  const NodeId out = n.add_output("out");
  const NodeId l0 = n.add_latch("L0");
  const NodeId l1 = n.add_latch("L1");
  const NodeId inv = n.add_gate(CellKind::kNot, 0, "inv");
  n.connect(in, l0);
  n.connect(l0, inv);
  n.connect(inv, l1);
  n.connect(PortRef(l1, 0), PinRef(out, 0));
  n.check_valid(true);
  return n;
}

/// The toggle with its output gated by a constant: out = t AND 1. Constant
/// propagation rewrites the AND away, so the output cone of the cleaned
/// design no longer hashes like the original's.
inline Netlist constant_gated_toggle() {
  Netlist n;
  const NodeId in = n.add_input("in");
  const NodeId out = n.add_output("out");
  const NodeId t = n.add_latch("t");
  const NodeId x = n.add_gate(CellKind::kXor, 2, "x");
  const NodeId one = n.add_const(true, "one");
  const NodeId g = n.add_gate(CellKind::kAnd, 2, "g");
  n.connect(PortRef(t, 0), PinRef(x, 0));
  n.connect(PortRef(in, 0), PinRef(x, 1));
  n.connect(PortRef(x, 0), PinRef(t, 0));
  n.connect(PortRef(t, 0), PinRef(g, 0));
  n.connect(PortRef(one, 0), PinRef(g, 1));
  n.connect(PortRef(g, 0), PinRef(out, 0));
  n.junctionize();
  n.check_valid(true);
  return n;
}

}  // namespace rtv::testing
