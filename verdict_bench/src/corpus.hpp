#pragma once
// The benchmark's designs: the repository's generators (src/gen) under
// short stable names, seeded random netlists, and the derived designs the
// workloads need (BLIF/RNL texts, retimed variants, one-gate mutants).

#include <cstdint>
#include <string>

#include "core/flow.hpp"
#include "netlist/netlist.hpp"
#include "util/rng.hpp"

namespace vb {

struct Design {
  std::string name;    ///< e.g. "s27", "mul4x1", "rand-117"
  std::string family;  ///< paper|iscas|adder|controller|multiplier|shift|random
  rtv::Netlist netlist;
};

/// Generator designs by name: s27, fig1, lfsr8, ring6, add<B>x<S>
/// (pipelined_adder), mul<B>x<R> (pipelined_multiplier), ctrl<W>
/// (controller_datapath). Throws std::invalid_argument on unknown names.
Design named_design(const std::string& name);

/// A seeded random_netlist with `gates` generated cells and gates/8
/// latches. The name records the size and seed.
Design random_design(std::uint64_t seed, unsigned gates, unsigned inputs,
                     unsigned outputs);

/// write_blif followed by read_blif; throws std::runtime_error when the
/// round trip changes the input, output, latch or gate count.
std::string blif_round_trip(const rtv::Netlist& netlist);

/// The optimized design of a flow with the given objective, gated by the
/// static fixpoint only (no state-space search), for building pairs.
rtv::Netlist retimed_variant(const rtv::Netlist& netlist,
                             rtv::FlowOptions::Objective objective);

/// Swaps one seeded gate of `netlist` to its dual (and<->or, nand<->nor,
/// xor<->xnor) through the .rnl text form. `attempt` selects among the
/// candidate gates. Returns the original when it has no such gate.
rtv::Netlist mutate_one_gate(const rtv::Netlist& netlist, std::uint64_t seed,
                             unsigned attempt);

const char* objective_name(rtv::FlowOptions::Objective objective);

}  // namespace vb
