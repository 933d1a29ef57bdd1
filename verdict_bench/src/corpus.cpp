#include "corpus.hpp"

#include <regex>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "gen/datapath.hpp"
#include "gen/iscas.hpp"
#include "gen/paper_circuits.hpp"
#include "gen/random_circuits.hpp"
#include "gen/shift.hpp"
#include "io/blif.hpp"
#include "io/rnl_format.hpp"

namespace vb {

using rtv::Netlist;

Design named_design(const std::string& name) {
  std::smatch m;
  static const std::regex kSized("(add|mul|ctrl)(\\d+)(?:x(\\d+))?");
  if (name == "s27") return {name, "iscas", rtv::iscas_s27()};
  if (name == "fig1") return {name, "paper", rtv::figure1_original()};
  if (name == "lfsr8") return {name, "shift", rtv::lfsr(8, {0, 3, 5, 7})};
  if (name == "ring6") return {name, "shift", rtv::twisted_ring(6)};
  if (std::regex_match(name, m, kSized)) {
    const unsigned a = static_cast<unsigned>(std::stoul(m[2]));
    const unsigned b = m[3].matched ? static_cast<unsigned>(std::stoul(m[3])) : 0;
    if (m[1] == "add" && b > 0) return {name, "adder", rtv::pipelined_adder(a, b)};
    if (m[1] == "mul" && b > 0) {
      return {name, "multiplier", rtv::pipelined_multiplier(a, b)};
    }
    if (m[1] == "ctrl" && b == 0) {
      return {name, "controller", rtv::controller_datapath(a)};
    }
  }
  throw std::invalid_argument("unknown design name: " + name);
}

Design random_design(std::uint64_t seed, unsigned gates, unsigned inputs,
                     unsigned outputs) {
  rtv::Rng rng(seed);
  rtv::RandomCircuitOptions options;
  options.num_gates = gates;
  options.num_latches = gates / 8;
  options.num_inputs = inputs;
  options.num_outputs = outputs;
  options.max_fanin = 3;
  std::ostringstream name;
  name << "rand-" << gates << "-" << std::hex << (seed & 0xffff);
  return {name.str(), "random", rtv::random_netlist(options, rng)};
}

std::string blif_round_trip(const Netlist& netlist) {
  std::string text = rtv::write_blif(netlist);
  const Netlist back = rtv::read_blif(text).netlist;
  if (back.primary_inputs().size() != netlist.primary_inputs().size() ||
      back.primary_outputs().size() != netlist.primary_outputs().size() ||
      back.num_latches() != netlist.num_latches()) {
    throw std::runtime_error("BLIF round trip changed the design's interface");
  }
  return text;
}

Netlist retimed_variant(const Netlist& netlist,
                        rtv::FlowOptions::Objective objective) {
  rtv::FlowOptions options;
  options.objective = objective;
  options.verify.backend = rtv::EquivalenceBackend::kStatic;
  return rtv::run_synthesis_flow(netlist, options).optimized;
}

Netlist mutate_one_gate(const Netlist& netlist, std::uint64_t seed,
                        unsigned attempt) {
  std::string text = rtv::write_rnl(netlist);
  static const std::regex kGate(
      "\nnode (\\S+) (and|or|nand|nor|xor|xnor) (\\d+)\n");
  std::vector<std::pair<std::size_t, std::string>> sites;  // offset, kind
  for (auto it = std::sregex_iterator(text.begin(), text.end(), kGate);
       it != std::sregex_iterator(); ++it) {
    sites.emplace_back(static_cast<std::size_t>(it->position(2)), (*it)[2]);
  }
  if (sites.empty()) return netlist;
  rtv::Rng rng(seed);
  rng.shuffle(sites);
  const auto& [offset, kind] = sites[attempt % sites.size()];
  static const std::pair<const char*, const char*> kDual[] = {
      {"and", "or"}, {"or", "and"}, {"nand", "nor"},
      {"nor", "nand"}, {"xor", "xnor"}, {"xnor", "xor"}};
  for (const auto& [from, to] : kDual) {
    if (kind == from) {
      text.replace(offset, kind.size(), to);
      break;
    }
  }
  return rtv::read_rnl(text);
}

const char* objective_name(rtv::FlowOptions::Objective objective) {
  switch (objective) {
    case rtv::FlowOptions::Objective::kMinArea: return "min-area";
    case rtv::FlowOptions::Objective::kMinPeriod: return "min-period";
    case rtv::FlowOptions::Objective::kMinAreaAtMinPeriod:
      return "min-area-at-period";
    case rtv::FlowOptions::Objective::kNone: return "none";
  }
  return "?";
}

}  // namespace vb
