#include "retime/graph.hpp"

#include <algorithm>
#include <sstream>

namespace rtv {

int vertex_delay(const Netlist& netlist, NodeId node, DelayModel model) {
  if (model == DelayModel::kZero) return 0;
  switch (netlist.kind(node)) {
    case CellKind::kBuf:
    case CellKind::kJunc:
    case CellKind::kConst0:
    case CellKind::kConst1:
      return 0;
    default:
      return 1;
  }
}

RetimeGraph RetimeGraph::from_netlist(const Netlist& netlist,
                                      DelayModel model) {
  RetimeGraph g;
  g.vertex_of_slot_.assign(netlist.num_slots(), 0);

  // Vertices 0/1 are the host source/sink (delay 0).
  g.delay_.push_back(0);
  g.origin_.push_back(NodeId());
  g.delay_.push_back(0);
  g.origin_.push_back(NodeId());
  for (std::uint32_t i = 0; i < netlist.num_slots(); ++i) {
    const NodeId id(i);
    if (netlist.is_dead(id) || !is_combinational(netlist.kind(id))) continue;
    g.vertex_of_slot_[i] = static_cast<std::uint32_t>(g.delay_.size());
    g.delay_.push_back(vertex_delay(netlist, id, model));
    g.origin_.push_back(id);
  }

  // One edge per wire chain ending at a combinational pin or a PO pin.
  // Walking backwards from the pin through the latch chain yields the
  // weight and the true source (combinational port, or PI -> host).
  const auto trace = [&](PinRef pin) -> Edge {
    Edge e;
    e.dst_pin = pin;
    e.to = is_combinational(netlist.kind(pin.node))
               ? g.vertex_of_slot_[pin.node.value]
               : kHostSink;  // primary output
    int latches = 0;
    PortRef drv = netlist.driver(pin);
    RTV_REQUIRE(drv.valid(), "retiming graph requires fully connected pins");
    while (netlist.kind(drv.node) == CellKind::kLatch) {
      ++latches;
      drv = netlist.driver(PinRef(drv.node, 0));
      RTV_REQUIRE(drv.valid(), "latch with unconnected data pin");
    }
    e.weight = latches;
    e.src_port = drv;
    e.from = is_combinational(netlist.kind(drv.node))
                 ? g.vertex_of_slot_[drv.node.value]
                 : kHostSource;  // primary input
    return e;
  };

  for (std::uint32_t i = 0; i < netlist.num_slots(); ++i) {
    const NodeId id(i);
    if (netlist.is_dead(id)) continue;
    const CellKind k = netlist.kind(id);
    if (k == CellKind::kLatch) continue;  // interior of a chain
    if (is_combinational(k) || k == CellKind::kOutput) {
      for (std::uint32_t pin = 0; pin < netlist.num_pins(id); ++pin) {
        g.edges_.push_back(trace(PinRef(id, pin)));
      }
    }
  }

  g.out_.assign(g.num_vertices(), {});
  g.in_.assign(g.num_vertices(), {});
  for (std::uint32_t i = 0; i < g.edges_.size(); ++i) {
    g.out_[g.edges_[i].from].push_back(i);
    g.in_[g.edges_[i].to].push_back(i);
  }
  return g;
}

std::uint32_t RetimeGraph::vertex_of(NodeId node) const {
  RTV_REQUIRE(node.valid() && node.value < vertex_of_slot_.size(),
              "node out of range");
  const std::uint32_t v = vertex_of_slot_[node.value];
  RTV_REQUIRE(v >= 2 && origin_[v] == node,
              "node has no retiming-graph vertex");
  return v;
}

std::int64_t RetimeGraph::total_weight() const {
  std::int64_t total = 0;
  for (const Edge& e : edges_) total += e.weight;
  return total;
}

int RetimeGraph::retimed_weight(std::size_t i,
                                const std::vector<int>& lag) const {
  const Edge& e = edges_[i];
  return e.weight + lag[e.to] - lag[e.from];
}

bool RetimeGraph::legal_retiming(const std::vector<int>& lag) const {
  RTV_REQUIRE(lag.size() == num_vertices(), "lag vector size mismatch");
  if (lag[kHostSource] != 0 || lag[kHostSink] != 0) return false;
  for (std::size_t i = 0; i < edges_.size(); ++i) {
    if (retimed_weight(i, lag) < 0) return false;
  }
  return true;
}

std::int64_t RetimeGraph::retimed_total_weight(
    const std::vector<int>& lag) const {
  std::int64_t total = 0;
  for (std::size_t i = 0; i < edges_.size(); ++i) {
    total += retimed_weight(i, lag);
  }
  return total;
}

std::vector<std::uint32_t> RetimeGraph::zero_weight_order(
    const std::vector<int>& lag) const {
  const bool use_lag = !lag.empty();
  if (use_lag) {
    RTV_REQUIRE(lag.size() == num_vertices(), "lag vector size mismatch");
  }
  const auto weight = [&](std::size_t i) {
    return use_lag ? retimed_weight(i, lag) : edges_[i].weight;
  };
  const std::uint32_t n = num_vertices();
  std::vector<std::uint32_t> indegree(n, 0);
  for (std::size_t i = 0; i < edges_.size(); ++i) {
    const int w = weight(i);
    RTV_REQUIRE(w >= 0, "zero_weight_order on an illegal retiming");
    if (w == 0) ++indegree[edges_[i].to];
  }
  std::vector<std::uint32_t> order;
  order.reserve(n);
  for (std::uint32_t v = 0; v < n; ++v) {
    if (indegree[v] == 0) order.push_back(v);
  }
  for (std::size_t k = 0; k < order.size(); ++k) {
    for (const std::uint32_t i : out_[order[k]]) {
      if (weight(i) == 0 && --indegree[edges_[i].to] == 0) {
        order.push_back(edges_[i].to);
      }
    }
  }
  RTV_CHECK_MSG(order.size() == n, "zero-weight subgraph has a cycle");
  return order;
}

int RetimeGraph::clock_period(const std::vector<int>& lag) const {
  // Longest path over the zero-weight subgraph in topological order.
  const std::vector<std::uint32_t> order = zero_weight_order(lag);
  std::vector<int> arrival = delay_;
  int period = 0;
  for (const std::uint32_t u : order) {
    period = std::max(period, arrival[u]);
    for (const std::uint32_t i : out_[u]) {
      if ((lag.empty() ? edges_[i].weight : retimed_weight(i, lag)) != 0) {
        continue;
      }
      const std::uint32_t v = edges_[i].to;
      arrival[v] = std::max(arrival[v], arrival[u] + delay_[v]);
    }
  }
  return period;
}

void RetimeGraph::check_valid() const {
  const std::uint32_t n = num_vertices();
  RTV_REQUIRE(n >= 2 && !origin_[kHostSource].valid() &&
                  !origin_[kHostSink].valid(),
              "vertices 0/1 must be the host sides");
  for (const Edge& e : edges_) {
    RTV_REQUIRE(e.from < n && e.to < n, "edge endpoint out of range");
    RTV_REQUIRE(e.weight >= 0, "negative edge weight");
  }
  // Every cycle carries a register <=> the zero-weight subgraph is acyclic;
  // clock_period() checks exactly that.
  (void)clock_period();
}

std::string RetimeGraph::summary() const {
  std::ostringstream os;
  os << "retime graph: " << num_vertices() << " vertices, " << num_edges()
     << " edges, " << total_weight() << " registers, period "
     << clock_period();
  return os.str();
}

std::vector<int> RetimeGraph::degree_imbalance() const {
  std::vector<int> a(num_vertices(), 0);
  for (const Edge& e : edges_) {
    a[e.to] += 1;
    a[e.from] -= 1;
  }
  return a;
}

}  // namespace rtv
