#include "retime/min_period.hpp"

#include <algorithm>
#include <array>
#include <cstdint>
#include <deque>

#include "util/error.hpp"

namespace rtv {

namespace {

constexpr std::uint32_t kNone = 0xffffffffu;

/// A vertex on a cycle of the parent graph (parent[v]: the vertex whose arc
/// last lowered v's distance, kNone if none), or kNone. `mark` is working
/// storage.
std::uint32_t find_parent_cycle(const std::vector<std::uint32_t>& parent,
                                std::vector<std::uint32_t>& mark) {
  std::fill(mark.begin(), mark.end(), kNone);
  for (std::uint32_t start = 0; start < parent.size(); ++start) {
    std::uint32_t v = start;
    while (v != kNone && mark[v] == kNone) {
      mark[v] = start;
      v = parent[v];
    }
    if (v != kNone && mark[v] == start) return v;
  }
  return kNone;
}

/// Queue-based Bellman–Ford (SPFA). `for_each_arc(v, f)` enumerates the arcs
/// out of v as f(to, length), each meaning dist[to] <= dist[v] + length;
/// `queue` holds every vertex with a possibly violated out-arc. Lowers
/// `dist` to the greatest solution <= dist and returns true, or returns
/// false when a negative cycle shows the system has no solution.
///
/// Starting from any dist whose unqueued vertices satisfy their out-arcs is
/// what makes warm starts cheap: after adding arcs, queue only their tails.
/// Infeasibility is detected exactly by a parent-graph cycle search once
/// per n relaxations. A parent-graph cycle is always a negative cycle, so a
/// feasible system is never reported infeasible; and on a negative cycle
/// the distances fall without bound, which an acyclic parent graph would
/// forbid, so some search finds one.
template <typename ForEachArc>
bool relax(std::vector<std::int64_t>& dist, std::deque<std::uint32_t> queue,
           const ForEachArc& for_each_arc) {
  const std::size_t n = dist.size();
  std::vector<std::uint32_t> parent(n, kNone);
  std::vector<std::uint32_t> mark(n);
  std::vector<bool> queued(n, false);
  for (const std::uint32_t v : queue) queued[v] = true;
  std::size_t relaxations = 0;
  while (!queue.empty()) {
    const std::uint32_t v = queue.front();
    queue.pop_front();
    queued[v] = false;
    for_each_arc(v, [&](std::uint32_t to, std::int64_t length) {
      if (dist[v] + length >= dist[to]) return;
      dist[to] = dist[v] + length;
      parent[to] = v;
      ++relaxations;
      if (!queued[to]) {
        queued[to] = true;
        queue.push_back(to);
      }
    });
    if (relaxations >= n) {
      relaxations = 0;
      if (find_parent_cycle(parent, mark) != kNone) return false;
    }
  }
  return true;
}

/// Solves the difference constraints {lag(u) - lag(v) <= bound}, given as
/// (u, v, bound), from dist = 0: the greatest solution <= 0, or nullopt.
std::optional<std::vector<int>> solve_difference_constraints(
    std::uint32_t n, const std::vector<std::array<int, 3>>& constraints) {
  // Arc v -> u with length bound for lag(u) <= lag(v) + bound.
  std::vector<std::vector<std::pair<std::uint32_t, int>>> adj(n);
  for (const auto& [u, v, bound] : constraints) {
    adj[v].emplace_back(static_cast<std::uint32_t>(u), bound);
  }
  std::vector<std::int64_t> dist(n, 0);
  std::deque<std::uint32_t> queue;
  for (std::uint32_t v = 0; v < n; ++v) queue.push_back(v);
  const auto arcs = [&](std::uint32_t v, const auto& f) {
    for (const auto& [u, bound] : adj[v]) f(u, bound);
  };
  if (!relax(dist, std::move(queue), arcs)) return std::nullopt;
  return std::vector<int>(dist.begin(), dist.end());
}

/// Normalizes a solution so both host sides have lag 0, verifying that the
/// two host lags agree (they always do: each host side only appears in
/// constraints with bound >= 0 against itself).
std::optional<std::vector<int>> normalize_host(const RetimeGraph& graph,
                                               std::vector<int> lag) {
  const int shift = lag[RetimeGraph::kHostSource];
  for (int& v : lag) v -= shift;
  if (lag[RetimeGraph::kHostSink] != 0) {
    // Re-anchor the sink side: add the constraint by clamping — if the
    // system permits sink lag != source lag, shifting cannot fix both, so
    // solve again with an explicit equality via two inequalities.
    return std::nullopt;
  }
  if (!graph.legal_retiming(lag)) return std::nullopt;
  return lag;
}

std::vector<std::array<int, 3>> base_constraints(const RetimeGraph& graph) {
  std::vector<std::array<int, 3>> cs;
  cs.reserve(graph.num_edges() + 2);
  for (const RetimeGraph::Edge& e : graph.edges()) {
    cs.push_back({static_cast<int>(e.from), static_cast<int>(e.to), e.weight});
  }
  // Tie the two host sides together: lag(src) == lag(snk).
  cs.push_back({static_cast<int>(RetimeGraph::kHostSource),
                static_cast<int>(RetimeGraph::kHostSink), 0});
  cs.push_back({static_cast<int>(RetimeGraph::kHostSink),
                static_cast<int>(RetimeGraph::kHostSource), 0});
  return cs;
}

/// FEAS by lazy constraint generation over a sequence of period probes.
/// `dist_` is always the greatest solution <= 0 of legality + the cut
/// pool; a probe only adds cuts, so it continues from there and relaxes
/// from the new cuts' endpoints alone. A cut made at a feasible period c
/// holds at every lower period, so feasible probes keep theirs; an
/// infeasible probe's cuts may not hold above its period and are dropped.
class FeasSearch {
 public:
  // Legality's arcs all have length >= 0, so 0 is its greatest solution
  // <= 0.
  explicit FeasSearch(const RetimeGraph& graph)
      : graph_(graph),
        dist_(graph.num_vertices(), 0),
        cuts_(graph.num_vertices()) {}

  /// A legal lag assignment achieving period <= c, or nullopt.
  std::optional<std::vector<int>> probe(int period) {
    for (std::uint32_t v = 0; v < graph_.num_vertices(); ++v) {
      if (graph_.delay(v) > period) return std::nullopt;
    }
    const std::vector<std::int64_t> saved_dist = dist_;
    const std::size_t saved_cuts = cut_tails_.size();
    const auto rollback = [&] {
      while (cut_tails_.size() > saved_cuts) {
        cuts_[cut_tails_.back()].pop_back();
        cut_tails_.pop_back();
      }
      dist_ = saved_dist;
    };
    // The constraint arcs out of v (lag(to) <= lag(v) + length): legality
    // lag(e.from) - lag(v) <= w(e) for every edge e into v, the host tie,
    // and v's cuts.
    const auto arcs = [this](std::uint32_t v, const auto& f) {
      for (const std::uint32_t i : graph_.in_edges(v)) {
        f(graph_.edge(i).from, graph_.edge(i).weight);
      }
      if (v == RetimeGraph::kHostSource) f(RetimeGraph::kHostSink, 0);
      if (v == RetimeGraph::kHostSink) f(RetimeGraph::kHostSource, 0);
      for (const auto& [u, bound] : cuts_[v]) f(u, bound);
    };
    for (;;) {
      std::deque<std::uint32_t> new_tails = cut_late_paths(period);
      if (new_tails.empty()) {
        auto lag = normalize_host(
            graph_, std::vector<int>(dist_.begin(), dist_.end()));
        if (!lag) rollback();
        return lag;
      }
      if (!relax(dist_, std::move(new_tails), arcs)) {
        rollback();
        return std::nullopt;
      }
    }
  }

 private:
  /// For every vertex v later than `period` under dist_, adds the cut
  ///     lag(u) - lag(v) <= w(p) - 1
  /// for the shortest suffix p (from u) of v's critical path whose delay
  /// exceeds the period. All retimed weights on p are 0, so w(p) =
  /// lag(u) - lag(v) and the cut separates dist_. Every cut is implied by
  /// the exact constraint lag(u) - lag(v) <= W(u,v) - 1 at any period below
  /// d(p). Cutting the suffix rather than the whole path puts the register
  /// where the period needs it, so a probe takes a few rounds instead of
  /// one round per vertex the registers must cross. Returns the cuts' arc
  /// tails.
  std::deque<std::uint32_t> cut_late_paths(int period) {
    const std::uint32_t n = graph_.num_vertices();
    const std::vector<int> lag(dist_.begin(), dist_.end());
    std::vector<int> arrival(n);
    std::vector<std::int64_t> path_weight(n, 0);  // original registers
    std::vector<std::uint32_t> pred(n, kNone);    // critical-path predecessor
    for (std::uint32_t v = 0; v < n; ++v) arrival[v] = graph_.delay(v);
    // Longest zero-weight paths; the arrival of u is final when reached.
    std::deque<std::uint32_t> tails;
    for (const std::uint32_t u : graph_.zero_weight_order(lag)) {
      if (arrival[u] > period) {
        // The shortest late suffix of u's critical path starts at x.
        std::uint32_t x = u;
        int delay = graph_.delay(u);
        while (delay <= period) {
          x = pred[x];
          RTV_CHECK_MSG(x != kNone, "single-vertex path exceeding the period");
          delay += graph_.delay(x);
        }
        // Arc u -> x with length w(p) - 1.
        cuts_[u].emplace_back(
            x, static_cast<int>(path_weight[u] - path_weight[x]) - 1);
        cut_tails_.push_back(u);
        tails.push_back(u);
      }
      for (const std::uint32_t i : graph_.out_edges(u)) {
        if (graph_.retimed_weight(i, lag) != 0) continue;
        const std::uint32_t v = graph_.edge(i).to;
        if (arrival[u] + graph_.delay(v) > arrival[v]) {
          arrival[v] = arrival[u] + graph_.delay(v);
          path_weight[v] = path_weight[u] + graph_.edge(i).weight;
          pred[v] = u;
        }
      }
    }
    return tails;
  }

  const RetimeGraph& graph_;
  std::vector<std::int64_t> dist_;
  /// Cut arcs by tail v: (u, bound) for lag(u) - lag(v) <= bound.
  std::vector<std::vector<std::pair<std::uint32_t, int>>> cuts_;
  std::vector<std::uint32_t> cut_tails_;  ///< cut tails in insertion order
};

}  // namespace

int min_period_lower_bound(const RetimeGraph& graph) {
  // Every cycle keeps its W registers under retiming and its D delay must
  // fit in W zero-weight segments, so the period is >= ceil(D / W). The
  // extra arc host sink -> host source (weight 1, delay 0) closes each
  // host-to-host path, whose W registers split it into W + 1 segments.
  // Parametric search: while some cycle has D > c * W (a negative cycle
  // under lengths c * w(e) - d(head)), jump c to that cycle's ceil(D / W).
  const std::uint32_t n = graph.num_vertices();
  const auto host_arc = static_cast<std::uint32_t>(graph.num_edges());

  // Bellman–Ford passes visit the vertices in a topological order of the
  // register-free edges, so one pass settles a whole register-free path and
  // the passes needed grow with the registers on a path, not its length.
  const std::vector<std::uint32_t> order = graph.zero_weight_order();

  std::int64_t c = 0;
  for (std::uint32_t v = 0; v < n; ++v) {
    c = std::max<std::int64_t>(c, graph.delay(v));
  }
  std::vector<std::uint32_t> parent(n), parent_arc(n), mark(n);
  for (;;) {
    std::vector<std::int64_t> dist(n, 0);
    std::fill(parent.begin(), parent.end(), kNone);
    const auto lower = [&](std::uint32_t u, std::uint32_t v,
                           std::int64_t length, std::uint32_t arc) {
      if (dist[u] + length >= dist[v]) return false;
      dist[v] = dist[u] + length;
      parent[v] = u;
      parent_arc[v] = arc;
      return true;
    };
    std::uint32_t on_cycle = kNone;
    for (bool changed = true; changed && on_cycle == kNone;) {
      changed = false;
      for (const std::uint32_t u : order) {
        for (const std::uint32_t i : graph.out_edges(u)) {
          const RetimeGraph::Edge& e = graph.edge(i);
          changed |= lower(u, e.to, c * e.weight - graph.delay(e.to), i);
        }
        if (u == RetimeGraph::kHostSink) {
          changed |= lower(u, RetimeGraph::kHostSource,
                           c - graph.delay(RetimeGraph::kHostSource), host_arc);
        }
      }
      // A parent-graph cycle is a negative cycle; a negative cycle drives
      // the distances down without bound until one appears.
      if (changed) on_cycle = find_parent_cycle(parent, mark);
    }
    if (on_cycle == kNone) return static_cast<int>(c);
    std::int64_t delay = 0, weight = 0;
    std::uint32_t v = on_cycle;
    do {
      const std::uint32_t arc = parent_arc[v];
      weight += arc == host_arc ? 1 : graph.edge(arc).weight;
      delay += graph.delay(v);
      v = parent[v];
    } while (v != on_cycle);
    RTV_CHECK_MSG(weight > 0 && delay > c * weight,
                  "parent cycle must beat the current bound");
    c = (delay + weight - 1) / weight;
  }
}

std::optional<std::vector<int>> feasible_retiming_opt(const RetimeGraph& graph,
                                                      const WdMatrices& wd,
                                                      int period) {
  const std::uint32_t n = graph.num_vertices();
  std::vector<std::array<int, 3>> cs = base_constraints(graph);
  for (std::uint32_t u = 0; u < n; ++u) {
    for (std::uint32_t v = 0; v < n; ++v) {
      if (wd.reachable(u, v) && wd.D(u, v) > period) {
        cs.push_back(
            {static_cast<int>(u), static_cast<int>(v), wd.W(u, v) - 1});
      }
    }
  }
  auto lag = solve_difference_constraints(n, cs);
  if (!lag) return std::nullopt;
  auto normalized = normalize_host(graph, std::move(*lag));
  if (!normalized) return std::nullopt;
  if (graph.clock_period(*normalized) > period) return std::nullopt;
  return normalized;
}

std::optional<std::vector<int>> feasible_retiming_feas(
    const RetimeGraph& graph, int period) {
  return FeasSearch(graph).probe(period);
}

RetimingSolution min_period_retime_opt(const RetimeGraph& graph) {
  const WdMatrices wd = compute_wd(graph);
  const std::vector<int> candidates = wd.candidate_periods();
  RTV_CHECK(!candidates.empty());

  // Find the smallest feasible candidate by binary search (feasibility is
  // monotone in the period).
  std::size_t lo = 0, hi = candidates.size() - 1;
  // The current period is always feasible (lag = 0), so a feasible candidate
  // exists; start hi at the current period's position.
  const int current = graph.clock_period();
  hi = static_cast<std::size_t>(
      std::lower_bound(candidates.begin(), candidates.end(), current) -
      candidates.begin());
  RTV_CHECK(hi < candidates.size());
  std::optional<std::vector<int>> best =
      feasible_retiming_opt(graph, wd, candidates[hi]);
  RTV_CHECK_MSG(best.has_value(), "current period must be feasible");
  std::size_t best_idx = hi;
  while (lo < best_idx) {
    const std::size_t mid = (lo + best_idx) / 2;
    auto lag = feasible_retiming_opt(graph, wd, candidates[mid]);
    if (lag) {
      best = std::move(lag);
      best_idx = mid;
    } else {
      lo = mid + 1;
    }
  }
  return RetimingSolution{graph.clock_period(*best), std::move(*best)};
}

RetimingSolution min_period_retime_feas(const RetimeGraph& graph) {
  // The min period lies in [lo, hi]; hi (the current period) is feasible
  // with lag 0. The bound is usually tight, so probe it first.
  FeasSearch search(graph);
  int lo = min_period_lower_bound(graph);
  int hi = graph.clock_period();
  RTV_CHECK_MSG(lo <= hi, "lower bound above the current period");
  std::optional<std::vector<int>> best = search.probe(lo);
  if (!best) {
    ++lo;
    while (lo < hi) {
      const int mid = lo + (hi - lo) / 2;
      auto lag = search.probe(mid);
      if (lag) {
        hi = graph.clock_period(*lag);
        best = std::move(lag);
      } else {
        lo = mid + 1;
      }
    }
    if (!best) best = search.probe(hi);
    RTV_CHECK_MSG(best.has_value(), "current period must be feasible");
  }
  return RetimingSolution{graph.clock_period(*best), std::move(*best)};
}

}  // namespace rtv
