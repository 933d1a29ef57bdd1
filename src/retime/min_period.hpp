#pragma once
// Minimum clock-period retiming [LS83], two independent algorithms:
//
//  * OPT: binary search over the candidate periods (the distinct D(u,v)
//    values), testing feasibility with Bellman–Ford on the difference-
//    constraint system  lag(u) - lag(v) <= w(e)  and, for pairs with
//    D(u,v) > c,  lag(u) - lag(v) <= W(u,v) - 1. Exact; needs W/D matrices.
//
//  * FEAS-style incremental: matrix-free lazy constraint generation in the
//    spirit of [LS83]'s FEAS and [SR94]'s engineering. A probe at period c
//    solves the legality difference constraints, then repeatedly cuts off
//    the current solution with one path constraint per late vertex v
//    (lag(u) - lag(v) <= w(p) - 1 for the shortest suffix p of its
//    critical path whose delay exceeds c) until c is met or the
//    constraints have no solution. O(V^2) memory never materializes.
//    The search probes min_period_lower_bound() first and falls back to an
//    integer binary search above it. Probes share one cut pool and one
//    solution: a feasible probe's cuts hold at every lower period, so each
//    later probe warm-starts from them and relaxes only from its new cuts'
//    endpoints; an infeasible probe's cuts are dropped.
//
// Both return the same lag vector: the greatest solution <= 0 of their
// constraint system, shifted so the host lag is 0. FEAS's cuts are implied
// by OPT's exact constraints at the min period, and its final solution is
// legal and meets that period, so it satisfies them all; a relaxation whose
// greatest solution satisfies the full system has the same greatest
// solution. Tests check the lags against each other.

#include <optional>
#include <vector>

#include "retime/graph.hpp"
#include "retime/wd.hpp"

namespace rtv {

struct RetimingSolution {
  int period = 0;
  std::vector<int> lag;
};

/// Bellman–Ford feasibility for target period c using precomputed W/D.
/// Returns a legal lag assignment achieving period <= c, or nullopt.
std::optional<std::vector<int>> feasible_retiming_opt(const RetimeGraph& graph,
                                                      const WdMatrices& wd,
                                                      int period);

/// FEAS feasibility for target period c (one cold probe). Returns a legal
/// lag assignment achieving period <= c, or nullopt.
std::optional<std::vector<int>> feasible_retiming_feas(
    const RetimeGraph& graph, int period);

/// Exact min-period retiming via OPT (W/D + binary search over candidates).
RetimingSolution min_period_retime_opt(const RetimeGraph& graph);

/// Lower bound on the min period: max(max vertex delay, ceil(max cycle
/// ratio D/W)), with an extra host sink -> host source edge of weight 1 so
/// that a host path bounds the period by ceil(D/(W+1)). Exact integers.
int min_period_lower_bound(const RetimeGraph& graph);

/// Min-period retiming via FEAS: probes the lower bound, then binary
/// search. Returns the same lags as min_period_retime_opt.
RetimingSolution min_period_retime_feas(const RetimeGraph& graph);

}  // namespace rtv
