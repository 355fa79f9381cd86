#pragma once
// Certified upper bounds on the optimal served demand (served value for
// orientation_free_bound). Every bound here is provably >= OPT of the
// corresponding problem, so empirical approximation ratios reported as
// (solver value / bound) are conservative: the true ratio against OPT is at
// least as good.

#include <span>

#include "src/core/deadline.hpp"
#include "src/model/instance.hpp"

namespace sectorpack::bounds {

/// Exact value of the fractional-assignment LP for *fixed* orientations
/// (P0 relaxation), computed as a max flow: source -> customer (demand)
/// -> eligible antenna -> sink (capacity). >= OPT(P0) and tight whenever
/// the integral assignment LP has no integrality gap on the instance.
/// Requires an unweighted instance (value == demand); throws otherwise.
[[nodiscard]] double fixed_orientation_fractional_bound(
    const model::Instance& inst, std::span<const double> alphas);

/// Orientation-free bound valid for P1..P3 (weighted or not):
///   min( total value,  sum_j W_j )
/// where W_j is the best fractional knapsack VALUE over any window of width
/// rho_j among the customers within antenna j's range (the fractional
/// knapsack already enforces capacity_j). Valid because, in any solution,
/// the set served by antenna j is contained in some leading-edge window
/// (candidate-orientation lemma) and integral packing <= fractional.
/// Costs one O(n log n) window sweep per antenna: each window's Dantzig
/// bound is kept incrementally (knapsack::IncrementalOracle) as the sweep
/// advances, not re-sorted.
///
/// Deadline-aware: checked every 64 windows of each sweep. A truncated
/// sweep under-estimates its window term, so on expiry this degrades to
/// total value, the bound's outer term -- still >= OPT.
[[nodiscard]] double orientation_free_bound(
    const model::Instance& inst, const core::SolveOptions& opts = {});

/// Strengthened orientation-free bound: a max flow where customer i may
/// route to antenna j iff i is within j's range (any orientation could see
/// it), and antenna j's sink capacity is min(capacity_j, W_j) with W_j the
/// best fractional window value as in orientation_free_bound. Valid because
/// every feasible solution is such a flow; dominates orientation_free_bound
/// (which ignores that a customer can be served only once) and
/// trivial_bound. Costs one O(n log n) window sweep per antenna plus one
/// max flow. Requires an unweighted instance (value == demand); throws
/// otherwise.
///
/// Deadline-aware: checked every 64 windows of each sweep and every phase
/// of the max flow. A truncated sweep or max flow is NOT a valid upper
/// bound, so on expiry this degrades to the looser trivial_bound (valid
/// here: the instance is unweighted) -- the returned value is >= OPT
/// either way.
[[nodiscard]] double flow_window_bound(const model::Instance& inst,
                                       const core::SolveOptions& opts = {});

/// The trivial bound min(total demand, total capacity). It bounds served
/// *demand* on every instance, and so served value only when value ==
/// demand: on a value-weighted instance served value can exceed it (use
/// orientation_free_bound there). Used as a sanity ceiling in experiments.
[[nodiscard]] double trivial_bound(const model::Instance& inst);

}  // namespace sectorpack::bounds
