#include <algorithm>
#include <limits>
#include <stdexcept>

#include "src/assign/assign.hpp"
#include "src/bounds/dinic.hpp"
#include "src/bounds/upper.hpp"
#include "src/geom/sweep.hpp"
#include "src/knapsack/incremental.hpp"

namespace sectorpack::bounds {

double fixed_orientation_fractional_bound(const model::Instance& inst,
                                          std::span<const double> alphas) {
  if (inst.is_value_weighted()) {
    throw std::invalid_argument(
        "fixed_orientation_fractional_bound: max-flow relaxation is only "
        "valid when value == demand for every customer");
  }
  const assign::Eligibility elig =
      assign::compute_eligibility(inst, alphas);

  const std::size_t n = inst.num_customers();
  const std::size_t k = inst.num_antennas();
  // Nodes: 0 = source, 1..n = customers, n+1..n+k = antennas, n+k+1 = sink.
  Dinic flow(n + k + 2);
  const std::size_t source = 0;
  const std::size_t sink = n + k + 1;

  for (std::size_t i = 0; i < n; ++i) {
    flow.add_edge(source, 1 + i, inst.demand(i));
  }
  constexpr double kInf = std::numeric_limits<double>::infinity();
  for (std::size_t j = 0; j < k; ++j) {
    for (std::size_t i : elig.per_antenna[j]) {
      flow.add_edge(1 + i, 1 + n + j, kInf);
    }
    flow.add_edge(1 + n + j, sink, inst.antenna(j).capacity);
  }
  return flow.max_flow(source, sink);
}

namespace {

// Best fractional (Dantzig) knapsack value over every leading-edge window
// of antenna j's beam among `in_band`, its in-range customers: one sweep
// walked leave-then-enter with one IncrementalOracle, O(log n) per window.
// The fractional knapsack already enforces the capacity (for weighted
// instances value and capacity are in different units anyway). Checks the
// deadline every 64 windows; returns false on expiry.
bool best_fractional_window(const model::Instance& inst, std::size_t j,
                            std::span<const std::size_t> in_band,
                            const core::Deadline& deadline, double* out) {
  std::vector<double> thetas;
  std::vector<knapsack::Item> items;
  for (std::size_t i : in_band) {
    thetas.push_back(inst.theta(i));
    items.push_back({inst.value(i), inst.demand(i)});
  }
  const geom::WindowSweep sweep(thetas, inst.antenna(j).rho);
  knapsack::IncrementalOracle inc(items, inst.antenna(j).capacity,
                                  knapsack::Oracle::greedy());
  double best = 0.0;
  for (std::size_t w = 0; w < sweep.num_windows(); ++w) {
    if ((w & 63u) == 0 && deadline.expired()) return false;
    if (w == 0) {
      for (std::size_t m : sweep.members(0)) inc.add(m);
    } else {
      const geom::WindowDelta d = sweep.delta(w);
      for (std::size_t m : d.leave) inc.remove(m);
      for (std::size_t m : d.enter) inc.add(m);
    }
    best = std::max(best, inc.upper_bound());
  }
  *out = best;
  return true;
}

}  // namespace

double orientation_free_bound(const model::Instance& inst,
                              const core::SolveOptions& opts) {
  double per_antenna_total = 0.0;
  std::vector<std::size_t> in_band;
  for (std::size_t j = 0; j < inst.num_antennas(); ++j) {
    inst.in_range_customers(j, in_band);
    double best_window = 0.0;
    if (!best_fractional_window(inst, j, in_band, opts.deadline,
                                &best_window)) {
      // Without every antenna's window term only the outer term is known.
      core::note_expired("orientation_free_bound");
      return inst.total_value();
    }
    per_antenna_total += best_window;
  }
  return std::min(inst.total_value(), per_antenna_total);
}

double flow_window_bound(const model::Instance& inst,
                         const core::SolveOptions& opts) {
  if (inst.is_value_weighted()) {
    throw std::invalid_argument(
        "flow_window_bound: max-flow relaxation is only valid when value == "
        "demand for every customer; use orientation_free_bound instead");
  }
  const core::Deadline& deadline = opts.deadline;
  const std::size_t n = inst.num_customers();
  const std::size_t k = inst.num_antennas();

  // Per-antenna ceiling: min(capacity, best fractional window) -- computed
  // exactly as in orientation_free_bound (value == demand here).
  std::vector<std::vector<std::size_t>> in_band(k);
  std::vector<double> ceiling(k, 0.0);
  for (std::size_t j = 0; j < k; ++j) {
    inst.in_range_customers(j, in_band[j]);
    double best_window = 0.0;
    if (!best_fractional_window(inst, j, in_band[j], deadline,
                                &best_window)) {
      // A truncated sweep under-estimates: degrade to the trivial bound.
      core::note_expired("flow_window_bound");
      return trivial_bound(inst);
    }
    ceiling[j] = std::min(inst.antenna(j).capacity, best_window);
  }

  // Flow: source -> customer (demand) -> in-range antenna -> sink (ceiling).
  Dinic flow(n + k + 2);
  const std::size_t source = 0;
  const std::size_t sink = n + k + 1;
  constexpr double kInf = std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < n; ++i) {
    flow.add_edge(source, 1 + i, inst.demand(i));
  }
  for (std::size_t j = 0; j < k; ++j) {
    for (std::size_t i : in_band[j]) flow.add_edge(1 + i, 1 + n + j, kInf);
    flow.add_edge(1 + n + j, sink, ceiling[j]);
  }
  const double value = flow.max_flow(source, sink, deadline);
  if (flow.truncated()) {
    // Same reasoning: a partial max flow is a lower estimate of the LP
    // value, which is the wrong direction for an upper bound.
    core::note_expired("flow_window_bound");
    return trivial_bound(inst);
  }
  return value;
}

double trivial_bound(const model::Instance& inst) {
  return std::min(inst.total_demand(), inst.total_capacity());
}

}  // namespace sectorpack::bounds
