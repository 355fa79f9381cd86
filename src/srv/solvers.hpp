#pragma once
// Single source of truth for solver-family names and dispatch.
//
// The CLI's --solver validation, the batch/serve engine's is_known_solver
// and run_solver, and the race portfolio parser all consume this one
// table; before it existed each kept its own hardcoded list and adding a
// family meant updating them in lockstep (tests/test_srv.cpp now asserts
// they cannot drift). Each row carries the family's display name, its
// fixed race tie-break priority, a dispatch function building the
// family's config from a SolverKey, and -- for families that can start
// from an existing feasible solution -- a warm-start entry point used by
// the portfolio race's incumbent exchange. The per-family quality
// telemetry (record_quality) is keyed by the same table.

#include <span>
#include <string>
#include <string_view>

#include "src/core/deadline.hpp"
#include "src/model/solution.hpp"
#include "src/srv/fingerprint.hpp"

namespace sectorpack::srv {

/// One registry row. `run` never returns an infeasible solution (every
/// family's postcondition); it may throw (e.g. the exact solver's
/// tuple-space overflow). `run_seeded` is null for families that cannot
/// exploit a starting solution; when present, seeding with the family's
/// own cold start is byte-identical to `run`.
struct SolverFamily {
  const char* name;
  /// Deterministic race tie-break: among equal-value results the lowest
  /// priority wins. Unique per family; ordered by the family's usual
  /// quality on saturated instances (exact first).
  int priority;
  model::Solution (*run)(const model::Instance& inst, const SolverKey& key,
                         const core::SolveOptions& opts);
  model::Solution (*run_seeded)(const model::Instance& inst,
                                const SolverKey& key,
                                const core::SolveOptions& opts,
                                const model::Solution& seed);
};

/// All registered families, in a fixed order (stable across runs; tests
/// rely on it only through each row's `priority`).
[[nodiscard]] std::span<const SolverFamily> solver_families() noexcept;

/// Registry lookup; nullptr when `name` is not a family.
[[nodiscard]] const SolverFamily* find_solver_family(
    std::string_view name) noexcept;

/// All family names joined by `sep`, for usage/help text -- generated so
/// help can never drift from the registry either.
[[nodiscard]] std::string solver_family_names(const char* sep);

/// Solution-quality telemetry for one finished solve, shared by `sectorpack
/// solve` and the batch engine: the gap of `served` to
/// bounds::trivial_bound(inst) in permille of the bound (0 = matched the
/// bound, 1000 = served nothing) goes into the `quality.gap_permille` HDR
/// histogram and the `quality.<family>.{solves,gap_permille_sum}`
/// counters. The per-family counters are registered once, for every
/// registry row; a `family` outside the registry only feeds the histogram.
/// A no-op while obs is disabled.
void record_quality(const model::Instance& inst, double served,
                    std::string_view family);

}  // namespace sectorpack::srv
