#include "src/srv/solvers.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <string>

#include "src/bounds/upper.hpp"
#include "src/knapsack/knapsack.hpp"
#include "src/obs/metrics.hpp"
#include "src/race/race.hpp"
#include "src/sectors/annealing.hpp"
#include "src/sectors/sectors.hpp"
#include "src/shard/shard.hpp"

namespace sectorpack::srv {

namespace {

model::Solution run_greedy(const model::Instance& inst, const SolverKey&,
                           const core::SolveOptions& opts) {
  sectors::GreedyConfig config;
  config.solve = opts;
  return sectors::solve_greedy(inst, config);
}

model::Solution run_local_search(const model::Instance& inst,
                                 const SolverKey&,
                                 const core::SolveOptions& opts) {
  sectors::LocalSearchConfig config;
  config.solve = opts;
  return sectors::solve_local_search(inst, config);
}

model::Solution run_local_search_seeded(const model::Instance& inst,
                                        const SolverKey&,
                                        const core::SolveOptions& opts,
                                        const model::Solution& seed) {
  sectors::LocalSearchConfig config;
  config.solve = opts;
  return sectors::improve(inst, seed, config);
}

model::Solution run_uniform(const model::Instance& inst, const SolverKey&,
                            const core::SolveOptions& opts) {
  return sectors::solve_uniform_orientations(inst, knapsack::Oracle::exact(),
                                             opts);
}

sectors::AnnealConfig anneal_config(const SolverKey& key,
                                    const core::SolveOptions& opts) {
  sectors::AnnealConfig config;
  config.seed = key.seed;
  config.iterations = static_cast<std::size_t>(key.iterations);
  config.solve = opts;
  return config;
}

model::Solution run_annealing(const model::Instance& inst,
                              const SolverKey& key,
                              const core::SolveOptions& opts) {
  return sectors::solve_annealing(inst, anneal_config(key, opts));
}

model::Solution run_annealing_seeded(const model::Instance& inst,
                                     const SolverKey& key,
                                     const core::SolveOptions& opts,
                                     const model::Solution& seed) {
  return sectors::anneal(inst, seed, anneal_config(key, opts));
}

model::Solution run_exact(const model::Instance& inst, const SolverKey&,
                          const core::SolveOptions& opts) {
  return sectors::solve_exact(inst, /*tuple_limit=*/1u << 20,
                              /*node_limit=*/1u << 26, opts);
}

model::Solution run_shard(const model::Instance& inst, const SolverKey&,
                          const core::SolveOptions& opts) {
  shard::ShardConfig config;
  config.solve = opts;
  return shard::solve(inst, config);
}

model::Solution run_race(const model::Instance& inst, const SolverKey& key,
                         const core::SolveOptions& opts) {
  race::RaceConfig config;
  if (!key.portfolio.empty()) {
    config.portfolio = race::parse_portfolio(key.portfolio);
  }
  config.seed = key.seed;
  config.iterations = key.iterations;
  config.solve = opts;
  return race::solve(inst, config);
}

// The one table. Priorities are the deterministic race tie-break (lower
// wins on equal value) and must stay unique; ordered by each family's
// usual quality when it does finish -- exact's completed answer is
// optimal, local search beats annealing's random walk on most shapes,
// both beat their shared greedy start, shard approximates, uniform is the
// non-adaptive baseline. race itself gets the largest priority; it is not
// portfolio-eligible anyway (parse_portfolio rejects it).
constexpr std::array<SolverFamily, 7> kFamilies{{
    {"greedy", 3, &run_greedy, nullptr},
    {"local-search", 1, &run_local_search, &run_local_search_seeded},
    {"annealing", 2, &run_annealing, &run_annealing_seeded},
    {"uniform", 5, &run_uniform, nullptr},
    {"exact", 0, &run_exact, nullptr},
    {"shard", 4, &run_shard, nullptr},
    {"race", 6, &run_race, nullptr},
}};

}  // namespace

std::span<const SolverFamily> solver_families() noexcept { return kFamilies; }

const SolverFamily* find_solver_family(std::string_view name) noexcept {
  for (const SolverFamily& family : kFamilies) {
    if (name == family.name) return &family;
  }
  return nullptr;
}

std::string solver_family_names(const char* sep) {
  std::string joined;
  for (std::size_t i = 0; i < kFamilies.size(); ++i) {
    if (i != 0) joined += sep;
    joined += kFamilies[i].name;
  }
  return joined;
}

void record_quality(const model::Instance& inst, double served,
                    std::string_view family) {
  struct FamilyCounters {
    obs::Counter solves;
    obs::Counter gap_sum;  // integer permille, divide by solves for mean
  };
  // Registered on first use, one pair per registry row, so later calls
  // never take the registration mutex (the batch engine records from its
  // worker threads).
  static const obs::HdrHistogram h_gap =
      obs::hdr_histogram("quality.gap_permille");
  static const std::array<FamilyCounters, kFamilies.size()> counters = [] {
    std::array<FamilyCounters, kFamilies.size()> built;
    for (std::size_t i = 0; i < kFamilies.size(); ++i) {
      const std::string prefix = std::string("quality.") + kFamilies[i].name;
      built[i] = {obs::counter(prefix + ".solves"),
                  obs::counter(prefix + ".gap_permille_sum")};
    }
    return built;
  }();
  if (!obs::enabled()) return;
  // The clamp guards rounding noise when served == bound.
  const double bound = bounds::trivial_bound(inst);
  const double gap =
      bound > 0.0 ? std::clamp(1000.0 * (bound - served) / bound, 0.0, 1000.0)
                  : 0.0;
  h_gap.observe(gap);
  if (const SolverFamily* row = find_solver_family(family)) {
    const FamilyCounters& c =
        counters[static_cast<std::size_t>(row - kFamilies.data())];
    c.solves.inc();
    c.gap_sum.add(static_cast<std::uint64_t>(std::llround(gap)));
  }
}

}  // namespace sectorpack::srv
