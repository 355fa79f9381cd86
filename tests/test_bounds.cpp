#include "src/bounds/upper.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "src/assign/assign.hpp"
#include "src/bounds/dinic.hpp"
#include "src/geom/sweep.hpp"
#include "src/knapsack/knapsack.hpp"
#include "src/model/validate.hpp"
#include "src/sectors/sectors.hpp"
#include "src/sim/generators.hpp"

namespace bounds = sectorpack::bounds;
namespace model = sectorpack::model;
namespace geom = sectorpack::geom;
namespace knapsack = sectorpack::knapsack;
namespace sim = sectorpack::sim;
namespace sectors = sectorpack::sectors;

TEST(Dinic, TrivialPath) {
  bounds::Dinic d(3);
  d.add_edge(0, 1, 5.0);
  d.add_edge(1, 2, 3.0);
  EXPECT_NEAR(d.max_flow(0, 2), 3.0, 1e-9);
}

TEST(Dinic, ParallelPaths) {
  bounds::Dinic d(4);
  d.add_edge(0, 1, 4.0);
  d.add_edge(0, 2, 2.0);
  d.add_edge(1, 3, 3.0);
  d.add_edge(2, 3, 5.0);
  EXPECT_NEAR(d.max_flow(0, 3), 5.0, 1e-9);
}

TEST(Dinic, ClassicAugmentingCross) {
  // The textbook example where the cross edge must carry flow back.
  bounds::Dinic d(4);
  d.add_edge(0, 1, 1.0);
  d.add_edge(0, 2, 1.0);
  d.add_edge(1, 2, 1.0);
  d.add_edge(1, 3, 1.0);
  d.add_edge(2, 3, 1.0);
  EXPECT_NEAR(d.max_flow(0, 3), 2.0, 1e-9);
}

TEST(Dinic, DisconnectedIsZero) {
  bounds::Dinic d(4);
  d.add_edge(0, 1, 7.0);
  d.add_edge(2, 3, 7.0);
  EXPECT_NEAR(d.max_flow(0, 3), 0.0, 1e-12);
}

TEST(Dinic, EdgeFlowAccounting) {
  bounds::Dinic d(3);
  const std::size_t e01 = d.add_edge(0, 1, 5.0);
  const std::size_t e12 = d.add_edge(1, 2, 3.0);
  const double f = d.max_flow(0, 2);
  EXPECT_NEAR(d.edge_flow(e01), f, 1e-9);
  EXPECT_NEAR(d.edge_flow(e12), f, 1e-9);
}

TEST(Dinic, FractionalCapacities) {
  bounds::Dinic d(4);
  d.add_edge(0, 1, 1.5);
  d.add_edge(0, 2, 2.25);
  d.add_edge(1, 3, 2.0);
  d.add_edge(2, 3, 1.75);
  EXPECT_NEAR(d.max_flow(0, 3), 1.5 + 1.75, 1e-9);
}

namespace {

model::Instance random_inst(std::uint64_t seed, std::size_t n,
                            std::size_t k) {
  sim::Rng rng(seed);
  model::InstanceBuilder b;
  for (std::size_t i = 0; i < n; ++i) {
    b.add_customer_polar(rng.uniform(0.0, geom::kTwoPi),
                         rng.uniform(1.0, 12.0),
                         static_cast<double>(rng.uniform_int(1, 8)));
  }
  for (std::size_t j = 0; j < k; ++j) {
    b.add_antenna(rng.uniform(0.6, 2.5), rng.uniform(6.0, 14.0),
                  static_cast<double>(rng.uniform_int(4, 20)));
  }
  return b.build();
}

}  // namespace

TEST(FractionalBound, DominatesExactAssignment) {
  namespace assign = sectorpack::assign;
  for (std::uint64_t seed = 0; seed < 20; ++seed) {
    const model::Instance inst = random_inst(seed, 10, 3);
    sim::Rng rng(seed + 999);
    std::vector<double> alphas;
    for (std::size_t j = 0; j < 3; ++j) {
      alphas.push_back(rng.uniform(0.0, geom::kTwoPi));
    }
    const double exact = model::served_demand(
        inst, assign::solve_exact(inst, alphas));
    const double frac =
        bounds::fixed_orientation_fractional_bound(inst, alphas);
    EXPECT_GE(frac + 1e-6, exact) << "seed " << seed;
    EXPECT_LE(frac, bounds::trivial_bound(inst) + 1e-6);
  }
}

TEST(FractionalBound, TightOnSaturatedUnitDemands) {
  // Unit demands, one antenna seeing everyone, integer capacity: the LP has
  // an integral optimum, so bound == exact.
  model::InstanceBuilder b;
  for (int i = 0; i < 8; ++i) {
    b.add_customer_polar(0.1 + 0.01 * i, 5.0, 1.0);
  }
  b.add_antenna(geom::kPi, 10.0, 5.0);
  const model::Instance inst = b.build();
  const std::vector<double> alphas = {0.0};
  EXPECT_NEAR(bounds::fixed_orientation_fractional_bound(inst, alphas), 5.0,
              1e-9);
}

TEST(OrientationFreeBound, DominatesExactP3) {
  for (std::uint64_t seed = 0; seed < 12; ++seed) {
    const model::Instance inst = random_inst(seed + 50, 7, 2);
    const double exact =
        model::served_demand(inst, sectors::solve_exact(inst));
    const double bound = bounds::orientation_free_bound(inst);
    EXPECT_GE(bound + 1e-6, exact) << "seed " << seed;
    EXPECT_LE(bound, bounds::trivial_bound(inst) + 1e-6);
  }
}

TEST(OrientationFreeBound, ExactForSingleWideAntennaUncapacitated) {
  // One full-circle antenna with capacity above total demand: the bound
  // must equal total demand, which is also OPT.
  model::InstanceBuilder b;
  b.add_customer_polar(1.0, 5.0, 3.0);
  b.add_customer_polar(4.0, 5.0, 2.0);
  b.add_antenna(geom::kTwoPi, 10.0, 100.0);
  const model::Instance inst = b.build();
  EXPECT_NEAR(bounds::orientation_free_bound(inst), 5.0, 1e-9);
}

TEST(TrivialBound, MinOfDemandAndCapacity) {
  const model::Instance inst = model::InstanceBuilder{}
                                   .add_customer_polar(0.0, 1.0, 10.0)
                                   .add_antenna(1.0, 5.0, 4.0)
                                   .build();
  EXPECT_DOUBLE_EQ(bounds::trivial_bound(inst), 4.0);
}

TEST(FlowWindowBound, DominatesExactP3) {
  for (std::uint64_t seed = 0; seed < 12; ++seed) {
    const model::Instance inst = random_inst(seed + 150, 7, 2);
    const double exact =
        model::served_demand(inst, sectors::solve_exact(inst));
    const double bound = bounds::flow_window_bound(inst);
    EXPECT_GE(bound + 1e-6, exact) << "seed " << seed;
  }
}

TEST(FlowWindowBound, AtMostOrientationFree) {
  // The flow formulation adds the serve-once constraint, so it can only
  // tighten the orientation-free bound.
  for (std::uint64_t seed = 0; seed < 15; ++seed) {
    const model::Instance inst = random_inst(seed + 200, 20, 3);
    EXPECT_LE(bounds::flow_window_bound(inst),
              bounds::orientation_free_bound(inst) + 1e-6)
        << "seed " << seed;
  }
}

TEST(FlowWindowBound, StrictlyTighterWhenAntennasShareOneCustomer) {
  // One customer, two antennas that can both see it: orientation-free sums
  // both antennas' windows (2 * demand), the flow bound caps at the
  // customer's demand.
  model::InstanceBuilder b;
  b.add_customer_polar(0.3, 5.0, 4.0);
  b.add_identical_antennas(2, geom::kPi, 10.0, 100.0);
  const model::Instance inst = b.build();
  EXPECT_NEAR(bounds::flow_window_bound(inst), 4.0, 1e-9);
  // (orientation_free_bound also gives 4 here because it is clamped by
  // total demand; remove the clamp effect with a second far customer.)
  model::InstanceBuilder b2;
  b2.add_customer_polar(0.3, 5.0, 4.0);
  b2.add_customer_polar(0.3 + geom::kPi, 50.0, 10.0);  // out of range
  b2.add_identical_antennas(2, geom::kPi, 10.0, 100.0);
  const model::Instance inst2 = b2.build();
  EXPECT_NEAR(bounds::flow_window_bound(inst2), 4.0, 1e-9);
  EXPECT_NEAR(bounds::orientation_free_bound(inst2), 8.0, 1e-9);
}

TEST(Bounds, OrderingChain) {
  // orientation_free <= trivial, and both dominate every feasible solution.
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    const model::Instance inst = random_inst(seed + 80, 15, 3);
    const double trivial = bounds::trivial_bound(inst);
    const double of = bounds::orientation_free_bound(inst);
    EXPECT_LE(of, trivial + 1e-9);
    const double greedy =
        model::served_demand(inst, sectors::solve_greedy(inst));
    EXPECT_LE(greedy, of + 1e-6);
  }
}

// ---------------------------------------------------------------------------
// Equivalence with the sort-based reference: every leading-edge window's
// item list rebuilt and handed to knapsack::fractional_upper_bound, which
// re-sorts it by density. The bounds walk the sweep incrementally instead;
// on integer demands every partial sum is exact, so both must agree bit for
// bit.

namespace {

double reference_best_window(const model::Instance& inst, std::size_t j) {
  std::vector<double> thetas;
  std::vector<knapsack::Item> in_band;
  for (std::size_t i = 0; i < inst.num_customers(); ++i) {
    if (inst.in_range(i, j)) {
      thetas.push_back(inst.theta(i));
      in_band.push_back({inst.value(i), inst.demand(i)});
    }
  }
  const geom::WindowSweep sweep(thetas, inst.antenna(j).rho);
  double best = 0.0;
  std::vector<knapsack::Item> items;
  for (std::size_t w = 0; w < sweep.num_windows(); ++w) {
    items.clear();
    for (std::size_t m : sweep.members(w)) items.push_back(in_band[m]);
    best = std::max(best, knapsack::fractional_upper_bound(
                              items, inst.antenna(j).capacity));
  }
  return best;
}

double reference_orientation_free(const model::Instance& inst) {
  double total = 0.0;
  for (std::size_t j = 0; j < inst.num_antennas(); ++j) {
    total += reference_best_window(inst, j);
  }
  return std::min(inst.total_value(), total);
}

double reference_flow_window(const model::Instance& inst) {
  const std::size_t n = inst.num_customers();
  const std::size_t k = inst.num_antennas();
  bounds::Dinic flow(n + k + 2);
  const std::size_t sink = n + k + 1;
  for (std::size_t i = 0; i < n; ++i) flow.add_edge(0, 1 + i, inst.demand(i));
  for (std::size_t j = 0; j < k; ++j) {
    for (std::size_t i = 0; i < n; ++i) {
      if (inst.in_range(i, j)) {
        flow.add_edge(1 + i, 1 + n + j,
                      std::numeric_limits<double>::infinity());
      }
    }
    flow.add_edge(1 + n + j, sink,
                  std::min(inst.antenna(j).capacity,
                           reference_best_window(inst, j)));
  }
  return flow.max_flow(0, sink);
}

// Generator instances over every spatial shape, k = 3..8 antennas with
// beams 30..90 degrees, and ranges short enough that some customers fall
// outside them.
std::vector<model::Instance> generator_corpus(sim::DemandDist demand) {
  std::vector<model::Instance> corpus;
  std::uint64_t seed = 0;
  for (const sim::Spatial shape :
       {sim::Spatial::kUniformDisk, sim::Spatial::kHotspots,
        sim::Spatial::kRing, sim::Spatial::kArcBand}) {
    for (std::size_t k = 3; k <= 8; ++k) {
      ++seed;
      sim::WorkloadConfig wc;
      wc.num_customers = 60 + 30 * (seed % 5);
      wc.spatial = shape;
      wc.demand = demand;
      sim::AntennaConfig ac;
      ac.count = k;
      ac.rho = geom::kPi * static_cast<double>(30 + 12 * (k - 3)) / 180.0;
      ac.range = 70.0 + 8.0 * static_cast<double>(k);
      ac.capacity_fraction = 0.25 + 0.5 * static_cast<double>(seed % 6);
      sim::Rng rng(seed);
      corpus.push_back(sim::make_instance(wc, ac, rng));
    }
  }
  return corpus;
}

model::Instance random_real_inst(std::uint64_t seed, bool weighted) {
  sim::Rng rng(seed);
  model::InstanceBuilder b;
  for (std::size_t i = 0; i < 90; ++i) {
    const double theta = rng.uniform(0.0, geom::kTwoPi);
    const double r = rng.uniform(1.0, 12.0);
    const double demand = rng.uniform(0.1, 9.0);
    if (weighted) {
      b.add_weighted_customer_polar(theta, r, demand, rng.uniform(0.0, 30.0));
    } else {
      b.add_customer_polar(theta, r, demand);
    }
  }
  for (std::size_t j = 0; j < 5; ++j) {
    b.add_antenna(rng.uniform(0.5, 1.6), rng.uniform(6.0, 12.0),
                  rng.uniform(5.0, 120.0));
  }
  return b.build();
}

void expect_close(double got, double want, const char* what,
                  std::uint64_t seed) {
  EXPECT_LE(std::abs(got - want), 1e-9 * std::max(1.0, std::abs(want)))
      << what << " seed " << seed << ": " << got << " vs " << want;
}

}  // namespace

TEST(WindowBoundEquivalence, BitIdenticalOnIntegerDemands) {
  for (const sim::DemandDist demand :
       {sim::DemandDist::kUnit, sim::DemandDist::kUniformInt,
        sim::DemandDist::kParetoInt}) {
    for (const model::Instance& inst : generator_corpus(demand)) {
      EXPECT_EQ(bounds::orientation_free_bound(inst),
                reference_orientation_free(inst));
      EXPECT_EQ(bounds::flow_window_bound(inst), reference_flow_window(inst));
    }
  }
}

TEST(WindowBoundEquivalence, WithinRoundingOnRealDemands) {
  for (std::uint64_t seed = 0; seed < 20; ++seed) {
    const model::Instance inst = random_real_inst(seed, /*weighted=*/false);
    expect_close(bounds::orientation_free_bound(inst),
                 reference_orientation_free(inst), "orientation_free", seed);
    expect_close(bounds::flow_window_bound(inst),
                 reference_flow_window(inst), "flow_window", seed);
  }
}

TEST(WindowBoundEquivalence, OrientationFreeMatchesOnValueWeighted) {
  // Integer demands and values: exact.
  for (std::uint64_t seed = 0; seed < 20; ++seed) {
    sim::Rng rng(seed + 700);
    model::InstanceBuilder b;
    for (std::size_t i = 0; i < 80; ++i) {
      b.add_weighted_customer_polar(
          rng.uniform(0.0, geom::kTwoPi), rng.uniform(1.0, 12.0),
          static_cast<double>(rng.uniform_int(1, 8)),
          static_cast<double>(rng.uniform_int(0, 60)));
    }
    for (std::size_t j = 0; j < 4; ++j) {
      b.add_antenna(rng.uniform(0.5, 1.6), rng.uniform(6.0, 12.0),
                    static_cast<double>(rng.uniform_int(5, 30)));
    }
    const model::Instance inst = b.build();
    ASSERT_TRUE(inst.is_value_weighted());
    EXPECT_EQ(bounds::orientation_free_bound(inst),
              reference_orientation_free(inst))
        << "seed " << seed;
  }
  // Real demands and values: within rounding.
  for (std::uint64_t seed = 0; seed < 20; ++seed) {
    const model::Instance inst = random_real_inst(seed + 40, /*weighted=*/true);
    expect_close(bounds::orientation_free_bound(inst),
                 reference_orientation_free(inst), "weighted", seed);
  }
}
