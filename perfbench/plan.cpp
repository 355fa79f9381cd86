// Workload `plan`: one-shot planning, closed loop, one thread. Each op makes
// the library calls `sectorpack solve` makes, in the same order: load the
// instance, srv::run_solver, bounds::flow_window_bound, the feasibility
// check, then serialize the solution.

#include <algorithm>
#include <fstream>
#include <map>
#include <numeric>
#include <sstream>
#include <tuple>
#include <string>
#include <vector>

#include "perfbench.hpp"
#include "src/bounds/upper.hpp"
#include "src/model/io.hpp"
#include "src/model/validate.hpp"
#include "src/obs/metrics.hpp"
#include "src/sim/generators.hpp"
#include "src/srv/engine.hpp"
#include "src/verify/verify.hpp"

namespace perfbench {
namespace {

using namespace sectorpack;

struct Slot {
  std::string text;  // the instance file the op loads
  std::string solver;
};

/// The corpus: a fixed schedule of regimes (every spatial shape, k 3..8,
/// beam 30..90 degrees, capacity 0.6..1.1 of demand, n 500..1500, greedy
/// and local search alternating); the seed draws the points and demands.
std::vector<Slot> make_corpus(std::uint64_t seed, std::size_t count,
                              bool small) {
  std::vector<Slot> corpus;
  for (std::size_t i = 0; i < count; ++i) {
    sim::WorkloadConfig wl;
    wl.spatial = static_cast<sim::Spatial>(i % 4);
    wl.num_customers = small ? 120 + 20 * (i % 5) : 500 + 100 * ((i * 7) % 11);
    wl.demand = i % 3 == 2 ? sim::DemandDist::kParetoInt
                           : sim::DemandDist::kUniformInt;
    wl.pareto_cap = 50;
    sim::AntennaConfig ant;
    ant.count = 3 + (i * 5 + 1) % 6;
    ant.rho = geom::kPi / 180.0 * (30.0 + 15.0 * static_cast<double>(i % 5));
    ant.capacity_fraction = 0.6 + 0.1 * static_cast<double>((i / 6) % 6);
    sim::Rng rng(seed * 0x9E3779B97F4A7C15ULL + i * 0xD1B54A32D192ED03ULL + 1);
    corpus.push_back({model::to_string(sim::make_instance(wl, ant, rng)),
                      (i / 4) % 2 == 0 ? "greedy" : "local-search"});
  }
  return corpus;
}

struct Plan {
  model::Instance inst;
  model::Solution sol;
  double served = 0.0;
  double bound = 0.0;
  bool feasible = false;
  std::string out;  // the serialized solution
};

/// One op: exactly cmd_solve's library calls for an unweighted instance.
Plan plan_op(const Slot& slot, Tracer& tr, std::uint32_t op) {
  const Scoped span(tr, "plan.op", op);
  Plan p;
  {
    const Scoped s(tr, "model.load", op);
    p.inst = model::instance_from_string(slot.text);
  }
  srv::SolverKey key;
  key.family = slot.solver;
  {
    const Scoped s(tr, "solver", op);
    p.sol = srv::run_solver(p.inst, key, {});
  }
  p.served = model::served_value(p.inst, p.sol);
  {
    const Scoped s(tr, "bounds.flow", op);
    p.bound = bounds::flow_window_bound(p.inst, {});
  }
  {
    const Scoped s(tr, "verify", op);
    p.feasible = model::is_feasible(p.inst, p.sol);
  }
  {
    const Scoped s(tr, "model.serialize", op);
    p.out = model::to_string(p.sol);
  }
  return p;
}

std::string cli_format(double v) {
  std::ostringstream os;  // the CLI prints with the stream defaults
  os << v;
  return os.str();
}

}  // namespace

Result run_plan(const Options& o, Tracer& tracer) {
  Result r;
  const std::size_t count = o.small ? 8 : 100;
  const std::vector<Slot> corpus = make_corpus(o.seed, count, o.small);
  for (const Slot& s : corpus) {
    r.input_digest = fnv1a(s.solver, fnv1a(s.text, r.input_digest));
  }

  // Set-up: load every input into memory (parse, plus the trivial bound
  // served_permille divides by). A sample loads the corpus kLoadsPerSetup
  // times, to be long enough to time steadily, and records the time per
  // load; samples are repeated (setup_due) and their median is setup_s.
  constexpr std::size_t kLoadsPerSetup = 3;
  std::vector<double> trivial(count, 0.0);
  std::vector<double> setup_s;
  const auto setup_until = [&](double progress) {
    while (setup_due(setup_s.size(), progress)) {
      const Clock::time_point t0 = Clock::now();
      for (std::size_t rep = 0; rep < kLoadsPerSetup; ++rep) {
        for (std::size_t i = 0; i < count; ++i) {
          trivial[i] = bounds::trivial_bound(
              model::instance_from_string(corpus[i].text));
        }
      }
      setup_s.push_back(ms_between(t0, Clock::now()) / 1000.0 /
                        kLoadsPerSetup);
    }
  };
  setup_until(0.0);

  for (std::size_t i = 0; i < std::min<std::size_t>(4, count); ++i) {
    (void)plan_op(corpus[i], tracer, 0);  // warm-up, untimed
  }

  // First pass over the corpus: reference outputs for later passes, the
  // CLI cross-check cases, served_permille, and (traced) the counts.
  std::vector<double> ref_served(count);
  std::vector<std::uint64_t> ref_out(count);
  double served_sum = 0.0;
  double trivial_sum = 0.0;
  double out_bytes = 0.0;

  const auto check = [&](std::size_t i, std::size_t pass, const Plan& p) {
    ++r.attempted;
    const verify::VerifyReport v = verify::verify_solution(p.inst, p.sol);
    std::string bad;
    if (!v.ok) bad = v.to_string();
    if (!p.feasible) bad += " infeasible";
    if (p.sol.status != model::SolveStatus::kComplete) bad += " incomplete";
    if (!(p.served <= p.bound * (1.0 + 1e-9) + 1e-9)) bad += " above bound";
    const std::uint64_t h = fnv1a(p.out);
    if (pass == 0) {
      ref_served[i] = p.served;
      ref_out[i] = h;
    } else if (p.served != ref_served[i] || h != ref_out[i]) {
      bad += " output differs from the first pass";
    }
    if (!bad.empty()) r.fail("plan slot " + std::to_string(i) + ":" + bad);
  };

  std::vector<double> op_ms;
  std::vector<double> overhead_ratio;
  double op_wall_ms = 0.0;  // summed op time: the timed phase's clock
  const Clock::time_point start = Clock::now();
  const double budget_ms = o.seconds * 1000.0;
  // Untimed runs take at least two passes, so that every instance's
  // fastest time is the better of two or more; the traced run needs one
  // pass for its counts.
  const std::size_t min_ops = o.small || o.trace ? count : 2 * count;
  std::map<std::string, std::uint64_t> before;
  for (std::size_t j = 0;; ++j) {
    const std::size_t i = j % count;
    const std::size_t pass = j / count;
    const double progress =
        o.small ? static_cast<double>(j) / static_cast<double>(count)
                : (o.trace ? ms_between(start, Clock::now()) : op_wall_ms) /
                      budget_ms;
    setup_until(progress);
    if (j >= min_ops && progress >= 1.0) break;
    const auto timed = [&](bool traced) {
      tracer.set_enabled(traced);
      obs::set_enabled(traced);
      const Clock::time_point t0 = Clock::now();
      Plan p = plan_op(corpus[i], tracer, static_cast<std::uint32_t>(j));
      const double ms = ms_between(t0, Clock::now());
      obs::set_enabled(false);
      tracer.set_enabled(false);
      return std::make_pair(std::move(p), ms);
    };
    if (j == 0 && o.trace) before = obs_counts_now();
    Plan p;
    double ms = 0.0;
    if (o.trace && pass == 0) {
      // Traced and untraced back to back on the same input, in alternating
      // order: the ratio is the tracing overhead.
      double plain_ms = 0.0;
      if (i % 2 == 0) {
        plain_ms = timed(false).second;
        std::tie(p, ms) = timed(true);
      } else {
        std::tie(p, ms) = timed(true);
        plain_ms = timed(false).second;
      }
      overhead_ratio.push_back(ms / plain_ms);
    } else {
      std::tie(p, ms) = timed(o.trace);
    }
    op_ms.push_back(ms);
    op_wall_ms += ms;
    check(i, pass, p);
    if (pass == 0) {
      served_sum += p.served;
      trivial_sum += trivial[i];
      out_bytes += static_cast<double>(p.out.size());
      if (i == count - 1 && o.trace) add_obs_counts(r, before);
      if ((i == 0 || i == 5 || i == 10) && !o.mirror_dir.empty()) {
        const std::string file = o.mirror_dir + "/plan-" +
                                 std::to_string(o.seed) + "-" +
                                 std::to_string(i) + ".inst";
        std::ofstream(file) << corpus[i].text;
        r.mirror.push_back({file, corpus[i].solver, cli_format(p.served),
                            cli_format(p.bound)});
      }
    }
  }

  // The ops differ in size, so a fast-phase block is one instance: its
  // fastest time over the passes. op_p50_ms and op_tail_ms are taken over
  // those, and ops_per_s is the rate of a corpus pass at those times.
  const std::vector<double> fast_ms = fastest_per_slot(op_ms, count);
  add_end_to_end(r, setup_s,
                 1000.0 * static_cast<double>(count) /
                     std::accumulate(fast_ms.begin(), fast_ms.end(), 0.0),
                 median(fast_ms), fast_ms, 1000.0 * served_sum / trivial_sum,
                 "instances' fastest times");
  r.notes.push_back("ops_per_s and op_p50_ms take the fastest time of each "
                    "of " + std::to_string(count) + " instances over " +
                    std::to_string((op_ms.size() + count - 1) / count) +
                    " passes");

  if (o.trace) {
    add_stage_metrics(r, tracer, "plan.op",
                      {{"model.load", "model.load_ms"},
                       {"solver", "solver_ms"},
                       {"bounds.flow", "bounds.flow_ms"},
                       {"verify", "verify_ms"},
                       {"model.serialize", "model.serialize_ms"}});
    r.count("response_bytes_per_op", out_bytes / static_cast<double>(count),
            "bytes");
    r.layer("trace.overhead_share", median(overhead_ratio) - 1.0, "share");
  }
  return r;
}

}  // namespace perfbench
