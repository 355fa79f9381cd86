// Workload `serve`: a closed-loop delta stream through srv::run_serve. The
// benchmark is the client: its input stream buffer hands the loop one op
// per read, so the time from handing over op i to the loop asking for op
// i+1 is op i's latency (the response has been written by then).

#include <cstdio>
#include <deque>
#include <istream>
#include <map>
#include <memory>
#include <numeric>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "perfbench.hpp"
#include "src/bounds/upper.hpp"
#include "src/model/io.hpp"
#include "src/obs/metrics.hpp"
#include "src/sim/generators.hpp"
#include "src/srv/engine.hpp"
#include "src/srv/serve.hpp"
#include "src/srv/session.hpp"
#include "src/verify/verify.hpp"

namespace perfbench {
namespace {

using namespace sectorpack;

constexpr std::size_t kWarmup = 20;  // untimed deltas after set-up
constexpr std::size_t kBlock = 100;  // deltas per fast-phase block
constexpr std::size_t kTailBlocks = 10;  // pooled for op_tail_ms: p99
// One register of the n = 40000 instance is 60-100 ms of work; a set-up
// sample is several, so that it is long enough to time steadily. setup_s is
// the time per register.
constexpr std::size_t kRegistersPerSetup = 4;

/// n customers uniform over a disk with six thin ring antennas at fixed
/// radii (the regime where a delta dirties few antennas' windows).
model::Instance ring_instance(std::uint64_t seed, std::size_t n) {
  sim::Rng rng(seed * 0x9E3779B97F4A7C15ULL + 11);
  sim::WorkloadConfig wl;
  wl.num_customers = n;
  wl.disk_radius = 120.0;
  wl.demand_min = 1;
  wl.demand_max = 10;
  std::vector<model::AntennaSpec> antennas;
  for (int j = 0; j < 6; ++j) {
    model::AntennaSpec spec;
    spec.rho = 0.7 + 0.05 * j;
    spec.min_range = 20.0 + 16.0 * j;
    spec.range = spec.min_range + 3.0;
    spec.capacity = 60.0 + 10.0 * j;
    antennas.push_back(spec);
  }
  return {sim::generate_customers(wl, rng), std::move(antennas)};
}

/// The delta mix: 40% customer_add, 40% customer_remove, 20% demand_set,
/// drawn from the seed; indices always name a live customer.
class DeltaGen {
 public:
  DeltaGen(std::uint64_t seed, std::string session)
      : rng_(seed * 0xD1B54A32D192ED03ULL + 5), session_(std::move(session)) {}

  /// Next op line; applies the same delta to `mirror`.
  std::string next(model::Instance& mirror) {
    char buf[192];
    const std::uint64_t kind = rng_.uniform_int(10);
    const std::size_t n = mirror.num_customers();
    const auto demand = static_cast<int>(1 + rng_.uniform_int(10));
    if (kind < 4) {
      double x = 0.0;
      double y = 0.0;
      do {
        x = rng_.uniform(-120.0, 120.0);
        y = rng_.uniform(-120.0, 120.0);
      } while (x * x + y * y > 120.0 * 120.0);
      std::snprintf(buf, sizeof buf, "%.3f", x);
      const std::string xs = buf;
      std::snprintf(buf, sizeof buf, "%.3f", y);
      const std::string ys = buf;
      model::Customer c;
      c.pos = {std::stod(xs), std::stod(ys)};
      c.demand = demand;
      mirror.add_customer(c);
      return "{\"op\":\"customer_add\",\"session\":\"" + session_ +
             "\",\"x\":" + xs + ",\"y\":" + ys +
             ",\"demand\":" + std::to_string(demand) + "}";
    }
    const std::size_t i = rng_.uniform_int(n);
    if (kind < 8) {
      mirror.remove_customer(i);
      return "{\"op\":\"customer_remove\",\"session\":\"" + session_ +
             "\",\"customer\":" + std::to_string(i) + "}";
    }
    mirror.set_demand(i, demand);
    return "{\"op\":\"demand_set\",\"session\":\"" + session_ +
           "\",\"customer\":" + std::to_string(i) +
           ",\"demand\":" + std::to_string(demand) + "}";
  }

 private:
  sim::Rng rng_;
  std::string session_;
};

/// A second srv::Session that follows the served session in lockstep: the
/// same deltas through the public Session API, with a span around each
/// library call. Response formatting is the loop's own (private) code, so
/// the replay leaves it out; it shows in protocol_ms and replay_gap_ms.
class Replay {
 public:
  explicit Replay(const std::string& text) {
    srv::SolverKey key;
    key.family = "greedy";
    session_ = std::make_unique<srv::Session>(
        model::instance_from_string(text), std::move(key));
    (void)session_->solve_initial({});
  }

  /// Apply op `line`; returns the serialized session solution.
  std::string step(const std::string& line, std::uint32_t op, Tracer& tr,
                   srv::ResolveStats& stats) {
    const Scoped span(tr, "serve.replay", op);
    srv::ServeOp parsed;
    {
      const Scoped st(tr, "srv.parse", op);
      parsed = srv::parse_serve_op(line, op);
    }
    {
      const Scoped st(tr, "session.delta", op);
      if (parsed.op == "customer_add") {
        stats = session_->customer_add(parsed.customer_rec, {});
      } else if (parsed.op == "customer_remove") {
        stats = session_->customer_remove(parsed.customer, {});
      } else {
        stats = session_->demand_set(parsed.customer, parsed.demand, {});
      }
    }
    const Scoped st(tr, "model.serialize", op);
    return model::to_string(session_->solution());
  }

 private:
  std::unique_ptr<srv::Session> session_;
};

std::uint64_t to_u64(std::string_view token) {
  return std::stoull(std::string(token));
}

double to_double(std::string_view token) {
  return std::stod(std::string(token));
}

}  // namespace

Result run_serve(const Options& o, Tracer& tracer) {
  Result r;
  const std::size_t n = o.small ? 3000 : 40000;
  const std::size_t count_ops = o.small ? 60 : 1000;  // the count window
  const std::string text = model::to_string(ring_instance(o.seed, n));
  const std::string register_line =
      "{\"op\":\"register\",\"solver\":\"greedy\",\"instance\":\"" +
      obs::json_escape(text) + "\"}";
  r.input_digest = fnv1a(text);

  model::Instance mirror = model::instance_from_string(text);
  DeltaGen gen(o.seed, "s0");
  // Traced run: the replay applies each delta right after the loop has
  // answered it, so both see the same host conditions. In the count window
  // its spans go to `tracer`. After it, deltas alternate between replaying
  // with spans and obs telemetry on (spans into `scratch_tracer`, then
  // discarded) and off: the ratio of the two medians is what tracing costs
  // the traced replay.
  std::unique_ptr<Replay> replay;
  if (o.trace) replay = std::make_unique<Replay>(text);
  Tracer scratch_tracer;

  // The op schedule. Set-up is kSetups samples of kRegistersPerSetup
  // registers of the same instance: the very first register creates s0,
  // the session every delta goes to; every other session is closed right
  // after its sample. The first sample runs before the warm-up deltas, the
  // others are spread over the timed phase (setup_due). Timed deltas run
  // until the time is up.
  enum class Kind { kRegister, kClose, kDelta };
  std::deque<std::pair<Kind, std::string>> queued;  // set-up ops to hand over
  Kind inflight = Kind::kRegister;
  std::size_t issued = 0;     // ops handed to the loop
  std::size_t deltas = 0;     // delta ops handed to the loop
  std::size_t registers = 0;  // register ops queued
  std::size_t sample_registers = 0;
  double sample_ms = 0.0;
  std::vector<double> setup_s;
  std::vector<double> register_ms;            // the engine's own solve_ms
  std::vector<double> op_ms;                  // timed deltas
  std::map<std::uint32_t, double> window_ms;  // count window: delta -> ms
  std::vector<double> request_ms, replay_traced_ms, replay_plain_ms;
  double served_sum = 0.0;
  double trivial_sum = 0.0;
  double response_bytes = 0.0;
  std::uint64_t memo_hits = 0, fresh_evals = 0;
  std::map<std::string, std::uint64_t> before;
  std::string last;  // the latest complete response line
  std::string prev;  // the delta line it answers
  std::string scratch;

  LineSink sink([&](std::string& line) { last.swap(line); });
  const double budget_ms = o.seconds * 1000.0;
  Clock::time_point timed_start{};
  Clock::time_point released{};

  // The previous delta (ordinal k, warm-up included) has been answered in
  // `ms`: record it and, in the traced run, replay it.
  const auto on_delta = [&](std::size_t k, double ms) {
    const bool timed = k >= kWarmup;
    const auto d = static_cast<std::uint32_t>(timed ? k - kWarmup : 0);
    const bool in_window = timed && d < count_ops;
    if (timed) op_ms.push_back(ms);
    if (in_window) {
      window_ms[d] = ms;
      request_ms.push_back(to_double(json_field(last, "solve_ms")));
      served_sum += to_double(json_field(last, "served_value"));
      trivial_sum += bounds::trivial_bound(mirror);
      response_bytes +=
          static_cast<double>(strip_solve_ms(last, scratch).size());
      memo_hits += to_u64(json_field(last, "memo_hits"));
      fresh_evals += to_u64(json_field(last, "fresh_evals"));
    }
    if (!replay) return;
    const bool overhead_phase = timed && !in_window;
    const bool traced = in_window || (overhead_phase && d % 2 == 0);
    Tracer& tr = in_window ? tracer : scratch_tracer;
    tr.set_enabled(traced);
    obs::set_enabled(traced);
    if (in_window && d == 0) before = obs_counts_now();
    srv::ResolveStats stats;
    const Clock::time_point t0 = Clock::now();
    const std::string sol = replay->step(prev, d, tr, stats);
    const double replay_ms = ms_between(t0, Clock::now());
    obs::set_enabled(false);
    tr.set_enabled(false);
    if (in_window && d + 1 == count_ops) add_obs_counts(r, before);
    if (overhead_phase) {
      (traced ? replay_traced_ms : replay_plain_ms).push_back(replay_ms);
    }
    if (json_field(last, "solution") != obs::json_escape(sol) ||
        to_u64(json_field(last, "memo_hits")) != stats.memo_hits ||
        to_u64(json_field(last, "fresh_evals")) != stats.fresh_evals) {
      r.fail("serve delta " + std::to_string(k) +
             ": Session replay differs from the served response");
    }
  };

  LineSource src([&](Clock::time_point requested, std::string& line) {
    if (issued > 0) {
      // The previous op is answered: its latency, then its checks.
      const double ms = ms_between(released, requested);
      ++r.attempted;
      if (json_field(last, "status") != "ok") {
        r.fail("serve op " + std::to_string(issued - 1) + ": " +
               last.substr(0, 200));
      }
      if (inflight == Kind::kRegister) {
        register_ms.push_back(to_double(json_field(last, "solve_ms")));
        sample_ms += ms;
        if (++sample_registers == kRegistersPerSetup) {
          setup_s.push_back(sample_ms / kRegistersPerSetup / 1000.0);
          sample_ms = 0.0;
          sample_registers = 0;
        }
      }
      if (inflight == Kind::kDelta) on_delta(deltas - 1, ms);
    }

    if (queued.empty()) {
      const std::size_t done = deltas > kWarmup ? deltas - kWarmup : 0;
      if (deltas == kWarmup && timed_start == Clock::time_point{}) {
        timed_start = Clock::now();
      }
      // Progress through the timed phase, 0..1.
      const double progress =
          deltas < kWarmup ? 0.0
          : o.small ? static_cast<double>(done) /
                          static_cast<double>(count_ops)
                    : ms_between(timed_start, Clock::now()) / budget_ms;
      const std::size_t samples = registers / kRegistersPerSetup;
      if (setup_due(samples, progress)) {
        for (std::size_t i = 0; i < kRegistersPerSetup; ++i) {
          queued.emplace_back(Kind::kRegister, register_line);
        }
        for (std::size_t i = 0; i < kRegistersPerSetup; ++i, ++registers) {
          if (registers == 0) continue;  // s0 stays open
          queued.emplace_back(Kind::kClose,
                              "{\"op\":\"close\",\"session\":\"s" +
                                  std::to_string(registers) + "\"}");
        }
      } else {
        if (samples == kSetups && done >= count_ops && progress >= 1.0) {
          return false;
        }
        line = gen.next(mirror);
        prev = line;
        inflight = Kind::kDelta;
        ++deltas;
      }
    }
    if (!queued.empty()) {
      inflight = queued.front().first;
      line = std::move(queued.front().second);
      queued.pop_front();
    }
    ++issued;
    released = Clock::now();
    return true;
  });

  std::istream in(&src);
  std::ostream out(&sink);
  const srv::ServeReport report = srv::run_serve(in, out, srv::ServeConfig{});
  if (report.ok != r.attempted) {
    r.fail("serve: " + std::to_string(report.ok) + " of " +
           std::to_string(r.attempted) + " ops ok");
  }

  // The final session solution must be byte-identical to a from-scratch
  // solve of a freshly built post-stream instance.
  const model::Instance fresh(
      std::vector<model::Customer>(mirror.customers().begin(),
                                   mirror.customers().end()),
      std::vector<model::AntennaSpec>(mirror.antennas().begin(),
                                      mirror.antennas().end()));
  srv::SolverKey key;
  key.family = "greedy";
  const model::Solution solved = srv::run_solver(fresh, key, {});
  ++r.attempted;
  if (json_field(last, "solution") !=
      obs::json_escape(model::to_string(solved))) {
    r.fail("serve: final session solution differs from a fresh solve");
  }
  if (const verify::VerifyReport v = verify::verify_solution(fresh, solved);
      !v.ok) {
    r.fail("serve: final solution: " + v.to_string());
  }

  // Fast-phase blocks of kBlock consecutive deltas (~0.2 s each): the
  // throughput and the median latency of each block.
  std::vector<double> block_rate, block_p50;
  for (std::size_t b = 0; b + kBlock <= op_ms.size(); b += kBlock) {
    const auto first = op_ms.begin() + static_cast<std::ptrdiff_t>(b);
    const std::vector<double> block(
        first, first + static_cast<std::ptrdiff_t>(kBlock));
    block_rate.push_back(1000.0 * static_cast<double>(kBlock) /
                         std::accumulate(block.begin(), block.end(), 0.0));
    block_p50.push_back(median(block));
  }
  add_end_to_end(r, setup_s, highest(block_rate), fastest(block_p50),
                 fastest_blocks(op_ms, kBlock, block_p50, kTailBlocks),
                 1000.0 * served_sum / trivial_sum,
                 "deltas (the " + std::to_string(kTailBlocks) +
                     " fastest blocks) at n=" + std::to_string(n));
  r.notes.push_back("ops_per_s and op_p50_ms are the fastest of " +
                    std::to_string(block_p50.size()) + " blocks of " +
                    std::to_string(kBlock) + " deltas");

  if (replay) {
    r.count("response_bytes_per_op",
            response_bytes / static_cast<double>(count_ops), "bytes");
    r.layer("trace.overhead_share",
            overhead(replay_traced_ms, replay_plain_ms), "share");
    r.layer("session.register_ms", median(register_ms), "ms");
    add_stage_metrics(r, tracer, "serve.replay",
                      {{"srv.parse", "srv.parse_ms"},
                       {"session.delta", "session.delta_ms"},
                       {"model.serialize", "model.serialize_ms"}});
    // The loop's own figures, per count-window delta: its op time minus
    // the replayed delta and serialization (protocol_ms), and minus the
    // whole replayed op (replay_gap_ms: the loop's work the replay does
    // not repeat, chiefly composing and writing the response).
    auto self = tracer.self_ms_by_op();
    std::map<std::uint32_t, double> replay_wall;
    for (const Span& s : tracer.spans()) {
      if (std::string_view(s.name) == "serve.replay") {
        replay_wall[s.op] += static_cast<double>(s.end_ns - s.start_ns) / 1e6;
      }
    }
    std::vector<double> protocol_ms, gap_ms;
    for (const auto& [d, ms] : window_ms) {
      protocol_ms.push_back(ms - self["session.delta"][d] -
                            self["model.serialize"][d]);
      gap_ms.push_back(ms - replay_wall[d]);
    }
    r.layer("protocol_ms", median(protocol_ms), "ms");
    r.layer("replay_gap_ms", median(gap_ms), "ms");
    r.layer("srv.request_ms", median(request_ms), "ms");
    r.count("session.memo_hits", static_cast<double>(memo_hits), "count");
    r.count("session.fresh_evals", static_cast<double>(fresh_evals), "count");
    r.count("session.dirty_share",
            memo_hits + fresh_evals > 0
                ? static_cast<double>(fresh_evals) /
                      static_cast<double>(memo_hits + fresh_evals)
                : 0.0,
            "share");
  }
  return r;
}

}  // namespace perfbench
