// Workload `batch`: offline stateless requests through srv::run_batch with
// 3 workers. About a third of the requests are entity-permuted repeats of
// an earlier request, placed far enough behind it that the hit count is
// fixed by the schedule (see kRepeatDistance).

#include <algorithm>
#include <map>
#include <numeric>
#include <sstream>
#include <string>
#include <unordered_map>
#include <vector>

#include "perfbench.hpp"
#include "src/bounds/upper.hpp"
#include "src/model/io.hpp"
#include "src/obs/metrics.hpp"
#include "src/sim/generators.hpp"
#include "src/srv/engine.hpp"
#include "src/srv/fingerprint.hpp"
#include "src/verify/verify.hpp"

namespace perfbench {
namespace {

using namespace sectorpack;

constexpr unsigned kJobs = 3;
// The engine admits request r only once every request before r - window
// has been answered, window = queue capacity (4 * jobs) + 2 * jobs + 16 =
// 34 at 3 jobs. A repeat 48 or more lines behind its original therefore
// always finds it in the cache (128 entries, and fewer than 128 inserts
// can happen in between), whatever the thread timing.
constexpr std::size_t kRepeatDistance = 48;

struct Request {
  std::string line;
  model::Instance inst;
  std::size_t original = 0;  // index of the request it repeats (or itself)
  bool repeat = false;
};

const char* const kFamilies[] = {"greedy", "local-search", "uniform",
                                 "annealing"};

std::string request_line(std::size_t index, const char* family,
                         const std::string& text) {
  std::ostringstream os;
  os << "{\"id\":\"r" << index << "\",\"solver\":\"" << family << "\"";
  if (std::string_view(family) == "annealing") os << ",\"iterations\":400";
  os << ",\"instance\":\"" << obs::json_escape(text) << "\"}";
  return os.str();
}

/// Base requests follow a fixed schedule of regimes (n 80..400, k 2..6,
/// every spatial shape, beam 30..90 degrees, capacity 0.6..1.1 of demand,
/// four solver families); the seed draws points, demands and the repeats'
/// entity permutations.
std::vector<Request> make_requests(std::uint64_t seed, std::size_t bases) {
  std::vector<Request> out;
  std::vector<std::string> texts;
  std::vector<std::size_t> where;  // base index -> position in `out`
  sim::Rng perm(seed * 0x2545F4914F6CDD1DULL + 7);
  for (std::size_t t = 0; t < bases; ++t) {
    sim::WorkloadConfig wl;
    wl.spatial = static_cast<sim::Spatial>((t + t / 4) % 4);
    wl.num_customers = 80 + 40 * ((t * 7) % 9);
    sim::AntennaConfig ant;
    ant.count = 2 + (t * 3) % 5;
    ant.rho = geom::kPi / 180.0 * (30.0 + 15.0 * static_cast<double>(t % 5));
    ant.capacity_fraction = 0.6 + 0.1 * static_cast<double>((t / 4) % 6);
    sim::Rng rng(seed * 0x9E3779B97F4A7C15ULL + t * 0xD1B54A32D192ED03ULL + 3);
    texts.push_back(model::to_string(sim::make_instance(wl, ant, rng)));
    const char* family = kFamilies[t % 4];
    where.push_back(out.size());
    out.push_back({request_line(out.size(), family, texts.back()), {},
                   out.size(), false});
    if (t >= kRepeatDistance && (t - kRepeatDistance) % 2 == 0) {
      // Same problem, customers and antennas shuffled.
      const std::size_t b = t - kRepeatDistance;
      const model::Instance base = model::instance_from_string(texts[b]);
      std::vector<model::Customer> cs(base.customers().begin(),
                                      base.customers().end());
      std::vector<model::AntennaSpec> as(base.antennas().begin(),
                                         base.antennas().end());
      for (std::size_t i = cs.size(); i > 1; --i) {
        std::swap(cs[i - 1], cs[perm.uniform_int(i)]);
      }
      for (std::size_t i = as.size(); i > 1; --i) {
        std::swap(as[i - 1], as[perm.uniform_int(i)]);
      }
      const std::string text =
          model::to_string(model::Instance(std::move(cs), std::move(as)));
      out.push_back({request_line(out.size(), kFamilies[b % 4], text), {},
                     where[b], true});
    }
  }
  return out;
}

/// Undo obs::json_escape for a serialized solution (digits, signs, dots,
/// letters and spaces; newlines are its only escapes).
std::string json_unescape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (std::size_t i = 0; i < s.size(); ++i) {
    if (s[i] == '\\' && i + 1 < s.size()) {
      ++i;
      out.push_back(s[i] == 'n' ? '\n' : s[i]);
    } else {
      out.push_back(s[i]);
    }
  }
  return out;
}

/// What one run_batch call produced, as seen from outside the engine.
struct BatchRun {
  double wall_ms = 0.0;
  std::vector<double> latency_ms;  // line read -> response line written
  std::vector<double> request_ms;  // the engine's own solve_ms
  std::vector<double> queue_ms;    // access log queue_us
  std::uint64_t digest = 0;        // responses without solve_ms
  double response_bytes = 0.0;
  std::size_t hits = 0;
  std::uint64_t report_hits = 0;
  std::vector<std::string> served;     // served_value tokens
  std::vector<std::string> solutions;  // escaped solutions (if kept)
  std::vector<bool> ok;
  std::vector<bool> hit;
};

BatchRun run_once(const std::vector<Request>& reqs, bool access_log,
                  bool keep_solutions) {
  const std::size_t n = reqs.size();
  BatchRun b;
  b.latency_ms.resize(n);
  b.served.resize(n);
  b.ok.resize(n);
  b.hit.resize(n);
  if (keep_solutions) b.solutions.resize(n);
  std::vector<Clock::time_point> read_at(n);
  std::size_t next = 0;
  LineSource src([&](Clock::time_point at, std::string& line) {
    if (next == n) return false;
    read_at[next] = at;
    line = reqs[next++].line;
    return true;
  });
  std::size_t answered = 0;
  std::string scratch;
  LineSink sink([&](std::string& line) {
    const Clock::time_point now = Clock::now();
    const std::size_t i = answered++;
    if (i >= n) return;
    b.latency_ms[i] = ms_between(read_at[i], now);
    const std::string_view kept = strip_solve_ms(line, scratch);
    b.digest = fnv1a(kept, b.digest);
    b.response_bytes += static_cast<double>(kept.size());
    b.ok[i] = json_field(line, "status") == "ok";
    b.hit[i] = json_field(line, "cache") == "hit";
    if (b.hit[i]) ++b.hits;
    b.served[i] = std::string(json_field(line, "served_value"));
    b.request_ms.push_back(
        std::stod(std::string(json_field(line, "solve_ms"))));
    if (keep_solutions) {
      b.solutions[i] = std::string(json_field(line, "solution"));
    }
  });
  LineSink log([&](std::string& line) {
    b.queue_ms.push_back(
        std::stod(std::string(json_field(line, "queue_us"))) / 1000.0);
  });
  std::istream in(&src);
  std::ostream out(&sink);
  std::ostream log_os(&log);
  srv::BatchConfig config;
  config.jobs = kJobs;
  if (access_log) config.access_log = &log_os;
  const Clock::time_point t0 = Clock::now();
  const srv::BatchReport report = srv::run_batch(in, out, config);
  b.wall_ms = ms_between(t0, Clock::now());
  b.report_hits = report.cache_hits;
  return b;
}

/// The engine's per-request stages, replayed on this thread with a span
/// around each library call: parse, load, canonicalize, cache lookup (with
/// the re-verify a hit gets) or solve, serialize, format the response.
void replay(const std::vector<Request>& reqs, const BatchRun& first,
            Tracer& tr, Result& r) {
  std::unordered_map<srv::Fingerprint, model::Solution, srv::FingerprintHasher>
      cache;
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    const auto op = static_cast<std::uint32_t>(i);
    const Scoped span(tr, "batch.op", op);
    srv::Request req;
    model::Instance inst;
    srv::CanonicalInstance canon;
    model::Solution sol;
    bool hit = false;
    {
      const Scoped s(tr, "srv.parse", op);
      req = srv::parse_request(reqs[i].line, i);
    }
    {
      const Scoped s(tr, "model.load", op);
      inst = model::instance_from_string(req.instance_text);
    }
    {
      const Scoped s(tr, "srv.canonicalize", op);
      canon = srv::canonicalize(inst, req.solver);
    }
    {
      const Scoped s(tr, "srv.cache", op);
      if (const auto it = cache.find(canon.fingerprint); it != cache.end()) {
        sol = srv::from_canonical(canon, it->second);
        hit = true;
      }
    }
    if (hit) {
      const Scoped s(tr, "verify", op);
      if (!verify::verify_solution(inst, sol).ok) hit = false;
    }
    if (!hit) {
      {
        const Scoped s(tr, "solver", op);
        sol = srv::run_solver(inst, req.solver, {});
      }
      const Scoped s(tr, "srv.cache", op);
      cache.emplace(canon.fingerprint, srv::to_canonical(canon, sol));
    }
    std::string text;
    {
      const Scoped s(tr, "model.serialize", op);
      text = model::to_string(sol);
    }
    std::string escaped;
    double served = 0.0;
    {
      const Scoped s(tr, "srv.format", op);
      served = model::served_value(inst, sol);
      escaped = obs::json_escape(text);
    }
    if (escaped != first.solutions[i] ||
        obs::json_number(served) != first.served[i]) {
      r.fail("batch request " + std::to_string(i) +
             ": single-thread replay differs from the engine's response");
    }
  }
}

}  // namespace

Result run_batch(const Options& o, Tracer& tracer) {
  Result r;
  std::vector<Request> reqs =
      make_requests(o.seed, o.small ? kRepeatDistance + 24 : 300);
  const std::size_t n = reqs.size();
  std::size_t repeats = 0;
  for (const Request& q : reqs) {
    r.input_digest = fnv1a(q.line, r.input_digest);
    repeats += q.repeat ? 1 : 0;
  }

  // Set-up: load every request into memory -- parse it and its instance,
  // as the engine will -- keeping the instances for the output checks and
  // the trivial bounds. A sample loads the requests kLoadsPerSetup times,
  // to be long enough to time steadily, and records the time per load;
  // samples are repeated (setup_due) and their median is setup_s.
  constexpr std::size_t kLoadsPerSetup = 2;
  std::vector<double> setup_s;
  double trivial_sum = 0.0;
  const auto setup_until = [&](double progress) {
    while (setup_due(setup_s.size(), progress)) {
      const Clock::time_point t0 = Clock::now();
      for (std::size_t rep = 0; rep < kLoadsPerSetup; ++rep) {
        trivial_sum = 0.0;
        for (std::size_t i = 0; i < n; ++i) {
          const srv::Request req = srv::parse_request(reqs[i].line, i);
          reqs[i].inst = model::instance_from_string(req.instance_text);
          trivial_sum += bounds::trivial_bound(reqs[i].inst);
        }
      }
      setup_s.push_back(ms_between(t0, Clock::now()) / 1000.0 /
                        kLoadsPerSetup);
    }
  };
  setup_until(0.0);

  // Warm-up batch, untimed; its responses are the reference the timed
  // batches must repeat exactly, and every solution in it is verified.
  const BatchRun first = run_once(reqs, /*access_log=*/false,
                                  /*keep_solutions=*/true);
  double served_sum = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const std::string text = json_unescape(first.solutions[i]);
    const model::Solution sol = model::solution_from_string(text);
    const verify::VerifyReport v = verify::verify_solution(reqs[i].inst, sol);
    served_sum += model::served_value(reqs[i].inst, sol);
    if (!v.ok) {
      r.fail("batch request " + std::to_string(i) + ": " + v.to_string());
    }
  }

  const auto check = [&](const BatchRun& b) {
    r.attempted += n;
    std::size_t bad = 0;
    for (std::size_t i = 0; i < n; ++i) {
      const Request& q = reqs[i];
      if (!b.ok[i] || b.hit[i] != q.repeat ||
          (q.repeat && b.served[i] != b.served[q.original])) {
        ++bad;
      }
    }
    if (bad > 0) {
      r.fail("batch: " + std::to_string(bad) +
                 " responses not ok, or a hit where the schedule has none, "
                 "or a hit whose served_value differs from its original's",
             bad);
    }
    if (b.hits != repeats || b.report_hits != repeats) {
      r.fail("batch: " + std::to_string(b.report_hits) +
             " cache hits, the schedule has " + std::to_string(repeats));
    }
    if (b.digest != first.digest) {
      r.fail("batch: responses differ from the first batch's");
    }
  };
  check(first);

  // Timed phase: whole batches until the time is up. In the traced run,
  // batches alternate between traced (telemetry on, access log, request
  // spans) and untraced; the wall-time ratio is the tracing overhead.
  std::vector<double> rate;     // per batch: requests per second
  std::vector<double> wall;     // per batch: its wall time
  std::vector<double> latency;  // request i of batch k at k * n + i
  std::vector<double> traced_wall, plain_wall, busy, request_ms, queue_ms;
  const Clock::time_point start = Clock::now();
  const double budget_ms = o.seconds * 1000.0 * (o.trace ? 0.6 : 1.0);
  const std::size_t min_batches = o.small ? 2 : 6;
  for (std::size_t k = 0;; ++k) {
    const double progress =
        o.small ? static_cast<double>(k) / static_cast<double>(min_batches)
                : ms_between(start, Clock::now()) / budget_ms;
    setup_until(progress);
    if (k >= min_batches && progress >= 1.0) break;
    const bool traced = o.trace && k % 2 == 0;
    obs::set_enabled(traced);
    const BatchRun b = run_once(reqs, traced, /*keep_solutions=*/false);
    obs::set_enabled(false);
    check(b);
    rate.push_back(1000.0 * static_cast<double>(n) / b.wall_ms);
    wall.push_back(b.wall_ms);
    latency.insert(latency.end(), b.latency_ms.begin(), b.latency_ms.end());
    if (traced) {
      traced_wall.push_back(b.wall_ms);
      busy.push_back(std::accumulate(b.request_ms.begin(), b.request_ms.end(),
                                     0.0) /
                     (kJobs * b.wall_ms));
      request_ms.insert(request_ms.end(), b.request_ms.begin(),
                        b.request_ms.end());
      queue_ms.insert(queue_ms.end(), b.queue_ms.begin(), b.queue_ms.end());
    } else {
      plain_wall.push_back(b.wall_ms);
    }
  }

  // Fast-phase blocks: each batch for the throughput and (the 3 fastest
  // pooled, so that p99 has ten requests beyond it) the tail; for the
  // median latency, each request: its fastest over the batches.
  constexpr std::size_t kTailBatches = 3;
  add_end_to_end(r, setup_s, highest(rate),
                 median(fastest_per_slot(latency, n)),
                 fastest_blocks(latency, n, wall, kTailBatches),
                 1000.0 * served_sum / trivial_sum,
                 "requests in the " + std::to_string(kTailBatches) +
                     " fastest of " + std::to_string(rate.size()) +
                     " batches of " + std::to_string(n));

  if (o.trace) {
    r.layer("srv.request_ms", median(request_ms), "ms");
    r.layer("srv.queue_wait_ms", median(queue_ms), "ms");
    r.layer("par.busy_share", median(busy), "share");
    r.count("srv.cache_hit_share",
            static_cast<double>(repeats) / static_cast<double>(n), "share");
    r.count("response_bytes_per_op",
            first.response_bytes / static_cast<double>(n), "bytes");
    r.layer("trace.overhead_share", overhead(traced_wall, plain_wall),
            "share");
    tracer.set_enabled(true);
    obs::set_enabled(true);
    const auto before = obs_counts_now();
    replay(reqs, first, tracer, r);
    add_obs_counts(r, before);
    obs::set_enabled(false);
    tracer.set_enabled(false);
    add_stage_metrics(r, tracer, "batch.op",
                      {{"srv.parse", "srv.parse_ms"},
                       {"model.load", "model.load_ms"},
                       {"srv.canonicalize", "srv.canonicalize_ms"},
                       {"srv.cache", "srv.cache_ms"},
                       {"solver", "solver_ms"},
                       {"verify", "verify_ms"},
                       {"model.serialize", "model.serialize_ms"},
                       {"srv.format", "srv.format_ms"}});
  }
  return r;
}

}  // namespace perfbench
