// perfbench_harness: runs one workload of the end-to-end benchmark in this
// process and prints one JSON object (every metric, the output checks, the
// deterministic counts) as the last line of stdout. run.py builds it and
// turns that line into the benchmark's result line.
//
// Usage: perfbench_harness --workload plan|batch|serve --seed N
//          --seconds S --trace 0|1 [--small] [--trace-out FILE]
//          [--mirror-dir DIR]

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <numeric>
#include <sstream>
#include <stdexcept>

#include "perfbench.hpp"
#include "src/obs/metrics.hpp"
#include "src/par/thread_pool.hpp"

namespace perfbench {

// ---------------------------------------------------------------- Tracer

int Tracer::begin(const char* name, std::uint32_t op) {
  if (!enabled_) return -1;
  const std::int64_t now =
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                           origin_)
          .count();
  const int parent = open_.empty() ? -1 : open_.back();
  spans_.push_back({name, now, now, parent, op});
  open_.push_back(static_cast<int>(spans_.size() - 1));
  return open_.back();
}

void Tracer::end(int index) {
  if (index < 0) return;
  spans_[static_cast<std::size_t>(index)].end_ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                           origin_)
          .count();
  if (!open_.empty() && open_.back() == index) open_.pop_back();
}

std::map<std::string, std::map<std::uint32_t, double>> Tracer::self_ms_by_op()
    const {
  std::vector<std::int64_t> child_ns(spans_.size(), 0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      child_ns[static_cast<std::size_t>(s.parent)] += s.end_ns - s.start_ns;
    }
  }
  std::map<std::string, std::map<std::uint32_t, double>> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out[s.name][s.op] +=
        static_cast<double>(s.end_ns - s.start_ns - child_ns[i]) / 1e6;
  }
  return out;
}

bool Tracer::write_chrome(const std::string& path) const {
  std::ofstream os(path);
  if (!os) return false;
  os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  char buf[256];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::snprintf(buf, sizeof buf,
                  "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                  "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                  "\"parent\":%d,\"op\":%u}}",
                  i == 0 ? "" : ",", s.name,
                  static_cast<double>(s.start_ns) / 1e3,
                  static_cast<double>(s.end_ns - s.start_ns) / 1e3, i,
                  s.parent, s.op);
    os << buf;
  }
  os << "\n]}\n";
  return static_cast<bool>(os);
}

// ------------------------------------------------------- stream adapters

LineSource::int_type LineSource::underflow() {
  const Clock::time_point requested = Clock::now();
  if (!next_(requested, line_)) return traits_type::eof();
  line_.push_back('\n');
  setg(line_.data(), line_.data(), line_.data() + line_.size());
  return traits_type::to_int_type(line_[0]);
}

std::streamsize LineSink::xsputn(const char* s, std::streamsize n) {
  std::string_view rest(s, static_cast<std::size_t>(n));
  for (std::size_t nl; (nl = rest.find('\n')) != std::string_view::npos;) {
    line_.append(rest.substr(0, nl));
    on_line_(line_);
    line_.clear();
    rest.remove_prefix(nl + 1);
  }
  line_.append(rest);
  return n;
}

LineSink::int_type LineSink::overflow(int_type c) {
  if (traits_type::eq_int_type(c, traits_type::eof())) return 0;
  const char ch = traits_type::to_char_type(c);
  xsputn(&ch, 1);
  return c;
}

// ----------------------------------------------------------- json lines

std::string_view json_field(std::string_view line, std::string_view key) {
  std::string pat;
  pat.reserve(key.size() + 3);
  pat.append("\"").append(key).append("\":");
  const std::size_t at = line.find(pat);
  if (at == std::string_view::npos) return {};
  std::size_t i = at + pat.size();
  if (i < line.size() && line[i] == '"') {
    const std::size_t start = i + 1;
    std::size_t j = start;
    while (j < line.size() && line[j] != '"') j += line[j] == '\\' ? 2u : 1u;
    return line.substr(start, std::min(j, line.size()) - start);
  }
  const std::size_t end = line.find_first_of(",}", i);
  return line.substr(i, (end == std::string_view::npos ? line.size() : end) -
                            i);
}

std::uint64_t fnv1a(std::string_view bytes, std::uint64_t h) {
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;
  }
  return h;
}

std::string_view strip_solve_ms(std::string_view line, std::string& scratch) {
  const std::string_view value = json_field(line, "solve_ms");
  if (value.empty()) return line;
  const auto cut = static_cast<std::size_t>(value.data() - line.data());
  scratch.assign(line.substr(0, cut));
  scratch.append(line.substr(cut + value.size()));
  return scratch;
}

// ------------------------------------------------------------ statistics

double overhead(const std::vector<double>& traced,
                const std::vector<double>& plain) {
  if (traced.empty() || plain.empty()) return 0.0;
  return median(traced) / median(plain) - 1.0;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  const std::size_t mid = v.size() / 2;
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(mid),
                   v.end());
  const double hi = v[mid];
  if (v.size() % 2 == 1) return hi;
  const double lo = *std::max_element(
      v.begin(), v.begin() + static_cast<std::ptrdiff_t>(mid));
  return 0.5 * (lo + hi);
}

double fastest(const std::vector<double>& block_ms) {
  return block_ms.empty() ? 0.0
                          : *std::min_element(block_ms.begin(), block_ms.end());
}

double highest(const std::vector<double>& block_rate) {
  return block_rate.empty()
             ? 0.0
             : *std::max_element(block_rate.begin(), block_rate.end());
}

std::vector<double> fastest_blocks(const std::vector<double>& op_ms,
                                   std::size_t size,
                                   const std::vector<double>& block_ms,
                                   std::size_t blocks) {
  std::vector<std::size_t> order(block_ms.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return block_ms[a] < block_ms[b];
  });
  order.resize(std::min(blocks, order.size()));
  std::vector<double> pooled;
  for (const std::size_t b : order) {
    const auto first = op_ms.begin() + static_cast<std::ptrdiff_t>(b * size);
    pooled.insert(pooled.end(), first,
                  first + static_cast<std::ptrdiff_t>(size));
  }
  return pooled;
}

std::vector<double> fastest_per_slot(const std::vector<double>& op_ms,
                                     std::size_t slots) {
  std::vector<double> fast(std::min(slots, op_ms.size()));
  for (std::size_t j = 0; j < op_ms.size(); ++j) {
    double& f = fast[j % slots];
    f = j < slots ? op_ms[j] : std::min(f, op_ms[j]);
  }
  return fast;
}

Tail tail(std::vector<double> v) {
  Tail t;
  t.samples = v.size();
  std::sort(v.begin(), v.end());
  for (const double p : {99.0, 95.0, 90.0, 75.0, 50.0}) {
    const auto rank = static_cast<std::size_t>(
        std::ceil(p / 100.0 * static_cast<double>(v.size())));
    if (rank >= 1 && v.size() - rank >= 10) {
      t.percentile = p;
      t.value = v[rank - 1];
      return t;
    }
  }
  return t;
}

std::vector<double> spin_probe(int reps) {
  std::vector<double> ms;
  for (int r = 0; r < reps; ++r) {
    const Clock::time_point t0 = Clock::now();
    std::ostringstream os;
    os << std::setprecision(17);
    for (int i = 0; i < 20000; ++i) os << i << ' ' << i * 1.2345678901 << '\n';
    const std::string text = os.str();
    double acc = 0.0;
    char* end = nullptr;
    for (const char* p = text.c_str(); *p != '\0'; p = end) {
      acc += std::strtod(p, &end);
      if (end == p) break;
    }
    ms.push_back(ms_between(t0, Clock::now()));
    if (acc < 0.0) std::cerr << acc;  // keep the loop observable
  }
  return ms;
}

// ---------------------------------------------------------------- result

void Result::fail(std::string what, std::uint64_t ops) {
  failed += ops;
  if (problems.size() < 20) problems.push_back(std::move(what));
}

void add_stage_metrics(
    Result& r, const Tracer& tracer, const char* op_span,
    const std::vector<std::pair<const char*, const char*>>& stages) {
  const auto self = tracer.self_ms_by_op();
  std::map<std::uint32_t, double> staged;  // op -> time inside stages
  for (const auto& [span, metric] : stages) {
    std::vector<double> per_op;
    if (const auto it = self.find(span); it != self.end()) {
      for (const auto& [op, ms] : it->second) {
        per_op.push_back(ms);
        staged[op] += ms;
      }
    }
    r.layer(metric, median(per_op), "ms");
  }
  std::map<std::uint32_t, double> op_wall_ms;
  for (const Span& s : tracer.spans()) {
    if (std::strcmp(s.name, op_span) == 0) {
      op_wall_ms[s.op] += static_cast<double>(s.end_ns - s.start_ns) / 1e6;
    }
  }
  double wall = 0.0;
  double covered = 0.0;
  for (const auto& [op, ms] : op_wall_ms) {
    wall += ms;
    if (const auto it = staged.find(op); it != staged.end()) {
      covered += it->second;
    }
  }
  r.layer("unaccounted_share", wall > 0.0 ? 1.0 - covered / wall : 0.0,
          "share");
}

void add_end_to_end(Result& r, const std::vector<double>& setup_s,
                    double ops_per_s, double op_p50_ms,
                    const std::vector<double>& tail_ms, double served_permille,
                    const std::string& what) {
  const Tail t = tail(tail_ms);
  r.e2e("setup_s", median(setup_s), "s");
  r.e2e("ops_per_s", ops_per_s, "1/s");
  r.e2e("op_p50_ms", op_p50_ms, "ms");
  r.e2e("op_tail_ms", t.value, "ms");
  r.e2e("peak_rss_mb", peak_rss_mb(), "MB");
  r.e2e("ok_share",
        static_cast<double>(r.attempted - r.failed) /
            static_cast<double>(r.attempted),
        "share");
  r.e2e("served_permille", served_permille, "permille");
  r.counts["served_permille"] = served_permille;
  r.notes.push_back("op_tail_ms is p" +
                    std::to_string(static_cast<int>(t.percentile)) + " of " +
                    std::to_string(t.samples) + " " + what);
}

namespace {
constexpr const char* kObsCounts[] = {
    "oracle.solves", "oracle.skip_bound", "sweep.windows",
    "dinic.augmenting_paths", "local_search.moves_tried"};
}  // namespace

std::map<std::string, std::uint64_t> obs_counts_now() {
  const sectorpack::obs::Snapshot snap = sectorpack::obs::snapshot();
  std::map<std::string, std::uint64_t> out;
  for (const char* name : kObsCounts) out[name] = snap.counter(name);
  return out;
}

void add_obs_counts(Result& r,
                    const std::map<std::string, std::uint64_t>& before) {
  const auto now = obs_counts_now();
  for (const char* name : kObsCounts) {
    r.count(name, static_cast<double>(now.at(name) - before.at(name)),
            "count");
  }
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

void add_missing_layers(Result& r) {
  static const std::pair<const char*, const char*> kAll[] = {
      {"model.load_ms", "ms"},        {"srv.parse_ms", "ms"},
      {"srv.canonicalize_ms", "ms"},  {"srv.cache_ms", "ms"},
      {"solver_ms", "ms"},            {"bounds.flow_ms", "ms"},
      {"verify_ms", "ms"},            {"model.serialize_ms", "ms"},
      {"srv.format_ms", "ms"},        {"session.register_ms", "ms"},
      {"session.delta_ms", "ms"},     {"protocol_ms", "ms"},
      {"replay_gap_ms", "ms"},
      {"srv.request_ms", "ms"},       {"srv.queue_wait_ms", "ms"},
      {"par.busy_share", "share"},    {"srv.cache_hit_share", "share"},
      {"session.dirty_share", "share"},
      {"session.memo_hits", "count"}, {"session.fresh_evals", "count"},
  };
  for (const auto& [name, unit] : kAll) {
    const bool present =
        std::any_of(r.per_layer.begin(), r.per_layer.end(),
                    [&](const Metric& m) { return m.name == name; });
    if (!present) r.layer(name, 0.0, unit);
  }
}

}  // namespace perfbench

namespace {

using namespace perfbench;

std::string json_string(std::string_view s) {
  return "\"" + sectorpack::obs::json_escape(s) + "\"";
}

/// A number with all its digits (JSON has no NaN or infinity: null).
std::string json_full(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string json_metrics(const std::vector<Metric>& metrics) {
  std::ostringstream os;
  os << "{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    os << (i ? "," : "") << json_string(metrics[i].name)
       << ":{\"value\":" << json_full(metrics[i].value)
       << ",\"unit\":" << json_string(metrics[i].unit) << "}";
  }
  os << "}";
  return os.str();
}

Options parse_args(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument("missing value for " + a);
      return argv[++i];
    };
    if (a == "--workload") {
      o.workload = value();
    } else if (a == "--seed") {
      o.seed = std::stoull(value());
    } else if (a == "--seconds") {
      o.seconds = std::stod(value());
    } else if (a == "--trace") {
      o.trace = value() == "1";
    } else if (a == "--small") {
      o.small = true;
    } else if (a == "--trace-out") {
      o.trace_out = value();
    } else if (a == "--mirror-dir") {
      o.mirror_dir = value();
    } else {
      throw std::invalid_argument("unknown argument " + a);
    }
  }
  if (o.workload != "plan" && o.workload != "batch" && o.workload != "serve") {
    throw std::invalid_argument("--workload must be plan, batch or serve");
  }
  if (!(o.seconds > 0.0)) throw std::invalid_argument("--seconds must be > 0");
  return o;
}

}  // namespace

int main(int argc, char** argv) {
  Options o;
  try {
    o = parse_args(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "perfbench_harness: " << e.what() << "\n";
    return 2;
  }
  // Single-threaded solver internals: plan and serve are one closed-loop
  // client; batch brings its own pool of 3 workers. With the main thread
  // that keeps the process at <= 4 busy threads.
  sectorpack::par::ThreadPool::set_global_threads(1);

  const std::vector<double> spin_start = spin_probe(5);
  Tracer tracer;
  Result r;
  try {
    if (o.workload == "plan") r = run_plan(o, tracer);
    if (o.workload == "batch") r = run_batch(o, tracer);
    if (o.workload == "serve") r = run_serve(o, tracer);
  } catch (const std::exception& e) {
    std::cerr << "perfbench_harness: " << o.workload << ": " << e.what()
              << "\n";
    return 1;
  }
  std::vector<double> spin = spin_probe(5);
  spin.insert(spin.end(), spin_start.begin(), spin_start.end());
  r.layer("host.spin_ms", median(spin), "ms");
  add_missing_layers(r);
  if (!o.trace_out.empty() && !tracer.spans().empty()) {
    if (!tracer.write_chrome(o.trace_out)) {
      std::cerr << "perfbench_harness: cannot write " << o.trace_out << "\n";
    }
  }

  std::ostringstream os;
  os << "{\"workload\":" << json_string(o.workload) << ",\"seed\":" << o.seed
     << ",\"trace\":" << (o.trace ? 1 : 0)
     << ",\"correct\":" << (r.failed == 0 ? "true" : "false")
     << ",\"attempted\":" << r.attempted << ",\"failed\":" << r.failed
     << ",\"input_digest\":\"" << std::hex << r.input_digest << std::dec
     << "\",\"end_to_end\":" << json_metrics(r.end_to_end)
     << ",\"per_layer\":" << json_metrics(r.per_layer) << ",\"counts\":{";
  bool first = true;
  for (const auto& [name, value] : r.counts) {
    os << (first ? "" : ",") << json_string(name) << ":" << json_full(value);
    first = false;
  }
  os << "},\"problems\":[";
  for (std::size_t i = 0; i < r.problems.size(); ++i) {
    os << (i ? "," : "") << json_string(r.problems[i]);
  }
  os << "],\"notes\":[";
  for (std::size_t i = 0; i < r.notes.size(); ++i) {
    os << (i ? "," : "") << json_string(r.notes[i]);
  }
  os << "],\"mirror\":[";
  for (std::size_t i = 0; i < r.mirror.size(); ++i) {
    const MirrorCase& m = r.mirror[i];
    os << (i ? "," : "") << "{\"instance_file\":"
       << json_string(m.instance_file) << ",\"solver\":"
       << json_string(m.solver) << ",\"served\":" << json_string(m.served)
       << ",\"bound\":" << json_string(m.bound) << "}";
  }
  os << "]}";
  std::cout << os.str() << std::endl;
  return r.failed == 0 ? 0 : 1;
}
