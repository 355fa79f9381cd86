#pragma once
// Shared pieces of the end-to-end benchmark harness: options, the span
// recorder, line-at-a-time stream adapters, statistics, and the result
// record every workload fills in. See README.md for what is measured.

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <streambuf>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double ms_between(Clock::time_point a,
                                       Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool small = false;       // reduced sizes, one fixed pass (count guard)
  std::string trace_out;    // Chrome trace JSON of the traced run
  std::string mirror_dir;   // plan: instance files for the CLI cross-check
};

// --------------------------------------------------------------- tracing
//
// Spans are recorded by the benchmark around its own calls into the
// library, kept in memory, and written out once at the end. A span's
// parent is the span open on the recorder when it began; `op` groups the
// spans of one operation.

struct Span {
  const char* name;
  std::int64_t start_ns;
  std::int64_t end_ns;
  std::int32_t parent;  // index into Tracer::spans(), -1 for a root
  std::uint32_t op;
};

class Tracer {
 public:
  void set_enabled(bool on) { enabled_ = on; }

  /// Open a span; returns its index, or -1 while disabled.
  int begin(const char* name, std::uint32_t op);
  void end(int index);

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

  /// Per (op, name): summed self time (duration minus the part covered by
  /// child spans), in ms. The outer map is keyed by span name.
  [[nodiscard]] std::map<std::string, std::map<std::uint32_t, double>>
  self_ms_by_op() const;

  /// Chrome trace-event JSON ("X" events; args carry op, id and parent).
  bool write_chrome(const std::string& path) const;

 private:
  bool enabled_ = false;
  std::vector<Span> spans_;
  std::vector<int> open_;
  Clock::time_point origin_ = Clock::now();
};

/// RAII span on a Tracer (no-op while the tracer is disabled).
class Scoped {
 public:
  Scoped(Tracer& t, const char* name, std::uint32_t op)
      : t_(t), index_(t.begin(name, op)) {}
  ~Scoped() { t_.end(index_); }
  Scoped(const Scoped&) = delete;
  Scoped& operator=(const Scoped&) = delete;

 private:
  Tracer& t_;
  int index_;
};

// ------------------------------------------------------- stream adapters

/// Input stream buffer that hands the reader one line per read. `next` is
/// called when the reader asks for more input, with the time of the
/// request; it fills `line` (no trailing newline) or returns false at end
/// of input.
class LineSource : public std::streambuf {
 public:
  using Next = std::function<bool(Clock::time_point requested,
                                  std::string& line)>;
  explicit LineSource(Next next) : next_(std::move(next)) {}

 protected:
  int_type underflow() override;

 private:
  Next next_;
  std::string line_;
};

/// Output stream buffer that collects each response line and hands it to
/// `on_line` (without the newline) when its newline arrives; the callback
/// may swap the string out to keep it. Only the line being written is
/// held, so output never accumulates in memory.
class LineSink : public std::streambuf {
 public:
  using OnLine = std::function<void(std::string& line)>;
  explicit LineSink(OnLine on_line) : on_line_(std::move(on_line)) {}

 protected:
  std::streamsize xsputn(const char* s, std::streamsize n) override;
  int_type overflow(int_type c) override;

 private:
  OnLine on_line_;
  std::string line_;
};

// ----------------------------------------------------------- json lines

/// Raw token of `"key":` in a flat JSON object line: a number, or the
/// contents of a string (escapes left as written). Empty when absent.
[[nodiscard]] std::string_view json_field(std::string_view line,
                                          std::string_view key);

/// FNV-1a over `bytes`, continuing from `h`.
[[nodiscard]] std::uint64_t fnv1a(std::string_view bytes,
                                  std::uint64_t h = 1469598103934665603ULL);

/// A response line with its "solve_ms" value cut out: the part of the
/// output that must repeat exactly (the engine's own timing never does).
[[nodiscard]] std::string_view strip_solve_ms(std::string_view line,
                                              std::string& scratch);

// ------------------------------------------------------------ statistics

[[nodiscard]] double median(std::vector<double> v);

/// Tracing overhead: median traced / median untraced time - 1 (0 when
/// either side has no samples).
[[nodiscard]] double overhead(const std::vector<double>& traced,
                              const std::vector<double>& plain);

/// The host's fast phase. On a shared host the program runs in fast and
/// slow phases of one to tens of seconds (ops take up to ~1.7x as long in
/// a slow one), in a mix that differs from run to run, so a median over a
/// whole run lands in either phase. The host only ever adds time, so the
/// timed end-to-end metrics are read from blocks of work short against a
/// phase: each block gives its median latency and its throughput, and the
/// metric is the fastest block's. A change to the program moves every
/// block alike.
[[nodiscard]] double fastest(const std::vector<double>& block_ms);
[[nodiscard]] double highest(const std::vector<double>& block_rate);

/// A tail needs more ops than one block holds: the ops of the `blocks`
/// fastest blocks, pooled. Block b holds ops [b * size, (b + 1) * size) and
/// took `block_ms[b]` (lower is faster).
[[nodiscard]] std::vector<double> fastest_blocks(
    const std::vector<double>& op_ms, std::size_t size,
    const std::vector<double>& block_ms, std::size_t blocks);

/// Where the same `slots` inputs run over and over (op j ran input
/// j % slots), each input is its own block: its fastest time, per input.
[[nodiscard]] std::vector<double> fastest_per_slot(
    const std::vector<double>& op_ms, std::size_t slots);

/// Highest of p50/p75/p90/p95/p99 with at least ten samples above its
/// nearest rank (0 when fewer than 11 samples).
struct Tail {
  double percentile = 0.0;
  double value = 0.0;
  std::size_t samples = 0;
};
[[nodiscard]] Tail tail(std::vector<double> v);

/// Set-up runs kSetups times per run: once before the timed phase, the
/// rest spread evenly across it, so the setup_s median samples the whole
/// run rather than one moment of it. True when rep number `done` (0-based)
/// is due at `progress` (0..1 through the timed phase).
inline constexpr std::size_t kSetups = 11;
[[nodiscard]] inline bool setup_due(std::size_t done, double progress) {
  return done == 0 ||
         (done < kSetups && progress >= (static_cast<double>(done) - 0.5) /
                                            static_cast<double>(kSetups - 1));
}

/// Times of a fixed compute loop, in ms: the host drift probe. The loop
/// formats numbers into text and parses them back with the standard
/// library, not with sectorpack. On a shared host, such branchy text code
/// slows down with the neighbours' load several times as much as a plain
/// arithmetic loop does, and it is where most of the workloads' time goes.
[[nodiscard]] std::vector<double> spin_probe(int reps);

// ---------------------------------------------------------------- result

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

struct MirrorCase {
  std::string instance_file;
  std::string solver;
  std::string served;  // formatted as `sectorpack solve` prints it
  std::string bound;
};

struct Result {
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;
  /// Deterministic counts (plus served_permille): identical on every run
  /// of one seed. The count guard in test_perfbench.py compares them.
  std::map<std::string, double> counts;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> problems;  // failed output checks
  std::uint64_t input_digest = 0;
  std::vector<std::string> notes;
  std::vector<MirrorCase> mirror;

  /// Count `ops` failed ops, keeping the first few reasons.
  void fail(std::string what, std::uint64_t ops = 1);
  void e2e(std::string name, double value, std::string unit) {
    end_to_end.push_back({std::move(name), value, std::move(unit)});
  }
  void layer(std::string name, double value, std::string unit) {
    per_layer.push_back({std::move(name), value, std::move(unit)});
  }
  /// A per-layer count that also enters the count guard.
  void count(const std::string& name, double value, std::string unit) {
    layer(name, value, std::move(unit));
    counts[name] = value;
  }
};

/// Append the per-op self-time medians of `stages` (span name -> metric
/// name; ops that never entered a stage are left out of its median, and a
/// stage no op entered reports 0: that layer did no work on this
/// workload), plus unaccounted_share: the part of the `op_span` root spans'
/// wall time no stage covers.
void add_stage_metrics(
    Result& r, const Tracer& tracer, const char* op_span,
    const std::vector<std::pair<const char*, const char*>>& stages);

/// The end-to-end metrics, in BENCHMARK.json order: setup_s (median of
/// `setup_s`), ops_per_s and op_p50_ms as given, op_tail_ms over `tail_ms`
/// (each workload takes all three from its fast-phase blocks; the tail's
/// percentile and sample count go into a note, `what` naming the ops),
/// peak_rss_mb, ok_share from the op counts, and served_permille (which
/// also enters the count guard).
void add_end_to_end(Result& r, const std::vector<double>& setup_s,
                    double ops_per_s, double op_p50_ms,
                    const std::vector<double>& tail_ms, double served_permille,
                    const std::string& what);

/// Counters read from obs::snapshot() since `before` (same names as the
/// library's own): oracle.solves, oracle.skip_bound, sweep.windows,
/// dinic.augmenting_paths, local_search.moves_tried.
void add_obs_counts(Result& r,
                    const std::map<std::string, std::uint64_t>& before);
[[nodiscard]] std::map<std::string, std::uint64_t> obs_counts_now();

/// Peak resident set of this process, in MB.
[[nodiscard]] double peak_rss_mb();

/// Layer metrics every workload reports (0 where the workload never enters
/// that layer), so each traced run prints the full per-layer set.
void add_missing_layers(Result& r);

Result run_plan(const Options& o, Tracer& tracer);
Result run_batch(const Options& o, Tracer& tracer);
Result run_serve(const Options& o, Tracer& tracer);

}  // namespace perfbench
