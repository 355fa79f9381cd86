#pragma once
// Request machinery shared by the batch engine (engine.hpp) and the serve
// daemon (serve.hpp). Both speak one flat JSON object per input line and
// answer one JSON line per non-blank input line; everything a client can
// observe about that protocol -- field validation, the solve target, the
// response head and error line, status accounting, and drain -- lives
// here once. The two loops themselves stay separate: batch is a concurrent
// pool with a reorder buffer, serve a sequential loop over mutable
// sessions.
//
// Drain: a Drain owns the run's global budget. Without a time limit that
// budget is Deadline::cancellable(), so every per-request or per-op
// deadline is carved out with Deadline::after_at_most(limit,
// drain.global()) and one global.cancel() -- on SIGINT or once the budget
// lapses -- reaches every solve in flight through the deadline cancel
// tree. A monitor thread polls the interrupt flag and the budget until
// the run has answered its last line (so a drain also fires after the
// last line was read); check() does the same poll inline, so the first
// line after an interrupt never slips through the monitor's polling gap.

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <iosfwd>
#include <string>
#include <thread>

#include "src/core/deadline.hpp"
#include "src/core/sync.hpp"
#include "src/model/instance.hpp"
#include "src/model/solution.hpp"
#include "src/obs/metrics.hpp"
#include "src/obs/slo.hpp"
#include "src/srv/fingerprint.hpp"
#include "src/srv/jsonl.hpp"

namespace sectorpack::srv {

/// Per-line outcome, serialized into the response `status` field.
enum class RequestStatus : std::uint8_t {
  kOk = 0,               // solved to completion
  kBudgetExhausted = 1,  // deadline hit; response carries the incumbent
  kInvalid = 2,          // malformed request / instance / unknown solver
  kRejected = 3,         // never started: drain or global budget exhausted
};

[[nodiscard]] const char* to_string(RequestStatus status) noexcept;

// ------------------------------------------------------------ field helpers

/// nullptr when `name` is absent.
[[nodiscard]] const JsonValue* find_field(const JsonObject& object,
                                          const char* name);
/// Empty when absent; throws when present but not a string.
[[nodiscard]] std::string optional_string_field(const JsonObject& object,
                                                const char* name);
/// Throws when absent or not a number.
[[nodiscard]] double require_number_field(const JsonObject& object,
                                          const char* name);
/// `value` as an exact non-negative integer (at most 2^53: a double that
/// cannot name one integer exactly is a typo, not a request). Throws
/// naming `name` otherwise.
[[nodiscard]] std::uint64_t require_integer(const char* name, double value);
/// Throws "unknown field '<key>'" for the first key outside `allowed`: a
/// typo'd `time_limt` must not silently solve without a budget.
void check_fields(const JsonObject& object,
                  std::initializer_list<const char*> allowed);

/// The optional `time_limit` field in seconds; -1 when absent. Throws
/// unless it is a number in [0, 1e8]: budgets beyond ~3 years are
/// indistinguishable from "no limit" (Deadline::after clamps as well --
/// defense in depth).
[[nodiscard]] double parse_time_limit(const JsonObject& object);

/// The solve target shared by a batch request and a serve `register`:
/// exactly one of `instance_file` / `instance`, plus `solver`, `seed`,
/// `iterations` and `portfolio` (race only, validated here so a bad
/// portfolio is an invalid line, not a failed solve). Throws naming the
/// offending field.
void parse_solve_target(const JsonObject& object, std::string& instance_file,
                        std::string& instance_text, SolverKey& solver);

/// The instance a solve target names: parsed from `instance_text` when
/// `instance_file` is empty, read from the file otherwise. Throws on
/// unreadable or malformed input.
[[nodiscard]] model::Instance load_target_instance(
    const std::string& instance_file, const std::string& instance_text);

// ----------------------------------------------------------- response lines

/// Opens a response line: `{"index":N` plus `,"id":"..."` when `id` is
/// non-empty. Callers append their fields and the closing brace.
void write_head(std::ostream& os, std::size_t index, const std::string& id);

/// A complete unsolved response line (no newline):
/// `{"index","id"?,"session"?,"status","error"}`.
[[nodiscard]] std::string error_line(std::size_t index, const std::string& id,
                                     RequestStatus status,
                                     const std::string& error,
                                     const std::string& session = {});

// -------------------------------------------------------- status accounting

/// Per-run status accounting: the `<prefix>.requests.<status>` counters,
/// the run's own tallies (for the report), and the rolling SLO window.
/// Thread-safe; the batch engine counts from its workers.
class StatusLedger {
 public:
  StatusLedger(const std::string& prefix, std::size_t slo_window);

  /// Count a solved line -- `ok` when the solution is complete,
  /// `budget_exhausted` otherwise -- and record its latency in the SLO
  /// window as `kind`. Returns the status.
  RequestStatus record_solve(const model::Solution& sol, double elapsed_ms,
                       obs::SloKind kind = obs::SloKind::kSolve);

  /// Count a line answered without a solve (invalid, rejected, or serve's
  /// `close`). A rejected line is a deadline miss from the client's point
  /// of view -- it asked and got no answer -- so it drags the SLO deadline
  /// hit-rate down; an invalid line is a client error, not a service
  /// failure, and is deliberately not recorded.
  void record(RequestStatus status);

  [[nodiscard]] std::size_t count(RequestStatus status) const noexcept;

  /// Publish the SLO window into the `slo.*` gauges (so `--stats json` and
  /// the exporter's final tick carry it) and return its summary line.
  [[nodiscard]] std::string publish_slo() const;

 private:
  void tally(RequestStatus status);

  std::array<std::atomic<std::size_t>, 4> n_{};
  std::array<obs::Counter, 4> c_;
  obs::SloTracker slo_;
};

// -------------------------------------------------------------------- drain

/// Drain control for one run (see the header comment). `engine` names the
/// caller ("batch" or "serve"): it appears in the interrupt reason and in
/// the `deadline.expired.srv.<engine>` counter, bumped once per drain.
class Drain {
 public:
  /// `time_limit` < 0 means no global budget; `interrupt` may be null.
  /// Starts the monitor thread.
  Drain(const char* engine, double time_limit,
        const std::atomic<bool>* interrupt);
  ~Drain() { stop(); }
  Drain(const Drain&) = delete;
  Drain& operator=(const Drain&) = delete;

  /// The global cap every per-request deadline is carved out of.
  [[nodiscard]] const core::Deadline& global() const noexcept {
    return global_;
  }

  /// Poll the interrupt flag and the global budget, starting the drain on
  /// either; true once a drain is on.
  [[nodiscard]] bool check();

  /// True once a drain has started; unlike check(), never starts one.
  [[nodiscard]] bool draining() const noexcept {
    return draining_.load(std::memory_order_acquire);
  }

  /// Stop and join the monitor once the run has answered its last line,
  /// so no drain starts after the report is taken. The monitor is woken
  /// through a condition variable: teardown never waits out a polling
  /// interval. Idempotent.
  void stop();

  /// Why the drain started, for the `rejected` error lines. Valid once
  /// check() or draining() returned true.
  [[nodiscard]] const std::string& reason() const noexcept { return reason_; }

 private:
  void watch();

  const std::string engine_;
  const std::atomic<bool>* interrupt_;
  core::Deadline global_;
  std::atomic<bool> draining_{false};
  // Written once under mu_ strictly before the release-store of draining_;
  // readers see it only after draining() observes true (acquire), so it
  // is immutable from their perspective.
  std::string reason_;

  core::Mutex mu_;
  core::CondVar cv_;
  bool stop_ SP_GUARDED_BY(mu_) = false;
  std::thread monitor_;
};

}  // namespace sectorpack::srv
