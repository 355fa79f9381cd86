#pragma once
// Periodic metric export for long-lived serving processes.
//
// End-of-run snapshots (`--stats json`) answer "what happened overall" but
// nothing mid-flight; a soak run or a dashboard needs the registry state
// *while* the batch is running. `Exporter` owns one background thread that
// snapshots a Registry every `interval_seconds` and
//  * appends a JSON-lines envelope (schema-versioned, ISO-8601 timestamped)
//    to `jsonl_path`, and/or
//  * atomically rewrites `prom_path` with the Prometheus text exposition
//    (format 0.0.4) of the snapshot -- write-to-temp + std::rename, so a
//    scraper never reads a half-written file.
//
// Shutdown is cooperative and prompt: stop() (also run by the destructor)
// wakes the thread, performs one final export so the last snapshot is never
// older than the run's end, and joins. The CLI calls stop() on drain and on
// SIGINT, so `--metrics-out` files are complete even for interrupted runs.
//
// The exporter only *reads* the registry (Registry::snapshot is safe against
// concurrent writers), so instrumented hot paths never block on export IO.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <thread>

#include "src/core/sync.hpp"
#include "src/obs/metrics.hpp"

namespace sectorpack::obs {

/// Version of the `--stats json` / JSONL snapshot envelope. Bump when a
/// field changes meaning; adding fields is backward-compatible and keeps
/// the version (see docs/observability.md).
inline constexpr int kStatsSchemaVersion = 1;

/// `name` mangled into a Prometheus metric name: `sectorpack_` prefix, every
/// character outside [a-zA-Z0-9_] replaced by '_'
/// (e.g. "srv.request_ms" -> "sectorpack_srv_request_ms").
[[nodiscard]] std::string prometheus_name(std::string_view name);

/// Prometheus text exposition (0.0.4) of a snapshot: counters as `counter`,
/// gauges as `gauge`, HDR histograms as `histogram` with cumulative
/// `_bucket{le="..."}` series ending in `le="+Inf"`, plus `_sum`/`_count`.
[[nodiscard]] std::string to_prometheus(const Snapshot& snap);

/// Current UTC wall-clock time as "YYYY-MM-DDThh:mm:ss.mmmZ".
[[nodiscard]] std::string iso8601_utc_now();

/// The schema-versioned snapshot envelope shared by `--stats json` and the
/// JSONL exporter: `{"schema_version":1,"emitted_at":"...","wall_ms":...,
/// ["seq":...,]"counters":...}`. `wall_ms` is the caller's run wall clock;
/// `seq` (the export tick ordinal) is emitted only when >= 0.
[[nodiscard]] std::string stats_envelope_json(const Snapshot& snap,
                                              double wall_ms,
                                              long seq = -1);

struct ExporterConfig {
  double interval_seconds = 10.0;  // clamped to >= 0.01
  std::string prom_path;   // rewritten atomically each tick; empty = off
  std::string jsonl_path;  // appended each tick; empty = off
};

class Exporter {
 public:
  /// Starts the export thread unless both paths are empty (then the
  /// exporter is inert and stop() is a no-op). `registry` must outlive the
  /// exporter; nullptr means the process-global registry.
  explicit Exporter(ExporterConfig config, const Registry* registry = nullptr);
  ~Exporter();
  Exporter(const Exporter&) = delete;
  Exporter& operator=(const Exporter&) = delete;

  /// Wake the thread, write one final export, and join. Idempotent and safe
  /// to call from signal-initiated cleanup paths (not async-signal-safe;
  /// call it from the normal control flow after the flag-style handler).
  void stop();

  /// Export ticks completed so far (including the final one after stop()).
  [[nodiscard]] std::uint64_t ticks() const noexcept;

  /// False once any export IO failed (unwritable path, rename error). The
  /// exporter keeps trying on later ticks; this flag stays false so the CLI
  /// can exit non-zero instead of silently dropping telemetry.
  [[nodiscard]] bool healthy() const noexcept;

 private:
  void run();
  void export_once();

  ExporterConfig config_;
  const Registry* registry_;  // nullptr = Registry::global()
  std::chrono::steady_clock::time_point start_;
  core::Mutex mu_;
  core::CondVar cv_;
  bool stop_requested_ SP_GUARDED_BY(mu_) = false;
  std::atomic<std::uint64_t> ticks_{0};
  std::atomic<bool> healthy_{true};
  bool stopped_ = false;  // join happened (main-thread only)
  std::thread thread_;
};

}  // namespace sectorpack::obs
