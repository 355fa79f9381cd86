#include "src/srv/protocol.hpp"

#include <chrono>
#include <cmath>
#include <ostream>
#include <sstream>
#include <stdexcept>

#include "src/model/io.hpp"
#include "src/race/race.hpp"
#include "src/srv/solvers.hpp"

namespace sectorpack::srv {

namespace {

constexpr double kMaxExactInteger = 9007199254740992.0;  // 2^53
constexpr double kMaxTimeLimitSeconds = 1e8;

/// Monitor cadence: the longest an interrupt or a lapsed budget waits
/// before in-flight solves are cancelled when no line is being read.
constexpr std::chrono::milliseconds kDrainPoll{5};

}  // namespace

const char* to_string(RequestStatus status) noexcept {
  switch (status) {
    case RequestStatus::kOk: return "ok";
    case RequestStatus::kBudgetExhausted: return "budget_exhausted";
    case RequestStatus::kInvalid: return "invalid";
    case RequestStatus::kRejected: return "rejected";
  }
  return "unknown";
}

// ------------------------------------------------------------ field helpers

const JsonValue* find_field(const JsonObject& object, const char* name) {
  const auto it = object.find(name);
  return it == object.end() ? nullptr : &it->second;
}

std::string optional_string_field(const JsonObject& object, const char* name) {
  const JsonValue* v = find_field(object, name);
  if (v == nullptr) return {};
  if (v->kind != JsonValue::Kind::kString) {
    throw std::runtime_error(std::string("field '") + name +
                             "' must be a string");
  }
  return v->string;
}

double require_number_field(const JsonObject& object, const char* name) {
  const JsonValue* v = find_field(object, name);
  if (v == nullptr) {
    throw std::runtime_error(std::string("missing field '") + name + "'");
  }
  if (v->kind != JsonValue::Kind::kNumber) {
    throw std::runtime_error(std::string("field '") + name +
                             "' must be a number");
  }
  return v->number;
}

std::uint64_t require_integer(const char* name, double value) {
  if (!(value >= 0.0) || value > kMaxExactInteger ||
      std::floor(value) != value) {
    throw std::runtime_error(std::string("field '") + name +
                             "' must be a non-negative integer");
  }
  return static_cast<std::uint64_t>(value);
}

void check_fields(const JsonObject& object,
                  std::initializer_list<const char*> allowed) {
  for (const auto& [key, value] : object) {
    bool known = false;
    for (const char* name : allowed) {
      if (key == name) {
        known = true;
        break;
      }
    }
    if (!known) throw std::runtime_error("unknown field '" + key + "'");
  }
}

double parse_time_limit(const JsonObject& object) {
  const JsonValue* limit = find_field(object, "time_limit");
  if (limit == nullptr) return -1.0;
  if (limit->kind != JsonValue::Kind::kNumber || !(limit->number >= 0.0) ||
      std::isnan(limit->number)) {
    throw std::runtime_error("field 'time_limit' must be a number >= 0");
  }
  if (limit->number > kMaxTimeLimitSeconds) {
    throw std::runtime_error(
        "field 'time_limit' out of range (max 1e8 seconds)");
  }
  return limit->number;
}

void parse_solve_target(const JsonObject& object, std::string& instance_file,
                        std::string& instance_text, SolverKey& solver) {
  instance_file = optional_string_field(object, "instance_file");
  instance_text = optional_string_field(object, "instance");
  if (instance_file.empty() == instance_text.empty()) {
    throw std::runtime_error(
        "exactly one of 'instance_file' and 'instance' is required");
  }

  const std::string family = optional_string_field(object, "solver");
  if (!family.empty()) solver.family = family;
  if (find_solver_family(solver.family) == nullptr) {
    throw std::runtime_error("unknown solver '" + solver.family + "'");
  }

  if (const JsonValue* seed = find_field(object, "seed")) {
    if (seed->kind != JsonValue::Kind::kNumber) {
      throw std::runtime_error("field 'seed' must be a number");
    }
    solver.seed = require_integer("seed", seed->number);
  }
  if (const JsonValue* iters = find_field(object, "iterations")) {
    if (iters->kind != JsonValue::Kind::kNumber) {
      throw std::runtime_error("field 'iterations' must be a number");
    }
    solver.iterations = require_integer("iterations", iters->number);
  }
  if (const JsonValue* portfolio = find_field(object, "portfolio")) {
    if (portfolio->kind != JsonValue::Kind::kString) {
      throw std::runtime_error("field 'portfolio' must be a string");
    }
    if (solver.family != "race") {
      throw std::runtime_error("field 'portfolio' requires solver 'race'");
    }
    (void)race::parse_portfolio(portfolio->string);
    solver.portfolio = portfolio->string;
  }
}

model::Instance load_target_instance(const std::string& instance_file,
                                     const std::string& instance_text) {
  return instance_file.empty() ? model::instance_from_string(instance_text)
                               : model::read_instance_file(instance_file);
}

// ----------------------------------------------------------- response lines

void write_head(std::ostream& os, std::size_t index, const std::string& id) {
  os << "{\"index\":" << index;
  if (!id.empty()) os << ",\"id\":\"" << obs::json_escape(id) << "\"";
}

std::string error_line(std::size_t index, const std::string& id,
                       RequestStatus status, const std::string& error,
                       const std::string& session) {
  std::ostringstream os;
  write_head(os, index, id);
  if (!session.empty()) {
    os << ",\"session\":\"" << obs::json_escape(session) << "\"";
  }
  os << ",\"status\":\"" << to_string(status) << "\""
     << ",\"error\":\"" << obs::json_escape(error) << "\"}";
  return os.str();
}

// -------------------------------------------------------- status accounting

StatusLedger::StatusLedger(const std::string& prefix, std::size_t slo_window)
    : slo_(slo_window) {
  for (const RequestStatus status :
       {RequestStatus::kOk, RequestStatus::kBudgetExhausted,
        RequestStatus::kInvalid, RequestStatus::kRejected}) {
    c_[static_cast<std::size_t>(status)] =
        obs::counter(prefix + ".requests." + to_string(status));
  }
}

RequestStatus StatusLedger::record_solve(const model::Solution& sol,
                                   double elapsed_ms, obs::SloKind kind) {
  const RequestStatus status = sol.status == model::SolveStatus::kComplete
                                   ? RequestStatus::kOk
                                   : RequestStatus::kBudgetExhausted;
  tally(status);
  slo_.record(elapsed_ms, /*deadline_ok=*/status == RequestStatus::kOk, kind);
  return status;
}

void StatusLedger::record(RequestStatus status) {
  tally(status);
  if (status == RequestStatus::kRejected) {
    slo_.record(0.0, /*deadline_ok=*/false, obs::SloKind::kRejected);
  }
}

void StatusLedger::tally(RequestStatus status) {
  const auto i = static_cast<std::size_t>(status);
  // sp-sync: relaxed tally; the report reads it after every counting
  // thread has been joined.
  n_[i].fetch_add(1, std::memory_order_relaxed);
  c_[i].inc();
}

std::size_t StatusLedger::count(RequestStatus status) const noexcept {
  // sp-sync: relaxed tally (see tally()).
  return n_[static_cast<std::size_t>(status)].load(std::memory_order_relaxed);
}

std::string StatusLedger::publish_slo() const {
  slo_.publish();
  return slo_.summary().to_string();
}

// -------------------------------------------------------------------- drain

Drain::Drain(const char* engine, double time_limit,
             const std::atomic<bool>* interrupt)
    : engine_(engine),
      interrupt_(interrupt),
      global_(time_limit >= 0.0 ? core::Deadline::after(time_limit)
                                : core::Deadline::cancellable()),
      monitor_([this] { watch(); }) {}

void Drain::stop() {
  {
    const core::LockGuard lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  if (monitor_.joinable()) monitor_.join();
}

bool Drain::check() {
  if (draining()) return true;
  // sp-sync: relaxed poll of the caller's interrupt flag; a lag of a few
  // loads only delays the drain by as much.
  const bool interrupted =
      interrupt_ != nullptr && interrupt_->load(std::memory_order_relaxed);
  if (!interrupted && !global_.expired()) return false;
  {
    const core::LockGuard lock(mu_);
    // sp-sync: relaxed read is exact under mu_ -- every draining_ store
    // happens inside this critical section.
    if (!draining_.load(std::memory_order_relaxed)) {
      reason_ = interrupted ? engine_ + " draining (interrupted)"
                            : "global time limit exhausted";
      core::note_expired(("srv." + engine_).c_str());
      draining_.store(true, std::memory_order_release);
    }
  }
  // Every in-flight solve's deadline is an after_at_most child of
  // global_, so this one cancel reaches all of them; a deadline carved
  // out later is born cancelled.
  global_.cancel();
  return true;
}

void Drain::watch() {
  // Once a drain is on there is nothing left to watch for.
  while (!check()) {
    core::UniqueLock lock(mu_);
    if (cv_.wait_for(lock, kDrainPoll, [this] {
          mu_.assert_held();  // CondVar::wait_for re-acquires mu_ around us
          return stop_;
        })) {
      return;
    }
  }
}

}  // namespace sectorpack::srv
