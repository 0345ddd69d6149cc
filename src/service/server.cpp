#include "service/server.hpp"

#include <errno.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <istream>
#include <limits>
#include <new>
#include <ostream>
#include <span>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <utility>

#include "automotive/analyzer.hpp"
#include "automotive/archfile.hpp"
#include "automotive/diagnostics.hpp"
#include "automotive/transform.hpp"
#include "csl/checkpoint.hpp"
#include "csl/property_parser.hpp"
#include "csl/session.hpp"
#include "service/shard.hpp"
#include "service/transport.hpp"
#include "util/budget.hpp"
#include "util/cancel.hpp"
#include "util/drain.hpp"
#include "util/failure.hpp"
#include "util/fault.hpp"
#include "util/log.hpp"
#include "util/metrics.hpp"
#include "util/numeric.hpp"
#include "util/parallel.hpp"

namespace autosec::service {

namespace {

using automotive::SecurityCategory;
using util::JsonValue;

/// Client mistakes discovered after parsing (missing file, unknown message,
/// invalid architecture or property); carries the structured error of the
/// response.
class RequestError : public std::runtime_error {
 public:
  explicit RequestError(ErrorInfo info)
      : std::runtime_error(info.message), info_(std::move(info)) {}
  const ErrorInfo& info() const { return info_; }

 private:
  ErrorInfo info_;
};

[[noreturn]] void bad_request(const std::string& message) {
  throw RequestError({"bad_request", message, ""});
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) bad_request("cannot open architecture file '" + path + "'");
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

std::string hex64(uint64_t value) {
  static const char* digits = "0123456789abcdef";
  std::string out(16, '0');
  for (int i = 15; i >= 0; --i) {
    out[static_cast<size_t>(i)] = digits[value & 0xf];
    value >>= 4;
  }
  return out;
}

/// Categories of an analyze grid: explicit list or the standard three.
std::vector<SecurityCategory> grid_categories(const Request& request) {
  if (!request.categories.empty()) return request.categories;
  return {SecurityCategory::kConfidentiality, SecurityCategory::kIntegrity,
          SecurityCategory::kAvailability};
}

/// Session-key kind prefix of an op.
const char* key_kind(Op op) {
  switch (op) {
    case Op::kAnalyze: return "batch";
    case Op::kCheck:
    case Op::kSweep:
    case Op::kDiagnose: return "single";
    case Op::kStatus: return "status";
  }
  return "status";
}

/// Session-cache key: architecture content digest + every knob that changes
/// the transformed model or the solver configuration baked into the session.
/// Constant overrides and the horizon are deliberately NOT part of the key —
/// the session re-keys its own stage cache per override set (that is what
/// makes sweeps cheap) and the horizon only appears in property texts.
std::string make_key(uint64_t digest, const Request& request) {
  std::string key(key_kind(request.op));
  key += ':';
  key += hex64(digest);
  key += ";nmax=";
  key += std::to_string(request.nmax);
  // Different engine → potentially different state enumeration (compact
  // turns symmetry reduction on); never share a cached session across
  // engine choices.
  key += ";engine=";
  key += symbolic::engine_token(request.engine);
  // The model family changes the transformed model entirely — a cached ctmc
  // session must never answer an mdp request. Suffix only when non-default so
  // every pre-existing ctmc key is unchanged.
  if (request.model_type == symbolic::ModelType::kMdp) key += ";mt=mdp";
  if (request.op == Op::kAnalyze) {
    key += ";msgs=";
    for (const std::string& message : request.messages) {
      key += message;
      key += ',';
    }
    key += ";cats=";
    for (const SecurityCategory category : grid_categories(request)) {
      key += automotive::category_key(category);
      key += ',';
    }
  } else {
    key += ";msg=";
    key += request.message;
    key += ";cat=";
    key += automotive::category_key(request.category);
  }
  return key;
}

/// Per-request cancel token: armed when the request (or the server default)
/// carries a timeout. timeout_ms == 0 arms an already-expired deadline, so
/// the very first engine safepoint unwinds — the deterministic timeout path.
std::shared_ptr<util::CancelToken> make_token(
    const Request& request, const std::optional<int64_t>& fallback_ms) {
  const std::optional<int64_t> ms =
      request.timeout_ms ? request.timeout_ms : fallback_ms;
  if (!ms) return nullptr;
  auto token = std::make_shared<util::CancelToken>();
  token->set_deadline_after(std::chrono::milliseconds(*ms));
  return token;
}

/// Per-request resource meter. Always non-null: ceilings of 0 mean the
/// request set no limit, but the meter still records the peak bytes the
/// engine charged — the observation the admission controller's working-set
/// estimate learns from. Budgets are deliberately NOT part of the cache key:
/// they bound one request's work, they do not change the model or the
/// session's stages.
std::shared_ptr<util::ResourceBudget> make_budget(const Request& request) {
  const size_t max_states =
      request.max_states ? static_cast<size_t>(*request.max_states) : 0;
  const size_t max_bytes =
      request.max_memory_mb
          ? static_cast<size_t>(*request.max_memory_mb) * 1024 * 1024
          : 0;
  return std::make_shared<util::ResourceBudget>(max_states, max_bytes);
}

/// Engine knobs of one request, shared by every op.
automotive::AnalysisOptions engine_options(
    const Request& request, std::shared_ptr<util::CancelToken> token,
    std::shared_ptr<util::ResourceBudget> budget) {
  automotive::AnalysisOptions options;
  options.nmax = request.nmax;
  options.horizon_years = request.horizon_years;
  options.constant_overrides = request.overrides;
  options.model_type = request.model_type;
  options.plan.engine = request.engine;
  options.cancel = std::move(token);
  options.budget = std::move(budget);
  return options;
}

/// Parse the architecture text and check every message name the request
/// targets, mapping each failure to bad_request (the client named a bad file
/// or message, not an engine defect). Runs before any transform or solve.
automotive::Architecture parse_architecture_checked(const std::string& content,
                                                    const Request& request) {
  automotive::Architecture arch;
  try {
    arch = automotive::parse_architecture(content);
  } catch (const std::exception& error) {
    bad_request("invalid architecture '" + request.architecture + "': " + error.what());
  }
  const auto require = [&](const std::string& name) {
    if (std::none_of(arch.messages.begin(), arch.messages.end(),
                     [&](const automotive::Message& m) { return m.name == name; })) {
      bad_request("unknown message '" + name + "'");
    }
  };
  if (request.op == Op::kAnalyze) {
    for (const std::string& name : request.messages) require(name);
  } else {
    require(request.message);
  }
  return arch;
}

/// The "detail" object of an engine-failure envelope: only the progress
/// fields the failing stage actually reported.
JsonValue progress_to_json(const util::FailureProgress& progress) {
  JsonValue detail = JsonValue::object();
  if (progress.states_explored) {
    detail["states_explored"] = JsonValue::number(*progress.states_explored);
  }
  if (progress.frontier_size) {
    detail["frontier_size"] = JsonValue::number(*progress.frontier_size);
  }
  if (progress.last_command) {
    detail["last_command"] = JsonValue::string(*progress.last_command);
  }
  if (progress.iterations) {
    detail["iterations"] = JsonValue::number(*progress.iterations);
  }
  if (progress.residual) {
    detail["residual"] = JsonValue::number(*progress.residual);
  }
  if (progress.limit) detail["limit"] = JsonValue::number(*progress.limit);
  if (progress.charged_bytes) {
    detail["charged_bytes"] = JsonValue::number(*progress.charged_bytes);
  }
  return detail;
}

JsonValue result_to_json(const automotive::AnalysisResult& result) {
  JsonValue out = JsonValue::object();
  out["message"] = JsonValue::string(result.message);
  out["category"] = JsonValue::string(automotive::category_name(result.category));
  out["exploitable_fraction"] = JsonValue::number(result.exploitable_fraction);
  out["breach_probability"] = JsonValue::number(result.breach_probability);
  out["steady_state_fraction"] = JsonValue::number(result.steady_state_fraction);
  // +inf (breach not certain) serializes as null per the JSON convention.
  out["mean_time_to_breach"] = JsonValue::number(result.mean_time_to_breach);
  return out;
}

csl::Property parse_property_checked(const std::string& text) {
  try {
    return csl::parse_property(text);
  } catch (const std::exception& error) {
    bad_request("invalid property '" + text + "': " + error.what());
  }
}

/// Session-cache factory of the cached ops: the whole-vehicle batch model for
/// analyze, one (message, category) model for check, sweep and diagnose. On a
/// cache hit it never runs, and needs not: the key carries the content digest
/// and the message names this factory already validated.
automotive::BatchSession build_session(const Request& request,
                                       const std::string& content) {
  const automotive::Architecture arch = parse_architecture_checked(content, request);
  const automotive::AnalysisOptions options = engine_options(request, nullptr, nullptr);
  try {
    if (request.op == Op::kAnalyze) {
      return automotive::make_batch_session(arch, options, grid_categories(request),
                                            request.messages);
    }
    return automotive::make_pair_session(arch, request.message, request.category,
                                         options);
  } catch (const automotive::ArchitectureError& error) {
    bad_request(std::string("cannot transform architecture: ") + error.what());
  }
}

/// Re-key the session's stage cache when the override set changed; an equal
/// set keeps the active stages.
void rekey(csl::EngineSession& session,
           std::vector<std::pair<std::string, symbolic::Value>> overrides) {
  if (csl::override_cache_key(overrides) !=
      csl::override_cache_key(session.options().constant_overrides)) {
    session.set_constant_overrides(std::move(overrides));
  }
}

// The engine calls of the cached ops. Each appends its fields to a result
// that already names the architecture.

void analyze_into(JsonValue& result, automotive::BatchSession& batch,
                  const automotive::AnalysisOptions& options) {
  const automotive::ArchitectureReport report =
      automotive::analyze_batch_session(batch, options);
  result["horizon_years"] = JsonValue::number(options.horizon_years);
  JsonValue results = JsonValue::array();
  for (const automotive::AnalysisResult& r : report.results) {
    results.push_back(result_to_json(r));
  }
  result["results"] = std::move(results);
}

void check_into(JsonValue& result, csl::EngineSession& session, const Request& request,
                const std::vector<csl::Property>& properties) {
  std::vector<double> values;
  std::vector<JsonValue> strategies;
  if (request.strategy) {
    // Strategy export solves per property (the scheduler is per-objective);
    // properties that cannot carry one (rewards, steady state) fail the
    // whole request with the engine's typed error.
    for (const csl::Property& property : properties) {
      const csl::StrategyCheck checked = session.check_with_strategy(property);
      values.push_back(checked.value);
      strategies.push_back(session.strategy_document(property, checked.strategy));
    }
  } else {
    values = session.check_all(std::span<const csl::Property>(properties));
  }
  result["message"] = JsonValue::string(request.message);
  result["category"] = JsonValue::string(automotive::category_name(request.category));
  JsonValue rows = JsonValue::array();
  for (size_t i = 0; i < properties.size(); ++i) {
    JsonValue row = JsonValue::object();
    row["property"] = JsonValue::string(request.properties[i]);
    row["value"] = JsonValue::number(values[i]);
    if (i < strategies.size()) row["strategy"] = std::move(strategies[i]);
    rows.push_back(std::move(row));
  }
  result["properties"] = std::move(rows);
}

void sweep_into(JsonValue& result, csl::EngineSession& session, const Request& request) {
  const double horizon = request.horizon_years;
  const csl::Property property =
      csl::parse_property(automotive::exposure_property(horizon));
  JsonValue points = JsonValue::array();
  // The points run sequentially on the one session: each value re-keys the
  // stage cache (a value seen before hits its cached stages), and the solves
  // themselves parallelize inside the kernels.
  for (const double value : request.values) {
    std::vector<std::pair<std::string, symbolic::Value>> overrides = request.overrides;
    overrides.emplace_back(request.constant, symbolic::Value::of(value));
    rekey(session, std::move(overrides));
    JsonValue point = JsonValue::object();
    point["value"] = JsonValue::number(value);
    point["exploitable_fraction"] = JsonValue::number(session.check(property) / horizon);
    points.push_back(std::move(point));
  }
  result["message"] = JsonValue::string(request.message);
  result["category"] = JsonValue::string(automotive::category_name(request.category));
  result["constant"] = JsonValue::string(request.constant);
  result["horizon_years"] = JsonValue::number(horizon);
  result["points"] = std::move(points);
}

void diagnose_into(JsonValue& result, csl::EngineSession& session,
                   const Request& request, const std::string& content) {
  const automotive::Diagnosis diagnosis = automotive::diagnose(
      session, parse_architecture_checked(content, request), request.horizon_years);
  result["message"] = JsonValue::string(request.message);
  result["category"] = JsonValue::string(automotive::category_name(request.category));

  JsonValue criticality = JsonValue::array();
  for (const automotive::Criticality& c : diagnosis.criticality) {
    JsonValue row = JsonValue::object();
    row["constant"] = JsonValue::string(c.constant);
    row["value"] = JsonValue::number(c.base_value);
    row["elasticity"] = JsonValue::number(c.elasticity);
    criticality.push_back(std::move(row));
  }
  result["criticality"] = std::move(criticality);

  JsonValue breach = JsonValue::object();
  breach["total_breach_probability"] =
      JsonValue::number(diagnosis.first_breach.total_breach_probability);
  JsonValue attributions = JsonValue::array();
  for (const automotive::BreachAttribution& a : diagnosis.first_breach.attributions) {
    JsonValue row = JsonValue::object();
    row["component"] = JsonValue::string(a.component);
    row["probability"] = JsonValue::number(a.probability);
    attributions.push_back(std::move(row));
  }
  breach["attributions"] = std::move(attributions);
  result["first_breach"] = std::move(breach);

  JsonValue quantiles = JsonValue::array();
  for (size_t i = 0; i < automotive::kBreachQuantileLevels.size(); ++i) {
    JsonValue row = JsonValue::object();
    row["quantile"] = JsonValue::number(automotive::kBreachQuantileLevels[i]);
    // +inf (quantile beyond max_years) serializes as null.
    row["years"] = JsonValue::number(diagnosis.quantile_years[i]);
    quantiles.push_back(std::move(row));
  }
  result["breach_time_quantiles"] = std::move(quantiles);
}

/// Ops whose result depends only on the request identity + architecture
/// content — safe to replay from the disk cache. Status reports live server
/// state and is never cached.
bool disk_cacheable(Op op) { return op != Op::kStatus; }

/// Disk-cache key: the session key (architecture content digest + every
/// engine knob) extended with everything the session deliberately leaves out
/// because it re-keys per call — the op, the horizon, constant overrides,
/// property texts, and sweep values. Numbers go through util::json_number so
/// the key is exact, not printf-rounded. Timeouts and resource budgets stay
/// out: they bound the work, they do not change a successful result.
std::string make_disk_key(const Request& request, uint64_t digest) {
  std::string key(op_name(request.op));
  key += '|';
  key += make_key(digest, request);
  key += ";h=";
  key += util::json_number(request.horizon_years);
  key += ";ov=";
  key += csl::override_cache_key(request.overrides);
  if (request.op == Op::kCheck) {
    key += ";props=";
    for (const std::string& property : request.properties) {
      key += property;
      key += '\x1f';
    }
    // A strategy-bearing response carries more than the plain one; the two
    // must not share a disk entry. (The session key is unaffected — the same
    // session answers both.)
    if (request.strategy) key += ";strat=1";
  } else if (request.op == Op::kSweep) {
    key += ";const=";
    key += request.constant;
    key += ";vals=";
    for (const double value : request.values) {
      key += util::json_number(value);
      key += '\x1f';
    }
  }
  return key;
}

/// Startup merge of --config over the command-line flags, so
/// constructor-time sizing (cache capacity, admission, disk-cache quota)
/// already reflects the file. A bad file throws: startup fails loudly,
/// unlike a reload (where the previous config stays in force).
ServerOptions with_startup_config(ServerOptions options) {
  if (options.config_path.empty()) return options;
  const ServeConfig config = ServeConfig::from_file(options.config_path);
  if (config.max_inflight) options.max_inflight = *config.max_inflight;
  if (config.max_load_mb) options.max_load_mb = *config.max_load_mb;
  if (config.max_connections) options.max_connections = *config.max_connections;
  if (config.cache_capacity) options.cache_capacity = *config.cache_capacity;
  if (config.disk_cache_mb) options.disk_cache_mb = *config.disk_cache_mb;
  if (config.checkpoint_interval_ms) {
    options.checkpoint_interval_ms = *config.checkpoint_interval_ms;
  }
  if (config.default_timeout_ms) {
    if (*config.default_timeout_ms < 0) {
      options.default_timeout_ms = std::nullopt;
    } else {
      options.default_timeout_ms = *config.default_timeout_ms;
    }
  }
  if (config.max_batch) options.max_batch = *config.max_batch;
  if (config.watchdog_ms) options.watchdog_ms = *config.watchdog_ms;
  if (config.log_level) {
    util::set_log_level(util::parse_log_level(*config.log_level));
  }
  return options;
}

}  // namespace

Server::Server(ServerOptions options)
    : options_(with_startup_config(std::move(options))),
      cache_(options_.cache_capacity),
      admission_(AdmissionOptions{options_.max_inflight, options_.max_load_mb,
                                  options_.deterministic}) {
  if (!options_.disk_cache_dir.empty()) {
    disk_cache_ = std::make_unique<DiskCache>(
        options_.disk_cache_dir, options_.disk_cache_mb * (size_t{1} << 20));
  }
  if (!options_.checkpoint_dir.empty()) {
    // Fail fast: an unusable checkpoint directory discovered on the first
    // request would silently disable the crash-durability the operator asked
    // for.
    std::error_code ec;
    std::filesystem::create_directories(options_.checkpoint_dir, ec);
    if (ec || !std::filesystem::is_directory(options_.checkpoint_dir)) {
      throw std::runtime_error("serve: cannot create checkpoint directory '" +
                               options_.checkpoint_dir + "'" +
                               (ec ? ": " + ec.message() : ""));
    }
  }
  default_timeout_ms_.store(options_.default_timeout_ms.value_or(-1),
                            std::memory_order_relaxed);
  max_batch_.store(options_.max_batch, std::memory_order_relaxed);
  checkpoint_interval_ms_.store(options_.checkpoint_interval_ms,
                                std::memory_order_relaxed);
  watchdog_ms_.store(options_.watchdog_ms, std::memory_order_relaxed);
  max_connections_ =
      std::make_shared<std::atomic<size_t>>(options_.max_connections);
  if (!options_.config_path.empty()) {
    // Re-derive the canonical form for status; with_startup_config already
    // validated the file, so a racing edit here at worst blanks the surface.
    try {
      active_config_ = ServeConfig::from_file(options_.config_path).canonical();
    } catch (const std::exception&) {
      active_config_.clear();
    }
  }
}

std::optional<int64_t> Server::effective_timeout() const {
  const int64_t ms = default_timeout_ms_.load(std::memory_order_relaxed);
  if (ms < 0) return std::nullopt;
  return ms;
}

std::shared_ptr<csl::CheckpointLedger> Server::make_ledger(
    const Request& request, uint64_t digest, RequestMetrics& metrics) {
  if (options_.checkpoint_dir.empty()) return nullptr;
  csl::CheckpointOptions checkpoint_options;
  checkpoint_options.dir = options_.checkpoint_dir;
  // The full request identity (op + content digest + every knob): a model
  // edit or a different question hashes to a different ledger file and can
  // never replay a stale value.
  checkpoint_options.identity = make_disk_key(request, digest);
  checkpoint_options.interval_ms =
      checkpoint_interval_ms_.load(std::memory_order_relaxed);
  try {
    auto ledger = std::make_shared<csl::CheckpointLedger>(checkpoint_options);
    metrics.checkpoint_records = ledger->load();
    return ledger;
  } catch (const std::exception& error) {
    AUTOSEC_LOG_WARN("serve")
        << "checkpoint disabled for request: " << error.what();
    return nullptr;
  }
}

void Server::apply_config(const ServeConfig& config) {
  const AdmissionController::Stats admission_stats = admission_.stats();
  admission_.set_limits(
      config.max_inflight.value_or(admission_stats.max_inflight),
      config.max_load_mb.value_or(admission_stats.max_load_mb));
  if (config.max_connections) {
    max_connections_->store(*config.max_connections,
                            std::memory_order_relaxed);
  }
  if (config.cache_capacity) cache_.set_capacity(*config.cache_capacity);
  if (config.disk_cache_mb && disk_cache_) {
    disk_cache_->set_quota(*config.disk_cache_mb * (size_t{1} << 20));
  }
  if (config.checkpoint_interval_ms) {
    checkpoint_interval_ms_.store(*config.checkpoint_interval_ms,
                                  std::memory_order_relaxed);
  }
  if (config.default_timeout_ms) {
    default_timeout_ms_.store(*config.default_timeout_ms < 0
                                  ? int64_t{-1}
                                  : *config.default_timeout_ms,
                              std::memory_order_relaxed);
  }
  if (config.max_batch) {
    max_batch_.store(*config.max_batch, std::memory_order_relaxed);
  }
  if (config.watchdog_ms) {
    watchdog_ms_.store(*config.watchdog_ms, std::memory_order_relaxed);
  }
  if (config.log_level) {
    util::set_log_level(util::parse_log_level(*config.log_level));
  }
  {
    std::lock_guard<std::mutex> lock(config_mutex_);
    active_config_ = config.canonical();
  }
  config_reloads_.fetch_add(1, std::memory_order_relaxed);
  util::metrics::registry().add("serve.config_reloads");
}

bool Server::apply_config_text(const std::string& text) {
  try {
    apply_config(ServeConfig::parse(text));
    return true;
  } catch (const std::exception& error) {
    AUTOSEC_LOG_WARN("serve")
        << "config reload rejected (previous configuration stays in "
           "force): "
        << error.what();
    return false;
  }
}

bool Server::reload_config_file() {
  if (options_.config_path.empty()) return false;
  try {
    apply_config(ServeConfig::from_file(options_.config_path));
    AUTOSEC_LOG_INFO("serve")
        << "config reloaded from '" << options_.config_path << "'";
    return true;
  } catch (const std::exception& error) {
    AUTOSEC_LOG_WARN("serve")
        << "config reload rejected (previous configuration stays in "
           "force): "
        << error.what();
    return false;
  }
}

std::string Server::active_config() const {
  std::lock_guard<std::mutex> lock(config_mutex_);
  return active_config_.empty() ? "{}" : active_config_;
}

void Server::reload_watch_loop() {
  // A short poll (rather than blocking forever) lets run() stop this thread
  // on paths that finish without a drain signal (stdin EOF).
  while (!reload_stop_.load(std::memory_order_relaxed)) {
    pollfd fds[1] = {{util::reload_fd(), POLLIN, 0}};
    ::poll(fds, 1, 200);
    if (util::consume_reload()) reload_config_file();
  }
}

util::JsonValue Server::run_cached(const Request& request, const Source& source,
                                   RequestMetrics& metrics) {
  // Client mistakes first: property texts parse before any engine work.
  std::vector<csl::Property> properties;
  properties.reserve(request.properties.size());
  for (const std::string& text : request.properties) {
    properties.push_back(parse_property_checked(text));
  }

  const std::string key = make_key(source.digest, request);
  bool hit = false;
  const auto entry = cache_.acquire(
      key, [&] { return build_session(request, source.content); }, &hit);
  std::lock_guard<std::mutex> lock(entry->mutex);
  metrics.session_cache = hit ? "hit" : "miss";
  metrics.cache_key = key;
  automotive::BatchSession& batch = entry->batch;
  csl::EngineSession& session = *batch.session;

  // Arm this request's deadline, meter and ledger on the long-lived session;
  // the guard disarms all three on every exit, so none outlives the request.
  metrics.budget = make_budget(request);
  automotive::AnalysisOptions options =
      engine_options(request, make_token(request, effective_timeout()), metrics.budget);
  options.checkpoint = make_ledger(request, source.digest, metrics);
  rekey(session, options.constant_overrides);
  session.set_cancel_token(options.cancel);
  session.set_resource_budget(options.budget);
  session.set_checkpoint(options.checkpoint);
  struct Disarm {
    csl::EngineSession& session;
    ~Disarm() {
      session.set_cancel_token(nullptr);
      session.set_resource_budget(nullptr);
      session.set_checkpoint(nullptr);
    }
  } disarm{session};
  const csl::SessionStats before = session.stats();

  JsonValue result = JsonValue::object();
  result["architecture"] = JsonValue::string(batch.architecture_name);
  switch (request.op) {
    case Op::kAnalyze: analyze_into(result, batch, options); break;
    case Op::kCheck: check_into(result, session, request, properties); break;
    case Op::kSweep: sweep_into(result, session, request); break;
    case Op::kDiagnose: diagnose_into(result, session, request, source.content); break;
    case Op::kStatus: bad_request("op has no cached session");
  }

  if (options.checkpoint) {
    options.checkpoint->flush();
    metrics.checkpoint_hits = options.checkpoint->resumed_hits();
    metrics.checkpoint_records = options.checkpoint->size();
  }
  const csl::SessionStats& after = session.stats();
  metrics.explores = after.explore_count - before.explore_count;
  metrics.solver_fallbacks = after.solver_fallbacks - before.solver_fallbacks;
  // An empty engine means nothing was ever explored (an analyze grid without
  // messages): report no states rather than exploring just to count them.
  if (!after.engine.empty()) {
    metrics.engine = after.engine;
    metrics.states = session.space().state_count();
  }
  return result;
}

util::JsonValue Server::run_status(const Request&, RequestMetrics&) {
  const SessionCache::Stats stats = cache_.stats();
  JsonValue result = JsonValue::object();
  // What this build of the service can do, for clients negotiating features
  // (the machine-readable request schema is tools/serve_schema.json).
  JsonValue capabilities = JsonValue::object();
  capabilities["schema_version"] = JsonValue::string(std::string(kSchemaVersion));
  JsonValue ops = JsonValue::array();
  for (const char* op : {"analyze", "check", "sweep", "diagnose", "status"}) {
    ops.push_back(JsonValue::string(op));
  }
  capabilities["ops"] = std::move(ops);
  JsonValue model_types = JsonValue::array();
  model_types.push_back(JsonValue::string("ctmc"));
  model_types.push_back(JsonValue::string("mdp"));
  capabilities["model_types"] = std::move(model_types);
  capabilities["strategy_export"] = JsonValue::boolean(true);
  result["capabilities"] = std::move(capabilities);
  JsonValue cache = JsonValue::object();
  cache["entries"] = JsonValue::number(stats.entries);
  cache["capacity"] = JsonValue::number(stats.capacity);
  cache["hits"] = JsonValue::number(stats.hits);
  cache["misses"] = JsonValue::number(stats.misses);
  cache["evictions"] = JsonValue::number(stats.evictions);
  result["cache"] = std::move(cache);
  const AdmissionController::Stats admission_stats = admission_.stats();
  JsonValue admission = JsonValue::object();
  admission["admitted"] = JsonValue::number(admission_stats.admitted);
  admission["shed"] = JsonValue::number(admission_stats.shed);
  admission["inflight"] = JsonValue::number(admission_stats.inflight);
  admission["max_inflight"] = JsonValue::number(admission_stats.max_inflight);
  admission["max_load_mb"] = JsonValue::number(admission_stats.max_load_mb);
  result["admission"] = std::move(admission);
  if (disk_cache_) {
    const DiskCache::Stats disk_stats = disk_cache_->stats();
    JsonValue disk = JsonValue::object();
    disk["hits"] = JsonValue::number(disk_stats.hits);
    disk["misses"] = JsonValue::number(disk_stats.misses);
    disk["stores"] = JsonValue::number(disk_stats.stores);
    disk["corrupt"] = JsonValue::number(disk_stats.corrupt);
    disk["evictions"] = JsonValue::number(disk_stats.evictions);
    disk["fsck_removed"] = JsonValue::number(disk_stats.fsck_removed);
    disk["size_bytes"] = JsonValue::number(disk_stats.size_bytes);
    disk["quota_bytes"] = JsonValue::number(disk_stats.quota_bytes);
    result["disk_cache"] = std::move(disk);
  } else {
    result["disk_cache"] = JsonValue::null();
  }
  if (!options_.checkpoint_dir.empty()) {
    JsonValue checkpoint = JsonValue::object();
    checkpoint["dir"] = JsonValue::string(options_.checkpoint_dir);
    checkpoint["interval_ms"] = JsonValue::number(
        checkpoint_interval_ms_.load(std::memory_order_relaxed));
    result["checkpoint"] = std::move(checkpoint);
  } else {
    result["checkpoint"] = JsonValue::null();
  }
  // The operational knobs as they stand right now — how an operator verifies
  // a SIGHUP reload actually landed.
  JsonValue config = JsonValue::object();
  config["path"] = options_.config_path.empty()
                       ? JsonValue::null()
                       : JsonValue::string(options_.config_path);
  config["reloads"] =
      JsonValue::number(config_reloads_.load(std::memory_order_relaxed));
  config["active"] = JsonValue::parse(active_config());
  config["max_connections"] = JsonValue::number(
      max_connections_->load(std::memory_order_relaxed));
  config["max_batch"] =
      JsonValue::number(max_batch_.load(std::memory_order_relaxed));
  const int64_t timeout_ms =
      default_timeout_ms_.load(std::memory_order_relaxed);
  config["default_timeout_ms"] = timeout_ms < 0
                                     ? JsonValue::null()
                                     : JsonValue::number(timeout_ms);
  config["watchdog_ms"] =
      JsonValue::number(watchdog_ms_.load(std::memory_order_relaxed));
  result["config"] = std::move(config);
  result["requests"] = JsonValue::number(requests_.load(std::memory_order_relaxed));
  result["errors"] = JsonValue::number(errors_.load(std::memory_order_relaxed));
  result["draining"] = JsonValue::boolean(draining());
  result["threads"] = JsonValue::number(util::thread_count());
  util::metrics::Registry& registry = util::metrics::registry();
  result["metrics"] = registry.enabled() ? JsonValue::parse(registry.to_json())
                                         : JsonValue::null();
  return result;
}

util::JsonValue Server::dispatch(const Request& request, const Source& source,
                                 RequestMetrics& metrics) {
  switch (request.op) {
    case Op::kAnalyze:
    case Op::kCheck:
    case Op::kSweep:
    case Op::kDiagnose: return run_cached(request, source, metrics);
    case Op::kStatus: return run_status(request, metrics);
  }
  bad_request("unhandled op");
}

std::string Server::handle_line(const std::string& line) {
  const auto start = std::chrono::steady_clock::now();
  requests_.fetch_add(1, std::memory_order_relaxed);
  util::metrics::registry().add("serve.requests");

  const ParseResult parsed = parse_request(line);
  RequestMetrics metrics;
  std::optional<JsonValue> result;
  ErrorInfo error;
  std::optional<JsonValue> error_detail;
  Ticket ticket;
  // An engine-side failure may have left the cached session in a bad state
  // (half-built stages, a poisoned matrix): drop the entry so the next
  // request rebuilds from scratch. Timeouts are NOT evicted — a cancelled
  // session is clean and its cached stages stay valid.
  bool evict_entry = false;
  bool admitted = true;

  if (draining()) {
    error = {"shutting_down", "service is draining and not accepting requests", ""};
  } else if (!parsed.request) {
    error = parsed.error;
  } else {
    // Admission gate: decide before any engine work starts, so a saturated
    // server sheds new requests instead of aborting admitted ones. Status is
    // exempt — it is how operators look at a saturated server.
    if (parsed.request->op != Op::kStatus) {
      int64_t retry_after_ms = 0;
      std::optional<Ticket> grant = admission_.try_admit(&retry_after_ms);
      if (!grant) {
        admitted = false;
        error = {"overloaded",
                 "service is at capacity; retry after retry_after_ms", ""};
        error.retry_after_ms = retry_after_ms;
        util::metrics::registry().add("serve.shed");
      } else {
        ticket = std::move(*grant);
      }
    }
    if (admitted) {
      try {
        // Fault site: proves the dispatcher converts an allocation failure into
        // a structured oom envelope and keeps serving (autosec-verify --faults).
        if (util::fault::triggered("serve.dispatch.alloc")) throw std::bad_alloc();
        // The architecture is read once per request: the disk key, session
        // key, ledger identity and the session factory all derive from these
        // bytes, so an edit racing the request cannot split them.
        Source source;
        if (parsed.request->op != Op::kStatus) {
          source.content = read_file(parsed.request->architecture);
          source.digest = fnv1a64(source.content);
        }
        // Disk-cache probe: a hit replays the stored result without touching
        // the engine at all (explores 0 by construction).
        std::optional<std::string> disk_key;
        if (disk_cache_ && disk_cacheable(parsed.request->op)) {
          disk_key = make_disk_key(*parsed.request, source.digest);
          if (const std::optional<std::string> payload =
                  disk_cache_->lookup(*disk_key)) {
            const JsonValue stored = JsonValue::parse(*payload);
            if (const JsonValue* stored_result = stored.find("result")) {
              result = *stored_result;
              metrics.disk_cache = "hit";
              metrics.states =
                  static_cast<size_t>(stored.int_or("states", 0));
              metrics.engine = stored.string_or("engine", "none");
              util::metrics::registry().add("serve.disk_hits");
            }
          }
          if (!result) metrics.disk_cache = "miss";
        }
        if (!result) {
          result = dispatch(*parsed.request, source, metrics);
          if (disk_key && result) {
            JsonValue stored = JsonValue::object();
            stored["result"] = *result;
            stored["states"] = JsonValue::number(metrics.states);
            stored["engine"] = JsonValue::string(metrics.engine);
            disk_cache_->store(*disk_key, stored.dump());
          }
        }
      } catch (const util::Cancelled& cancelled) {
        error = {"timeout", cancelled.what(), cancelled.stage()};
      } catch (const RequestError& request_error) {
        error = request_error.info();
      } catch (const symbolic::UndeclaredConstant& undeclared) {
        // An override (or sweep constant) the model does not declare is the
        // client's mistake; the message names the constant.
        error = {"bad_request", undeclared.what(), ""};
      } catch (const util::EngineFailure& failure) {
        error = {failure.code_name(), failure.what(), failure.stage()};
        error_detail = progress_to_json(failure.progress());
        evict_entry = true;
      } catch (const std::bad_alloc&) {
        error = {"oom", "allocation failure while handling the request", ""};
        evict_entry = true;
      } catch (const std::exception& engine_error) {
        error = {"engine_error", engine_error.what(), ""};
      } catch (...) {
        error = {"internal_error",
                 "an unexpected exception crossed the dispatcher", ""};
        evict_entry = true;
      }
    }
  }
  if (evict_entry && !metrics.cache_key.empty()) {
    cache_.evict(metrics.cache_key);
  }
  if (!result) {
    errors_.fetch_add(1, std::memory_order_relaxed);
    util::metrics::registry().add("serve.errors");
  }

  const double wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  metrics.wall_seconds = options_.deterministic ? 0.0 : wall_seconds;
  // Feed what this request actually cost back into the admission estimates
  // (the ticket's destructor releases the slot and reservation).
  ticket.observe(wall_seconds * 1000.0,
                 metrics.budget ? metrics.budget->peak_bytes() : 0);

  util::JsonWriter writer(0);
  writer.begin_object();
  writer.key("schema_version").value(kSchemaVersion);
  writer.key("id").value(parsed.id);
  writer.key("op").value(parsed.op_text);
  writer.key("ok").value(result.has_value());
  if (result) {
    writer.key("result");
    result->write(writer);
  } else {
    writer.key("error");
    writer.begin_object();
    writer.key("code").value(error.code);
    writer.key("message").value(error.message);
    if (!error.stage.empty()) writer.key("stage").value(error.stage);
    if (error.retry_after_ms) {
      writer.key("retry_after_ms").value(*error.retry_after_ms);
    }
    if (error_detail && error_detail->size() > 0) {
      writer.key("detail");
      error_detail->write(writer);
    }
    writer.end_object();
  }
  writer.key("metrics");
  writer.begin_object();
  writer.key("wall_seconds").value(metrics.wall_seconds);
  writer.key("session_cache").value(metrics.session_cache);
  writer.key("disk_cache").value(metrics.disk_cache);
  writer.key("explores").value(metrics.explores);
  writer.key("states").value(metrics.states);
  writer.key("solver_fallbacks").value(metrics.solver_fallbacks);
  writer.key("engine").value(metrics.engine);
  // Only when checkpointing is armed — the v1 envelope without --checkpoint
  // is golden-tested and must stay byte-stable.
  if (!options_.checkpoint_dir.empty()) {
    writer.key("checkpoint");
    writer.begin_object();
    writer.key("hits").value(metrics.checkpoint_hits);
    writer.key("records").value(metrics.checkpoint_records);
    writer.end_object();
  }
  writer.end_object();
  writer.end_object();
  return writer.take();
}

std::vector<std::string> Server::handle_batch(const std::vector<std::string>& lines) {
  std::vector<std::string> responses(lines.size());
  size_t index = 0;
  while (index < lines.size()) {
    const size_t batch = std::min(effective_max_batch(), lines.size() - index);
    if (batch == 1) {
      responses[index] = handle_line(lines[index]);
    } else {
      // Fan the batch across the pool; responses keep input order because
      // every slot writes only its own element.
      util::parallel_for(0, batch, 1, [&](size_t begin, size_t end) {
        for (size_t i = begin; i < end; ++i) {
          responses[index + i] = handle_line(lines[index + i]);
        }
      });
    }
    index += batch;
  }
  return responses;
}

void Server::process_buffered(std::string& buffer, std::ostream& out) {
  std::vector<std::string> lines;
  size_t pos = 0;
  while (true) {
    const size_t newline = buffer.find('\n', pos);
    if (newline == std::string::npos) break;
    std::string line = buffer.substr(pos, newline - pos);
    pos = newline + 1;
    if (line.find_first_not_of(" \t\r") != std::string::npos) {
      lines.push_back(std::move(line));  // blank lines are ignored, not errors
    }
  }
  buffer.erase(0, pos);
  if (lines.empty()) return;

  for (const std::string& response : handle_batch(lines)) out << response << '\n';
  out.flush();
}

int Server::serve_stream(std::istream& in, std::ostream& out) {
  std::ostringstream all;
  all << in.rdbuf();
  std::string buffer = all.str();
  if (!buffer.empty() && buffer.back() != '\n') buffer += '\n';
  process_buffered(buffer, out);
  return 0;
}

int Server::serve_fd(int fd, std::ostream& out) {
  std::string buffer;
  bool eof = false;
  while (!eof && !util::drain_requested()) {
    pollfd fds[2] = {{fd, POLLIN, 0}, {util::drain_fd(), POLLIN, 0}};
    const int ready = ::poll(fds, 2, -1);
    if (ready < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (fds[1].revents != 0) break;  // drain signal
    if ((fds[0].revents & (POLLIN | POLLHUP)) == 0) continue;
    char chunk[65536];
    const ssize_t got = ::read(fd, chunk, sizeof(chunk));
    if (got < 0) {
      if (errno == EINTR || errno == EAGAIN) continue;
      break;
    }
    if (got == 0) {
      eof = true;
    } else {
      buffer.append(chunk, static_cast<size_t>(got));
      // Requests already received are handled (and answered) even if a drain
      // arrives while they run — the graceful part of the drain.
      process_buffered(buffer, out);
    }
  }
  process_buffered(buffer, out);
  begin_drain();
  return 0;
}

std::string Server::overflow_response() const {
  ErrorInfo error{"overloaded",
                  "connection limit reached; retry after retry_after_ms", ""};
  error.retry_after_ms = options_.deterministic ? 100 : 1000;
  return synthetic_envelope("", "", error);
}

namespace {

/// In-process connection handler: every batch of lines fans across the
/// engine pool synchronously, so finish() has nothing left to wait for.
class DirectConnection : public ConnectionHandler {
 public:
  DirectConnection(Server& server, std::shared_ptr<ConnectionSink> sink)
      : server_(server), sink_(std::move(sink)) {}

  void handle_lines(std::vector<std::string> lines) override {
    for (const std::string& response : server_.handle_batch(lines)) {
      sink_->write_line(response);
    }
  }

  void finish() override {}

 private:
  Server& server_;
  std::shared_ptr<ConnectionSink> sink_;
};

}  // namespace

int Server::serve_listener(int listen_fd, std::ostream& err) {
  AcceptLoopOptions accept_options;
  accept_options.max_connections = options_.max_connections;
  accept_options.dynamic_max_connections = max_connections_;
  accept_options.overflow_line = [this] { return overflow_response(); };
  const int rc = serve_connections(
      listen_fd, accept_options,
      [this](std::shared_ptr<ConnectionSink> sink) {
        return std::make_unique<DirectConnection>(*this, std::move(sink));
      },
      err);
  begin_drain();
  err << "serve: drained, shutting down\n";
  return rc;
}

int Server::run(std::ostream& out, std::ostream& err) {
  if (options_.threads > 0) {
    util::set_thread_count(static_cast<size_t>(options_.threads));
  }
  if (!options_.tcp_address.empty() && !options_.socket_path.empty()) {
    err << "serve: --tcp and --socket are mutually exclusive\n";
    return 2;
  }
  const bool has_listener =
      !options_.tcp_address.empty() || !options_.socket_path.empty();
  if (options_.workers > 0 && !has_listener) {
    err << "serve: --workers requires --tcp or --socket\n";
    return 2;
  }
  if (!options_.input_path.empty()) {
    std::ifstream in(options_.input_path);
    if (!in) {
      err << "serve: cannot open input '" << options_.input_path << "'\n";
      return 2;
    }
    return serve_stream(in, out);
  }
  util::install_drain_signals();
  // SIGHUP config reload for the in-process serve paths; the sharded parent
  // runs its own watcher (it also has to push "!cfg" frames to workers).
  std::thread reload_thread;
  if (!options_.config_path.empty() && options_.workers == 0) {
    util::install_reload_signal();
    reload_thread = std::thread([this] { reload_watch_loop(); });
  }
  const auto stop_reload_thread = [&] {
    if (reload_thread.joinable()) {
      reload_stop_.store(true, std::memory_order_relaxed);
      reload_thread.join();
    }
  };
  if (has_listener) {
    std::string listen_error;
    int listen_fd = -1;
    if (!options_.tcp_address.empty()) {
      int port = 0;
      listen_fd = listen_tcp(options_.tcp_address, &port, listen_error);
      if (listen_fd >= 0) {
        // The resolved endpoint (not the requested one): with port 0 this
        // line is how tests and CI discover where the server landed.
        std::string host = "127.0.0.1";
        if (const size_t colon = options_.tcp_address.rfind(':');
            colon != std::string::npos) {
          host = options_.tcp_address.substr(0, colon);
        }
        err << "serve: listening on " << host << ":" << port << "\n";
      }
    } else {
      listen_fd = listen_unix(options_.socket_path, listen_error);
      if (listen_fd >= 0) {
        err << "serve: listening on " << options_.socket_path << "\n";
      }
    }
    if (listen_fd < 0) {
      err << "serve: " << listen_error << "\n";
      stop_reload_thread();
      return 2;
    }
    const int rc = options_.workers > 0 ? run_sharded(listen_fd, options_, err)
                                        : serve_listener(listen_fd, err);
    ::close(listen_fd);
    if (!options_.socket_path.empty()) ::unlink(options_.socket_path.c_str());
    stop_reload_thread();
    return rc;
  }
  const int rc = serve_fd(STDIN_FILENO, out);
  stop_reload_thread();
  return rc;
}

int run_serve(const std::vector<std::string>& args, std::ostream& out,
              std::ostream& err) {
  ServerOptions options;
  try {
    for (size_t i = 0; i < args.size(); ++i) {
      const std::string& flag = args[i];
      const auto next_value = [&]() -> const std::string& {
        if (++i >= args.size()) {
          throw std::runtime_error("flag " + flag + " needs a value");
        }
        return args[i];
      };
      // A whole-string integer in [min, max]: negatives, trailing garbage and
      // out-of-range values are refused, never wrapped or clamped.
      const auto next_count = [&](int64_t min,
                                  int64_t max = std::numeric_limits<int64_t>::max()) {
        const std::optional<int64_t> value = util::parse_int(next_value());
        if (!value || *value < min || *value > max) {
          throw std::runtime_error("bad value for " + flag);
        }
        return *value;
      };
      constexpr int64_t kIntMax = std::numeric_limits<int>::max();
      if (flag == "--input") {
        options.input_path = next_value();
      } else if (flag == "--socket") {
        options.socket_path = next_value();
      } else if (flag == "--tcp") {
        options.tcp_address = next_value();
      } else if (flag == "--workers") {
        options.workers = static_cast<int>(next_count(0, kIntMax));
      } else if (flag == "--max-connections") {
        options.max_connections = static_cast<size_t>(next_count(1));
      } else if (flag == "--max-inflight") {
        options.max_inflight = static_cast<size_t>(next_count(0));
      } else if (flag == "--max-load-mb") {
        options.max_load_mb = static_cast<size_t>(next_count(0));
      } else if (flag == "--disk-cache") {
        options.disk_cache_dir = next_value();
      } else if (flag == "--disk-cache-mb") {
        options.disk_cache_mb = static_cast<size_t>(next_count(0));
      } else if (flag == "--checkpoint") {
        options.checkpoint_dir = next_value();
      } else if (flag == "--checkpoint-interval-ms") {
        options.checkpoint_interval_ms = static_cast<uint64_t>(next_count(0));
      } else if (flag == "--watchdog-ms") {
        options.watchdog_ms = static_cast<uint64_t>(next_count(0));
      } else if (flag == "--config") {
        options.config_path = next_value();
      } else if (flag == "--cache-capacity") {
        options.cache_capacity = static_cast<size_t>(next_count(0));
      } else if (flag == "--default-timeout-ms") {
        options.default_timeout_ms = next_count(0);
      } else if (flag == "--max-batch") {
        options.max_batch = static_cast<size_t>(next_count(1));
      } else if (flag == "--threads") {
        options.threads = static_cast<int>(next_count(0, kIntMax));
      } else if (flag == "--deterministic") {
        options.deterministic = true;
      } else {
        throw std::runtime_error("unknown serve flag '" + flag + "'");
      }
    }
  } catch (const std::exception& error) {
    err << "serve: " << error.what() << "\n";
    return 2;
  }
  try {
    Server server(std::move(options));
    return server.run(out, err);
  } catch (const std::exception& error) {
    err << "serve: " << error.what() << "\n";
    return 2;
  }
}

}  // namespace autosec::service
