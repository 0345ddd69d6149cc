// Traced per-layer runner of the benchmark: links libautosec and times calls
// into each module's public functions from outside (no spans inside src/).
//
//   perfbench_layers SPEC.json
//
// SPEC is a JSON object; every key except "threads" is optional:
//   {"threads": 4,
//    "jobs":    [{"kind": "analyze", "arch": A, "nmax": N, "engine": E},
//                {"kind": "mdp", "arch": A, "message": M, "category": C,
//                 "property": P, "nmax": N, "strategy_json": FILE}],
//    "spmv":    {"arch": A, "nmax": N, "engine": E, "seconds": S},
//    "speedup": {"threads": T, "jobs": [{"arch": A, "nmax": N, "engine": E}]},
//    "serve":   {"requests": FILE, "warm": K, "disk_cache": DIR,
//                "threads": T, "cache_capacity": C, "responses": FILE}}
//
// Prints one JSON object on stdout: per-job stage seconds, work counts and
// answers, the util::metrics counters read after the jobs, and the probe
// results. Answers are checked against the references by run.py.
#include <unistd.h>

#include <chrono>
#include <fstream>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "automotive/analyzer.hpp"
#include "automotive/archfile.hpp"
#include "automotive/transform.hpp"
#include "csl/property_parser.hpp"
#include "csl/session.hpp"
#include "csl/solver_plan.hpp"
#include "csl/strategy_export.hpp"
#include "service/server.hpp"
#include "util/json.hpp"
#include "util/metrics.hpp"
#include "util/parallel.hpp"

namespace {

using autosec::util::JsonValue;
namespace automotive = autosec::automotive;
namespace csl = autosec::csl;

double now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Runs `fn`, adds its wall time to `stages[name]` and returns its result.
template <typename Fn>
auto timed(JsonValue& stages, const char* name, Fn&& fn) {
  const double start = now_seconds();
  if constexpr (std::is_void_v<decltype(fn())>) {
    fn();
    stages[name] = JsonValue::number(now_seconds() - start);
  } else {
    auto result = fn();
    stages[name] = JsonValue::number(now_seconds() - start);
    return result;
  }
}

std::string read_text(const std::string& path) {
  std::ifstream file(path);
  if (!file) throw std::runtime_error("cannot read " + path);
  std::ostringstream buffer;
  buffer << file.rdbuf();
  return buffer.str();
}

automotive::SecurityCategory parse_category(const std::string& text) {
  if (text == "confidentiality") return automotive::SecurityCategory::kConfidentiality;
  if (text == "integrity") return automotive::SecurityCategory::kIntegrity;
  if (text == "availability") return automotive::SecurityCategory::kAvailability;
  throw std::runtime_error("unknown category " + text);
}

automotive::AnalysisOptions analysis_options(const JsonValue& job) {
  automotive::AnalysisOptions options;
  options.nmax = static_cast<int>(job.int_or("nmax", 1));
  const auto engine =
      autosec::symbolic::parse_engine_token(job.string_or("engine", "auto"));
  if (!engine) throw std::runtime_error("unknown engine");
  options.plan.engine = *engine;
  return options;
}

/// The four measures `autosec analyze` reports per (message, category) pair,
/// in the order analyze_batch_session builds them (horizon 1 year).
std::vector<std::string> analyze_properties(const automotive::BatchSession& batch) {
  const std::string h = std::to_string(1.0);
  std::vector<std::string> properties;
  for (const std::string& message : batch.messages) {
    for (const automotive::SecurityCategory category : batch.categories) {
      const std::string violated = automotive::batch_violated_label(message, category);
      const std::string exposure = automotive::batch_exposure_reward(message, category);
      properties.push_back("R{\"" + exposure + "\"}=? [ C<=" + h + " ]");
      properties.push_back("P=? [ F<=" + h + " \"" + violated + "\" ]");
      properties.push_back("S=? [ \"" + violated + "\" ]");
      properties.push_back("R{\"time\"}=? [ F \"" + violated + "\" ]");
    }
  }
  return properties;
}

JsonValue numbers(const std::vector<double>& values) {
  JsonValue out = JsonValue::array();
  for (const double v : values) out.push_back(JsonValue::number(v));
  return out;
}

void add_space_counts(JsonValue& out, const autosec::symbolic::StateSpace& space) {
  out["states"] = JsonValue::number(static_cast<uint64_t>(space.state_count()));
  out["transitions"] =
      JsonValue::number(static_cast<uint64_t>(space.transition_count()));
  out["bytes_per_state"] =
      JsonValue::number(static_cast<uint64_t>(space.bytes_per_state()));
}

/// `autosec analyze FILE --category all --nmax N`, one layer call at a time.
JsonValue run_analyze(const JsonValue& job) {
  JsonValue out = JsonValue::object();
  JsonValue& stages = out["stages"];
  const std::string path = job.string_or("arch", "");
  const automotive::AnalysisOptions options = analysis_options(job);
  const automotive::Architecture arch = timed(stages, "automotive.parse_s", [&] {
    return automotive::load_architecture_file(path);
  });
  automotive::BatchSession batch = timed(stages, "automotive.transform_s", [&] {
    return automotive::make_batch_session(arch, options);
  });
  csl::EngineSession& session = *batch.session;
  timed(stages, "symbolic.explore_s", [&] { session.space(); });
  timed(stages, "ctmc.chain_s", [&] { session.chain(); });
  timed(stages, "ctmc.uniformize_s", [&] { session.uniformized(); });
  timed(stages, "ctmc.steady_s", [&] { session.steady(); });
  const std::vector<std::string> properties = analyze_properties(batch);
  const std::vector<double> values =
      timed(stages, "csl.solve_s", [&] { return session.check_all(properties); });
  add_space_counts(out, session.space());
  out["properties"] = JsonValue::number(static_cast<uint64_t>(properties.size()));
  out["values"] = numbers(values);
  return out;
}

/// `autosec check FILE --model-type mdp --property P --strategy-json FILE`.
JsonValue run_mdp(const JsonValue& job) {
  JsonValue out = JsonValue::object();
  JsonValue& stages = out["stages"];
  const std::string path = job.string_or("arch", "");
  const std::string strategy_path = job.string_or("strategy_json", "");
  const automotive::Architecture arch = timed(stages, "automotive.parse_s", [&] {
    return automotive::load_architecture_file(path);
  });
  automotive::TransformOptions transform_options;
  transform_options.message = job.string_or("message", "");
  transform_options.category = parse_category(job.string_or("category", "integrity"));
  transform_options.nmax = static_cast<int>(job.int_or("nmax", 1));
  transform_options.model_type = autosec::symbolic::ModelType::kMdp;
  auto session = timed(stages, "automotive.transform_s", [&] {
    csl::SessionOptions session_options;
    session_options.nmax = transform_options.nmax;
    return std::make_unique<csl::EngineSession>(
        automotive::transform(arch, transform_options), session_options);
  });
  timed(stages, "symbolic.explore_s", [&] { session->space(); });
  const csl::Property property = csl::parse_property(job.string_or("property", ""));
  const double value =
      timed(stages, "mdp.vi_s", [&] { return session->check(property); });
  const double exported = timed(stages, "csl.strategy_doc_s", [&] {
    const csl::StrategyCheck checked = session->check_with_strategy(property);
    const JsonValue document = session->strategy_document(property, checked.strategy);
    std::ofstream file(strategy_path);
    if (!file) throw std::runtime_error("cannot write " + strategy_path);
    file << document.dump(2) << "\n";
    return checked.value;
  });
  const double induced = timed(stages, "csl.strategy_roundtrip_s", [&] {
    const csl::StrategyExport parsed =
        csl::parse_strategy_json(read_text(strategy_path));
    return session->induced_value(property, parsed);
  });
  add_space_counts(out, session->space());
  out["properties"] = JsonValue::number(3);  // check, export, induced re-check
  out["values"] = numbers({value, exported, induced});
  return out;
}

/// Timed y = M·x on the real uniformized matrix of one analyze job, for the
/// CSR transpose and (when the layout resolved to it) the SELL-C-σ packing.
JsonValue run_spmv(const JsonValue& spec) {
  const automotive::Architecture arch =
      automotive::load_architecture_file(spec.string_or("arch", ""));
  automotive::BatchSession batch =
      automotive::make_batch_session(arch, analysis_options(spec));
  const autosec::ctmc::Uniformized& uniformized = batch.session->uniformized();
  const double seconds = spec.number_or("seconds", 0.5);
  const size_t rows = uniformized.transposed.rows();
  const size_t cols = uniformized.transposed.cols();
  const size_t nnz = uniformized.transposed.nonzeros();
  std::vector<double> x(cols, 1.0 / static_cast<double>(cols));
  std::vector<double> y(rows, 0.0);
  // Bytes one product must move at least: the matrix arrays once, x once,
  // y written once. Computed from array sizes, not measured.
  const double vector_bytes = static_cast<double>(cols + rows) * sizeof(double);
  const auto probe = [&](auto&& multiply, double matrix_bytes) {
    size_t reps = 0;
    multiply();  // touch the arrays once before timing
    const double start = now_seconds();
    double elapsed = 0.0;
    do {
      multiply();
      ++reps;
      elapsed = now_seconds() - start;
    } while (elapsed < seconds);
    JsonValue out = JsonValue::object();
    out["nnz_per_s"] = JsonValue::number(static_cast<double>(nnz * reps) / elapsed);
    out["gbytes_per_s_computed"] = JsonValue::number(
        (matrix_bytes + vector_bytes) * static_cast<double>(reps) / elapsed / 1e9);
    out["bytes_per_product"] = JsonValue::number(matrix_bytes + vector_bytes);
    return out;
  };
  JsonValue out = JsonValue::object();
  out["rows"] = JsonValue::number(static_cast<uint64_t>(rows));
  out["nnz"] = JsonValue::number(static_cast<uint64_t>(nnz));
  out["llc_bytes"] = JsonValue::number(
      static_cast<int64_t>(sysconf(_SC_LEVEL3_CACHE_SIZE)));
  out["csr"] = probe([&] { uniformized.transposed.right_multiply(x, y); },
                     static_cast<double>(nnz) * (sizeof(double) + sizeof(uint32_t)) +
                         static_cast<double>(rows + 1) * sizeof(uint32_t));
  if (uniformized.blocked) {
    out["blocked"] = probe([&] { uniformized.blocked->right_multiply(x, y); },
                           static_cast<double>(uniformized.blocked->bytes()));
  }
  return out;
}

/// csl.solve_s at 1 thread and at `threads`, with one resolved SolverPlan per
/// job pinned for both runs, so the thread count is the only variable.
JsonValue run_speedup(const JsonValue& spec) {
  const size_t threads = static_cast<size_t>(spec.int_or("threads", 4));
  const JsonValue* jobs = spec.find("jobs");
  std::vector<automotive::Architecture> archs;
  std::vector<automotive::AnalysisOptions> options;
  for (size_t i = 0; jobs && i < jobs->size(); ++i) {
    archs.push_back(automotive::load_architecture_file(jobs->at(i).string_or("arch", "")));
    options.push_back(analysis_options(jobs->at(i)));
  }
  const auto solve_seconds = [&](size_t thread_count) {
    autosec::util::set_thread_count(thread_count);
    double total = 0.0;
    for (size_t i = 0; i < archs.size(); ++i) {
      automotive::BatchSession batch = automotive::make_batch_session(archs[i], options[i]);
      csl::EngineSession& session = *batch.session;
      session.steady();
      session.uniformized();
      const std::vector<std::string> properties = analyze_properties(batch);
      const double start = now_seconds();
      session.check_all(properties);
      total += now_seconds() - start;
    }
    return total;
  };
  for (size_t i = 0; i < archs.size(); ++i) {
    automotive::BatchSession batch = automotive::make_batch_session(archs[i], options[i]);
    options[i].plan = csl::resolve_plan(options[i].plan, batch.session->space());
  }
  const double serial = solve_seconds(1);
  const double parallel = solve_seconds(threads);
  JsonValue out = JsonValue::object();
  out["solve_s_1t"] = JsonValue::number(serial);
  out["solve_s_nt"] = JsonValue::number(parallel);
  out["speedup"] = JsonValue::number(serial / parallel);
  return out;
}

/// In-process Server::handle_line over a replayed request file: the first
/// `warm` lines are the warm-up, the rest are timed one by one.
JsonValue run_serve(const JsonValue& spec) {
  autosec::service::ServerOptions options;
  options.disk_cache_dir = spec.string_or("disk_cache", "");
  options.threads = static_cast<int>(spec.int_or("threads", 0));
  options.cache_capacity = static_cast<size_t>(spec.int_or("cache_capacity", 8));
  autosec::service::Server server(options);
  std::ifstream requests(spec.string_or("requests", ""));
  std::ofstream responses(spec.string_or("responses", ""));
  if (!requests || !responses) throw std::runtime_error("cannot open serve files");
  const int64_t warm = spec.int_or("warm", 0);
  JsonValue handle_ms = JsonValue::array();
  std::string line;
  for (int64_t n = 0; std::getline(requests, line); ++n) {
    const double start = now_seconds();
    const std::string response = server.handle_line(line);
    const double elapsed = now_seconds() - start;
    if (n >= warm) handle_ms.push_back(JsonValue::number(elapsed * 1e3));
    responses << response << "\n";
  }
  JsonValue out = JsonValue::object();
  out["handle_ms"] = std::move(handle_ms);
  return out;
}

/// Sum of the registry counters named solver.*_iterations.
uint64_t iterations_sum(const JsonValue& counters) {
  uint64_t total = 0;
  for (const auto& [name, value] : counters.members()) {
    if (name.starts_with("solver.") && name.ends_with("_iterations")) {
      total += static_cast<uint64_t>(value.as_integer());
    }
  }
  return total;
}

int run(const std::string& spec_path) {
  const JsonValue spec = JsonValue::parse(read_text(spec_path));
  const size_t threads = static_cast<size_t>(spec.int_or("threads", 4));
  autosec::util::set_thread_count(threads);
  autosec::util::metrics::Registry& registry = autosec::util::metrics::registry();
  registry.reset();
  registry.set_enabled(spec.bool_or("metrics", true));

  JsonValue out = JsonValue::object();
  JsonValue& results = out["jobs"];
  results = JsonValue::array();
  if (const JsonValue* jobs = spec.find("jobs")) {
    for (size_t i = 0; i < jobs->size(); ++i) {
      const JsonValue& job = jobs->at(i);
      const std::string kind = job.string_or("kind", "");
      if (kind == "analyze") {
        results.push_back(run_analyze(job));
      } else if (kind == "mdp") {
        results.push_back(run_mdp(job));
      } else {
        throw std::runtime_error("unknown job kind " + kind);
      }
    }
  }
  out["matvecs"] = JsonValue::number(registry.counter_value("ctmc.matrix_vector_products"));
  // One counter per fixpoint method: solver.<method>_iterations.
  const JsonValue registry_doc = JsonValue::parse(registry.to_json());
  const JsonValue* counters = registry_doc.find("counters");
  out["solver_iterations"] =
      JsonValue::number(counters ? iterations_sum(*counters) : 0);

  if (const JsonValue* serve = spec.find("serve")) out["serve"] = run_serve(*serve);
  registry.set_enabled(false);
  if (const JsonValue* spmv = spec.find("spmv")) out["spmv"] = run_spmv(*spmv);
  if (const JsonValue* speedup = spec.find("speedup")) {
    out["speedup"] = run_speedup(*speedup);
  }
  std::cout << out.dump() << "\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 2) {
    std::cerr << "usage: perfbench_layers SPEC.json\n";
    return 2;
  }
  try {
    return run(argv[1]);
  } catch (const std::exception& error) {
    std::cerr << "perfbench_layers: " << error.what() << "\n";
    return 1;
  }
}
