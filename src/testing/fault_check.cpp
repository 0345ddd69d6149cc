#include "testing/fault_check.hpp"

#include <filesystem>
#include <fstream>
#include <memory>
#include <new>
#include <sstream>

#include "ctmc/transient.hpp"
#include "linalg/csr_matrix.hpp"
#include "linalg/gauss_seidel.hpp"
#include "linalg/power_iteration.hpp"
#include "service/server.hpp"
#include "util/budget.hpp"
#include "util/failure.hpp"
#include "util/fault.hpp"
#include "util/json.hpp"

namespace autosec::testing {

namespace {

using util::JsonValue;

/// Small but non-trivial architecture (two buses, four ECUs): every engine
/// stage the fault sites live in — explore, uniformize, steady state, the
/// fixpoint ladder — does real work on it.
constexpr const char* kArchText = R"(architecture "fault-check"

bus NET internet
bus CAN1 can
bus CAN2 can

ecu TCU phi=52
  iface NET eta=1.9
  iface CAN1 eta=3.8
ecu GW phi=4
  iface CAN1 eta=1.2
  iface CAN2 eta=1.2
ecu PA phi=12
  iface CAN1 eta=1.2
ecu PS phi=4
  iface CAN2 eta=1.2

message m from=PA to=PS via=CAN1,CAN2 protection=unencrypted
)";

/// Write the embedded architecture into the temp directory once per run.
std::string write_arch_file() {
  const std::filesystem::path path =
      std::filesystem::temp_directory_path() / "autosec-fault-check.arch";
  std::ofstream out(path);
  out << kArchText;
  return path.string();
}

std::string analyze_line(const std::string& arch_path, const std::string& id,
                         const std::string& extra = "") {
  return "{\"id\": \"" + id + "\", \"op\": \"analyze\", \"architecture\": \"" +
         arch_path + "\"" + extra + "}";
}

std::string error_code_of(const JsonValue& response) {
  const JsonValue* error = response.find("error");
  if (!error || !error->is_object()) return "";
  return error->string_or("code", "");
}

/// One serve-level check: arm `site`, send a request, assert the outcome,
/// then prove the same server answers a plain follow-up request.
FaultCheckResult check_serve_fault(const std::string& arch_path,
                                   const std::string& site,
                                   const std::string& expected_code,
                                   const std::string& request_extra = "") {
  FaultCheckResult result;
  result.site = site;
  result.expectation = "serve answers '" + expected_code + "' and keeps serving";

  service::ServerOptions options;
  options.deterministic = true;
  service::Server server(options);

  util::fault::disarm_all();
  util::fault::arm_site(site);
  const JsonValue faulted = JsonValue::parse(
      server.handle_line(analyze_line(arch_path, "faulted", request_extra)));
  util::fault::disarm_all();

  if (faulted.bool_or("ok", true)) {
    result.detail = "request succeeded although '" + site + "' was armed";
    return result;
  }
  const std::string code = error_code_of(faulted);
  if (code != expected_code) {
    result.detail = "expected error code '" + expected_code + "', got '" + code +
                    "': " + faulted.find("error")->string_or("message", "");
    return result;
  }
  // One-shot semantics: the fault was absorbed by one request; the worker —
  // and, for engine-side failures, a freshly rebuilt session — keeps serving.
  const JsonValue follow_up = JsonValue::parse(
      server.handle_line(analyze_line(arch_path, "follow-up", request_extra)));
  if (!follow_up.bool_or("ok", false)) {
    result.detail =
        "follow-up request failed after the fault: " + error_code_of(follow_up);
    return result;
  }
  result.passed = true;
  return result;
}

/// Recoverable fault: the armed rung fails but the ladder falls through, so
/// the request SUCCEEDS and the fallback is visible in the metrics.
FaultCheckResult check_serve_fallback(const std::string& arch_path,
                                      const std::string& site) {
  FaultCheckResult result;
  result.site = site;
  result.expectation = "ladder falls back; response ok with solver_fallbacks >= 1";

  service::ServerOptions options;
  options.deterministic = true;
  service::Server server(options);

  util::fault::disarm_all();
  util::fault::arm_site(site);
  const JsonValue response = JsonValue::parse(
      server.handle_line(analyze_line(arch_path, "fallback")));
  util::fault::disarm_all();

  if (!response.bool_or("ok", false)) {
    result.detail = "request failed (" + error_code_of(response) +
                    ") although the ladder should have recovered";
    return result;
  }
  const JsonValue* metrics = response.find("metrics");
  const double fallbacks =
      metrics ? metrics->number_or("solver_fallbacks", 0.0) : 0.0;
  if (!(fallbacks >= 1.0)) {
    result.detail = "metrics.solver_fallbacks is 0 — the fault never fired or "
                    "the fallback went unrecorded";
    return result;
  }
  result.passed = true;
  return result;
}

/// Tiny 2x2 fixpoint system x = A·x + b with spectral radius 1/2: every rung
/// solves it instantly unless its fault site fires.
linalg::CsrMatrix tiny_fixpoint_matrix() {
  linalg::CsrBuilder builder(2, 2);
  builder.add(0, 1, 0.5);
  builder.add(1, 0, 0.5);
  return std::move(builder).build();
}

/// Tiny irreducible transposed generator (two states, rates 1 and 2).
linalg::CsrMatrix tiny_transposed_generator() {
  linalg::CsrBuilder builder(2, 2);
  builder.add(0, 0, -1.0);
  builder.add(0, 1, 2.0);
  builder.add(1, 0, 1.0);
  builder.add(1, 1, -2.0);
  return std::move(builder).build();
}

/// Kernel-level check: arm `site` and assert the solver run reports an honest
/// diverged result (not a crash, not a silently wrong answer).
FaultCheckResult check_kernel_diverged(
    const std::string& site, const std::function<linalg::IterativeResult()>& run) {
  FaultCheckResult result;
  result.site = site;
  result.expectation = "kernel reports diverged, result not silently wrong";

  util::fault::disarm_all();
  util::fault::arm_site(site);
  const linalg::IterativeResult solved = run();
  util::fault::disarm_all();

  if (!solved.diverged) {
    result.detail = "solver did not report diverged with '" + site + "' armed";
    return result;
  }
  if (solved.converged) {
    result.detail = "solver claims converged AND diverged";
    return result;
  }
  result.passed = true;
  return result;
}

/// Budget-ordering check: with a tiny byte ceiling AND the allocation fault
/// armed, uniformize must unwind as the typed budget failure. The fault site
/// is polled just before the build allocates, so a bad_alloc here would mean
/// the budget was charged too late — after the matrices were already built.
FaultCheckResult check_uniformize_budget_order() {
  FaultCheckResult result;
  result.site = "uniformize.alloc";
  result.expectation = "memory budget trips before the allocation fault fires";

  linalg::CsrBuilder builder(2, 2);
  builder.add(0, 1, 1.0);
  builder.add(1, 0, 2.0);
  const ctmc::Ctmc chain{std::move(builder).build()};
  ctmc::TransientOptions options;
  // Below the 60 bytes of this chain's Pᵀ (4 entries, 3 row offsets).
  options.budget = std::make_shared<util::ResourceBudget>(0, 32);

  util::fault::disarm_all();
  util::fault::arm_site("uniformize.alloc");
  try {
    ctmc::uniformize(chain, options);
    result.detail = "uniformize succeeded despite the ceiling and armed fault";
  } catch (const util::EngineFailure& failure) {
    if (failure.code() == util::FailureCode::kMemoryBudgetExceeded) {
      result.passed = true;
    } else {
      result.detail = std::string("unexpected typed failure '") +
                      failure.code_name() + "'";
    }
  } catch (const std::bad_alloc&) {
    result.detail = "the allocation fault fired first — the budget charge "
                    "must precede the build";
  }
  util::fault::disarm_all();
  return result;
}

}  // namespace

std::string FaultCheckReport::summary() const {
  std::ostringstream os;
  size_t passed = 0;
  for (const FaultCheckResult& result : results) {
    os << (result.passed ? "  PASS  " : "  FAIL  ") << result.site << " — "
       << result.expectation;
    if (!result.passed && !result.detail.empty()) {
      os << "\n        " << result.detail;
    }
    os << "\n";
    if (result.passed) ++passed;
  }
  os << passed << "/" << results.size() << " fault checks passed\n";
  return os.str();
}

FaultCheckReport run_fault_checks() {
  const std::string arch_path = write_arch_file();
  FaultCheckReport report;

  // Hard faults: the request fails with the typed code, the next one works.
  report.results.push_back(
      check_serve_fault(arch_path, "explore.alloc", "oom"));
  report.results.push_back(
      check_serve_fault(arch_path, "uniformize.alloc", "oom"));
  // Ordering proof for the same site: a tripped memory budget wins over the
  // armed allocation fault, because uniformize charges its peak up front.
  report.results.push_back(check_uniformize_budget_order());
  report.results.push_back(
      check_serve_fault(arch_path, "serve.dispatch.alloc", "oom"));
  report.results.push_back(
      check_serve_fault(arch_path, "solve.cancel", "timeout"));
  // Pinned to the Gauss-Seidel method there is no ladder below the faulted
  // rung — the solve fails with solver_diverged instead of degrading.
  report.results.push_back(
      check_serve_fault(arch_path, "gauss_seidel.diverge", "solver_diverged",
                        ", \"solver\": \"gauss_seidel\""));

  // Recoverable fault: BiCGSTAB breaks down, the ladder's Gauss-Seidel rung
  // answers, and the degradation is visible in the response metrics.
  report.results.push_back(check_serve_fallback(arch_path, "krylov.breakdown"));

  // Kernel-level health: each rung reports honest divergence when faulted.
  report.results.push_back(check_kernel_diverged("krylov.breakdown", [] {
    linalg::IterativeOptions options;
    options.method = linalg::FixpointMethod::kKrylov;
    return linalg::solve_fixpoint(tiny_fixpoint_matrix(), {1.0, 1.0}, options);
  }));
  report.results.push_back(check_kernel_diverged("power.diverge", [] {
    return linalg::solve_fixpoint_power(tiny_fixpoint_matrix(), {1.0, 1.0});
  }));
  report.results.push_back(check_kernel_diverged("stationary.diverge", [] {
    return linalg::stationary_from_transposed(tiny_transposed_generator());
  }));

  return report;
}

}  // namespace autosec::testing
