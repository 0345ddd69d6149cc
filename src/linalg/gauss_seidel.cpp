#include "linalg/gauss_seidel.hpp"

#include <cmath>
#include <stdexcept>
#include <string>

#include "linalg/krylov.hpp"
#include "linalg/power_iteration.hpp"
#include "linalg/vector_ops.hpp"
#include "util/fault.hpp"
#include "util/metrics.hpp"

namespace autosec::linalg {

namespace {

/// Iterate magnitudes past this ceiling can never settle back below a 1e-12
/// relative tolerance in double precision; stop instead of overflowing to Inf.
constexpr double kDivergenceCeiling = 1e100;

/// Sweep-ready split of a matrix: the diagonal extracted once, off-diagonal
/// entries compacted into their own CSR arrays in the original (ascending
/// column) order. Direct sweeps over this form perform exactly the additions
/// of the old scan-and-branch kernel, minus the per-entry diagonal test, so
/// results are bit-identical while the inner loop stays branch-free.
struct SweepRows {
  std::vector<uint32_t> offsets;  ///< n+1 offsets into cols/vals
  std::vector<uint32_t> cols;
  std::vector<double> vals;
  std::vector<double> diagonal;  ///< A_ii, 0 when absent
};

SweepRows split_diagonal(const CsrMatrix& A) {
  const size_t n = A.rows();
  SweepRows rows;
  rows.offsets.assign(n + 1, 0);
  rows.cols.reserve(A.nonzeros());
  rows.vals.reserve(A.nonzeros());
  rows.diagonal.assign(n, 0.0);
  for (size_t i = 0; i < n; ++i) {
    rows.offsets[i] = static_cast<uint32_t>(rows.cols.size());
    const auto cols = A.row_columns(i);
    const auto vals = A.row_values(i);
    for (size_t k = 0; k < cols.size(); ++k) {
      if (cols[k] == i) {
        rows.diagonal[i] = vals[k];
      } else {
        rows.cols.push_back(cols[k]);
        rows.vals.push_back(vals[k]);
      }
    }
  }
  rows.offsets[n] = static_cast<uint32_t>(rows.cols.size());
  return rows;
}

/// Gauss-Seidel sweeps for x = A·x + b — the original solver, now one of the
/// methods solve_fixpoint dispatches between. Reports (never throws on)
/// numerical trouble: a non-contracting diagonal, NaN/Inf in the iterate, or
/// runaway growth all come back as diverged = true so the kAuto ladder can
/// move to the next rung and single-method callers see a typed failure.
IterativeResult fixpoint_gauss_seidel(const CsrMatrix& A,
                                      const std::vector<double>& b,
                                      const IterativeOptions& options) {
  const size_t n = A.rows();
  IterativeResult result;
  result.x.assign(n, 0.0);
  std::vector<double>& x = result.x;

  if (util::fault::triggered("gauss_seidel.diverge")) {
    result.diverged = true;
    return result;
  }

  const SweepRows rows = split_diagonal(A);
  std::vector<double> one_minus(n, 1.0);
  for (size_t i = 0; i < n; ++i) {
    if (rows.diagonal[i] >= 1.0) {
      // x_i = (...) / (1 - A_ii) has no solution; the fixpoint iteration is
      // not contracting at this state.
      result.diverged = true;
      return result;
    }
    one_minus[i] = 1.0 - rows.diagonal[i];
  }

  for (size_t iter = 1; iter <= options.max_iterations; ++iter) {
    if (options.cancelled && options.cancelled()) {
      result.cancelled = true;
      return result;
    }
    double delta = 0.0;
    double magnitude = 0.0;
    double checksum = 0.0;
    for (size_t i = 0; i < n; ++i) {
      double acc = b[i];
      for (uint32_t k = rows.offsets[i]; k < rows.offsets[i + 1]; ++k) {
        acc += rows.vals[k] * x[rows.cols[k]];
      }
      const double updated = acc / one_minus[i];
      delta = std::max(delta, std::abs(updated - x[i]));
      magnitude = std::max(magnitude, std::abs(updated));
      // max() never propagates NaN (both comparisons are false), so a plain
      // sum is the per-sweep health probe: one NaN/Inf poisons it.
      checksum += updated;
      x[i] = updated;
    }
    result.iterations = iter;
    result.final_delta = delta;
    if (!std::isfinite(checksum) || magnitude > kDivergenceCeiling) {
      result.diverged = true;
      return result;
    }
    // Relative to the solution scale: expected-reward solves can carry values
    // of 1e5 and more, where an absolute 1e-12 sits below the roundoff floor
    // (|x|·2^-52) and the sweep stagnates forever. For probability-scale
    // solves (|x| ≤ 1) this is the plain absolute criterion.
    if (delta <= options.tolerance * std::max(1.0, magnitude)) {
      result.converged = true;
      break;
    }
  }
  return result;
}

}  // namespace

namespace {

/// Per-method solver counters/gauges; the residual gauge keeps the last
/// solve's final delta visible in metrics dumps.
IterativeResult record_solve(const char* method, IterativeResult result) {
  util::metrics::Registry& metrics = util::metrics::registry();
  if (metrics.enabled()) {
    metrics.add("solver.fixpoint_solves");
    metrics.add(std::string("solver.") + method + "_iterations", result.iterations);
    if (!result.converged) {
      metrics.add(std::string("solver.") + method + "_failures");
    }
    metrics.gauge("solver.last_residual", result.final_delta);
  }
  return result;
}

/// Append this rung's outcome to the result's attempt log.
IterativeResult with_attempt(const char* method, IterativeResult result) {
  result.attempts.push_back({method, result.iterations, result.final_delta,
                             result.converged, result.diverged});
  return result;
}

/// Carry the attempt log of earlier rungs into the rung that replaced them.
IterativeResult inherit_attempts(IterativeResult result,
                                 const IterativeResult& earlier) {
  result.attempts.insert(result.attempts.begin(), earlier.attempts.begin(),
                         earlier.attempts.end());
  return result;
}

}  // namespace

IterativeResult solve_fixpoint(const CsrMatrix& A, const std::vector<double>& b,
                               const IterativeOptions& options) {
  const size_t n = A.rows();
  if (A.cols() != n || b.size() != n) {
    throw std::invalid_argument("solve_fixpoint: dimension mismatch");
  }
  switch (options.method) {
    case FixpointMethod::kGaussSeidel:
      return record_solve(
          "gauss_seidel",
          with_attempt("gauss_seidel", fixpoint_gauss_seidel(A, b, options)));
    case FixpointMethod::kKrylov:
      return record_solve(
          "krylov", with_attempt("krylov", solve_fixpoint_krylov(A, b, options)));
    case FixpointMethod::kAuto: {
      // The fallback ladder: BiCGSTAB → Gauss-Seidel → Jacobi power. Each rung
      // only runs when the one above broke down, diverged, or stagnated; the
      // returned result carries one attempt entry per rung taken so degraded
      // solves are visible to callers and metrics.
      IterativeResult krylov = record_solve(
          "krylov", with_attempt("krylov", solve_fixpoint_krylov(A, b, options)));
      if (krylov.converged || krylov.cancelled) return krylov;
      util::metrics::registry().add("solver.krylov_fallbacks");
      IterativeResult gs = inherit_attempts(
          record_solve("gauss_seidel", with_attempt("gauss_seidel",
                                                    fixpoint_gauss_seidel(
                                                        A, b, options))),
          krylov);
      if (gs.converged || gs.cancelled) return gs;
      util::metrics::registry().add("solver.gauss_seidel_fallbacks");
      return inherit_attempts(
          record_solve("power", with_attempt("power", solve_fixpoint_power(
                                                          A, b, options))),
          gs);
    }
  }
  throw std::logic_error("solve_fixpoint: unknown method");
}

IterativeResult stationary_from_transposed(const CsrMatrix& Qt,
                                           const IterativeOptions& options) {
  const size_t n = Qt.rows();
  if (Qt.cols() != n) throw std::invalid_argument("stationary: matrix must be square");
  if (n == 0) throw std::invalid_argument("stationary: empty matrix");

  util::metrics::registry().add("solver.stationary_solves");
  IterativeResult result;
  if (n == 1) {
    result.x = {1.0};
    result.converged = true;
    return result;
  }

  if (util::fault::triggered("stationary.diverge")) {
    result.x.assign(n, 1.0 / static_cast<double>(n));
    result.diverged = true;
    result.attempts.push_back({"gauss_seidel", 0, 0.0, false, true});
    return result;
  }

  // One split pass replaces the per-sweep diagonal scans: exit rates -Q_ii
  // come from the extracted diagonal, the sweep sums only off-diagonal
  // inflow entries (in their original ascending order — bit-identical sums).
  const SweepRows rows = split_diagonal(Qt);
  std::vector<double> exit_rate(n, 0.0);
  for (size_t i = 0; i < n; ++i) {
    if (rows.diagonal[i] >= 0.0) {
      throw std::runtime_error(
          "stationary: state without outgoing rate in a multi-state BSCC");
    }
    exit_rate[i] = -rows.diagonal[i];
  }

  result.x.assign(n, 1.0 / static_cast<double>(n));
  std::vector<double>& pi = result.x;

  for (size_t iter = 1; iter <= options.max_iterations; ++iter) {
    if (options.cancelled && options.cancelled()) {
      result.cancelled = true;
      return result;
    }
    double delta = 0.0;
    double checksum = 0.0;
    for (size_t i = 0; i < n; ++i) {
      double inflow = 0.0;
      for (uint32_t k = rows.offsets[i]; k < rows.offsets[i + 1]; ++k) {
        inflow += rows.vals[k] * pi[rows.cols[k]];
      }
      const double updated = inflow / exit_rate[i];
      delta = std::max(delta, std::abs(updated - pi[i]));
      checksum += updated;
      pi[i] = updated;
    }
    result.iterations = iter;
    result.final_delta = delta;
    if (!std::isfinite(checksum)) {
      result.diverged = true;
      break;
    }
    normalize_l1(pi);
    if (delta <= options.tolerance) {
      result.converged = true;
      break;
    }
  }
  result.attempts.push_back({"gauss_seidel", result.iterations,
                             result.final_delta, result.converged,
                             result.diverged});
  util::metrics::registry().add("solver.stationary_iterations", result.iterations);
  return result;
}

}  // namespace autosec::linalg
