#include "linalg/gauss_seidel.hpp"

#include <cmath>
#include <stdexcept>
#include <string>

#include "util/cancel.hpp"
#include "util/failure.hpp"
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

}  // namespace

IterativeResult solve_fixpoint_gauss_seidel(const CsrMatrix& A,
                                            const std::vector<double>& b,
                                            const IterativeOptions& options) {
  const size_t n = A.rows();
  if (A.cols() != n || b.size() != n) {
    throw std::invalid_argument("solve_fixpoint_gauss_seidel: dimension mismatch");
  }
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

namespace {

/// Log one rung's outcome: an entry in the result's attempt log, and the
/// per-method solver counters; the residual gauge keeps the last solve's
/// final delta visible in metrics dumps.
IterativeResult record_rung(const char* method, IterativeResult result) {
  result.attempts.push_back({method, result.iterations, result.final_delta,
                             result.converged, result.diverged});
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

}  // namespace

IterativeResult solve_fixpoint(const CsrMatrix& A, const std::vector<double>& b,
                               const IterativeOptions& options) {
  // Each rung checks the dimensions itself. Gauss-Seidel only runs when
  // BiCGSTAB broke down, diverged or stagnated; the result carries one attempt
  // entry per rung taken so a degraded solve is visible to callers and metrics.
  IterativeResult krylov = record_rung("krylov", solve_fixpoint_krylov(A, b, options));
  if (krylov.converged || krylov.cancelled) return krylov;
  util::metrics::registry().add("solver.krylov_fallbacks");
  IterativeResult gs =
      record_rung("gauss_seidel", solve_fixpoint_gauss_seidel(A, b, options));
  gs.attempts.insert(gs.attempts.begin(), krylov.attempts.begin(),
                     krylov.attempts.end());
  return gs;
}

IterativeResult solve_fixpoint_or_throw(const CsrMatrix& A,
                                        const std::vector<double>& b,
                                        const IterativeOptions& options,
                                        const char* stage, std::string_view what) {
  IterativeResult solved = solve_fixpoint(A, b, options);
  if (solved.cancelled) throw util::Cancelled(stage);
  if (!solved.converged) {
    util::FailureProgress progress;
    progress.iterations = solved.iterations;
    progress.residual = solved.final_delta;
    throw util::EngineFailure(
        util::FailureCode::kSolverDiverged, stage,
        std::string(what) + " fixpoint failed on every solver rung (" +
            std::to_string(solved.attempts.size()) + " attempted)",
        progress);
  }
  return solved;
}

}  // namespace autosec::linalg
