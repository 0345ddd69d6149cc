#include "linalg/power_iteration.hpp"

#include <cmath>
#include <limits>
#include <stdexcept>

#include "util/fault.hpp"

namespace autosec::linalg {

namespace {

// See gauss_seidel.cpp: magnitudes past this can never converge to a 1e-12
// relative tolerance in double precision.
constexpr double kDivergenceCeiling = 1e100;

// Jacobi converges geometrically when it converges at all; this many
// iterations without a new best delta means the spectrum is not contracting.
constexpr size_t kStagnationWindow = 10000;

}  // namespace

IterativeResult solve_fixpoint_power(const CsrMatrix& A,
                                     const std::vector<double>& b,
                                     const IterativeOptions& options) {
  const size_t n = A.rows();
  if (A.cols() != n || b.size() != n) {
    throw std::invalid_argument("solve_fixpoint_power: dimension mismatch");
  }
  IterativeResult result;
  result.x.assign(n, 0.0);

  if (util::fault::triggered("power.diverge")) {
    result.diverged = true;
    return result;
  }

  std::vector<double> next(n, 0.0);
  double best_delta = std::numeric_limits<double>::infinity();
  size_t stagnant = 0;

  for (size_t iter = 1; iter <= options.max_iterations; ++iter) {
    if (options.cancelled && options.cancelled()) {
      result.cancelled = true;
      return result;
    }
    A.right_multiply(result.x, next);
    double delta = 0.0;
    double magnitude = 0.0;
    double checksum = 0.0;
    for (size_t i = 0; i < n; ++i) {
      next[i] += b[i];
      delta = std::max(delta, std::abs(next[i] - result.x[i]));
      magnitude = std::max(magnitude, std::abs(next[i]));
      checksum += next[i];
    }
    result.x.swap(next);
    result.iterations = iter;
    result.final_delta = delta;
    if (!std::isfinite(checksum) || magnitude > kDivergenceCeiling) {
      result.diverged = true;
      return result;
    }
    if (delta <= options.tolerance * std::max(1.0, magnitude)) {
      result.converged = true;
      break;
    }
    if (delta < best_delta) {
      best_delta = delta;
      stagnant = 0;
    } else if (++stagnant >= kStagnationWindow) {
      result.diverged = true;
      return result;
    }
  }
  return result;
}

}  // namespace autosec::linalg
