#include "linalg/krylov.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "linalg/vector_ops.hpp"
#include "util/fault.hpp"

namespace autosec::linalg {

namespace {

double max_norm(const std::vector<double>& v) {
  double norm = 0.0;
  for (const double value : v) norm = std::max(norm, std::abs(value));
  return norm;
}

}  // namespace

IterativeResult solve_fixpoint_krylov(const CsrMatrix& A,
                                      const std::vector<double>& b,
                                      const IterativeOptions& options) {
  const size_t n = A.rows();
  if (A.cols() != n || b.size() != n) {
    throw std::invalid_argument("solve_fixpoint_krylov: dimension mismatch");
  }

  IterativeResult result;
  result.x.assign(n, 0.0);
  if (n == 0) {
    result.converged = true;
    return result;
  }

  if (util::fault::triggered("krylov.breakdown")) {
    // Simulated breakdown on entry: a non-converged, diverged result that
    // sends the kAuto ladder straight to the Gauss-Seidel rung.
    result.diverged = true;
    return result;
  }

  // y = (I − A)·v, the system matrix applied through the row-parallel gather
  // kernel (deterministic at any thread count).
  std::vector<double> matvec_tmp(n, 0.0);
  const auto apply = [&](const std::vector<double>& v, std::vector<double>& y) {
    A.right_multiply(v, matvec_tmp);
    for (size_t i = 0; i < n; ++i) y[i] = v[i] - matvec_tmp[i];
  };

  std::vector<double>& x = result.x;
  std::vector<double> r = b;  // r0 = b − (I − A)·0 = b
  if (max_norm(r) <= options.tolerance) {
    result.converged = true;
    return result;
  }
  std::vector<double> r_hat = r;  // shadow residual

  std::vector<double> p(n, 0.0), v(n, 0.0), s(n, 0.0), t(n, 0.0);
  double rho = 1.0, alpha = 1.0, omega = 1.0;

  // A ρ or r̂·v breakdown with r ≠ 0 means the shadow residual went
  // orthogonal, not that the system is solved (b with one or two nonzeros —
  // a ring-shaped BSCC's visit measure — hits this within a few steps).
  // Restart the recurrence from the current iterate with r̂ := r. A second
  // breakdown before the restarted recurrence completes a step gives up.
  bool restarted = false;
  const auto restart = [&] {
    if (restarted) return false;
    restarted = true;
    r_hat = r;
    rho = alpha = omega = 1.0;
    std::fill(p.begin(), p.end(), 0.0);
    std::fill(v.begin(), v.end(), 0.0);
    return true;
  };

  double best_norm = max_norm(r);
  size_t stagnant = 0;
  constexpr size_t kStagnationLimit = 64;

  for (size_t iter = 1; iter <= options.max_iterations; ++iter) {
    result.iterations = iter;
    if (options.cancelled && options.cancelled()) {
      result.cancelled = true;
      result.converged = false;
      return result;
    }

    double rho_next = dot(r_hat, r);
    if (rho_next == 0.0 && restart()) rho_next = dot(r_hat, r);
    if (rho_next == 0.0) break;  // breakdown: shadow residual orthogonal
    if (!std::isfinite(rho_next)) {
      result.diverged = true;
      break;
    }
    const double beta = (rho_next / rho) * (alpha / omega);
    rho = rho_next;
    for (size_t i = 0; i < n; ++i) p[i] = r[i] + beta * (p[i] - omega * v[i]);

    apply(p, v);
    const double r_hat_v = dot(r_hat, v);
    if (r_hat_v == 0.0 && restart()) continue;
    if (r_hat_v == 0.0) break;  // breakdown
    if (!std::isfinite(r_hat_v)) {
      result.diverged = true;
      break;
    }
    alpha = rho / r_hat_v;

    for (size_t i = 0; i < n; ++i) s[i] = r[i] - alpha * v[i];
    const double s_norm = max_norm(s);
    // The solution can be orders of magnitude larger than b (mean times of
    // hundreds of years); below ~1e-14·‖x‖ the residual is rounding noise.
    const double floor = 1e-14 * max_norm(x);
    if (s_norm <= std::max(options.tolerance, floor)) {
      for (size_t i = 0; i < n; ++i) x[i] += alpha * p[i];
      result.final_delta = s_norm;
      result.converged = true;
      break;
    }

    apply(s, t);
    const double t_t = dot(t, t);
    if (t_t == 0.0) break;  // breakdown
    omega = dot(t, s) / t_t;
    if (omega == 0.0) break;
    if (!std::isfinite(omega) || !std::isfinite(t_t)) {
      result.diverged = true;
      break;
    }

    for (size_t i = 0; i < n; ++i) {
      x[i] += alpha * p[i] + omega * s[i];
      r[i] = s[i] - omega * t[i];
    }
    restarted = false;
    const double r_norm = max_norm(r);
    result.final_delta = r_norm;
    if (!std::isfinite(r_norm)) {
      result.diverged = true;
      break;
    }
    if (r_norm <= std::max(options.tolerance, 1e-14 * max_norm(x))) {
      result.converged = true;
      break;
    }
    if (r_norm < best_norm * 0.99) {
      best_norm = r_norm;
      stagnant = 0;
    } else if (++stagnant >= kStagnationLimit) {
      break;  // no meaningful progress — let the caller fall back
    }
  }

  if (result.converged) {
    // The recurrence residual drifts from the true one; verify before
    // reporting success so the Gauss-Seidel fallback catches any drift.
    std::vector<double> check(n, 0.0);
    apply(x, check);
    for (size_t i = 0; i < n; ++i) check[i] = b[i] - check[i];
    const double true_norm = max_norm(check);
    result.final_delta = true_norm;
    if (true_norm > 10.0 * std::max(options.tolerance, 1e-14 * max_norm(x))) {
      result.converged = false;
    }
  }
  return result;
}

}  // namespace autosec::linalg
