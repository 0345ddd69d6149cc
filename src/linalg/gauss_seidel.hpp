// Gauss-Seidel style iterative solvers for the two linear-system shapes that
// appear in CTMC analysis:
//
//  * fixpoint systems  x = A·x + b  (absorption probabilities / expected
//    reachability rewards on the embedded DTMC, where A is the substochastic
//    transient-to-transient block), and
//  * stationary distributions  π·Q = 0, Σπ = 1  over an irreducible generator
//    (solved through the transposed generator so each update only needs the
//    incoming transitions of one state).
//
// Every sweep updates states 0..n-1 strictly in order, in place, so each
// update already sees the values written earlier in the same sweep. The
// sweep is serial and therefore bit-identical at any thread count.
#pragma once

#include <cstddef>
#include <functional>
#include <string>
#include <vector>

#include "linalg/csr_matrix.hpp"

namespace autosec::linalg {

/// How solve_fixpoint attacks x = A·x + b. Stationary solves
/// (stationary_from_transposed) always use Gauss-Seidel and ignore this.
enum class FixpointMethod {
  /// The full fallback ladder: BiCGSTAB (linalg/krylov.hpp) first,
  /// Gauss-Seidel sweeps when Krylov breaks down or stagnates, and a Jacobi
  /// power rung (linalg/power_iteration.hpp) as the last resort. The default:
  /// orders of magnitude faster on stiff chains, bit-for-bit deterministic at
  /// any thread count, and never worse than a clean Gauss-Seidel run. Each
  /// rung taken is recorded in IterativeResult::attempts and util::metrics.
  kAuto,
  /// Pure Gauss-Seidel sweeps — the engine's original path, kept selectable
  /// for baselines and for cross-checking the Krylov results.
  kGaussSeidel,
  /// BiCGSTAB only; the result carries converged = false on breakdown.
  kKrylov,
};

struct IterativeOptions {
  /// Max-norm change between sweeps, relative to max(1, |x|∞) — absolute for
  /// probability-scale solutions, relative for large expected rewards.
  double tolerance = 1e-12;
  /// Stiff reward chains (escape probability ~1e-5 per step) legitimately
  /// need several hundred thousand Gauss-Seidel sweeps to push the max-norm
  /// delta to 1e-12; the cap only exists to bound genuinely divergent solves.
  size_t max_iterations = 1000000;
  FixpointMethod method = FixpointMethod::kAuto;
  /// Cooperative cancellation hook, polled between sweeps/iterations. When
  /// it returns true the solver stops cleanly with cancelled = true (and
  /// converged = false); callers translate that into their own unwinding.
  std::function<bool()> cancelled;
};

/// One rung of the kAuto fallback ladder, as attempted. solve_fixpoint
/// appends one entry per method it ran, so a degraded solve is visible to
/// metrics, the serve response, and diagnostics — never silent.
struct RungAttempt {
  std::string method;  ///< "krylov" | "gauss_seidel" | "power"
  size_t iterations = 0;
  double final_delta = 0.0;
  bool converged = false;
  bool diverged = false;
};

struct IterativeResult {
  std::vector<double> x;
  size_t iterations = 0;
  double final_delta = 0.0;
  bool converged = false;
  bool cancelled = false;  ///< stopped by IterativeOptions::cancelled
  /// Numerical health guard tripped: NaN/Inf in the iterate, a non-contracting
  /// diagonal, or residual growth — the iteration cannot converge and was
  /// stopped early instead of spinning to max_iterations.
  bool diverged = false;
  /// Rungs attempted, in order. Single-method solves carry one entry; a
  /// kAuto solve that fell back carries one entry per rung taken.
  std::vector<RungAttempt> attempts;
};

/// Solve x = A·x + b; the method is picked by options.method (BiCGSTAB with
/// a Gauss-Seidel fallback by default). The Gauss-Seidel path uses in-place
/// sweeps and requires the iteration to be contracting, which holds when A is
/// the transient block of a substochastic matrix. A diagonal entry A_ii < 1
/// is handled implicitly (x_i = (Σ_{j≠i} A_ij x_j + b_i) / (1 − A_ii)).
IterativeResult solve_fixpoint(const CsrMatrix& A, const std::vector<double>& b,
                               const IterativeOptions& options = {});

/// Stationary distribution of an irreducible CTMC generator Q, given the
/// *transposed* generator Qt (row i of Qt holds the rates Q_ji into state i).
/// Solves π_i = Σ_{j≠i} π_j·Q_ji / (−Q_ii) with per-sweep L1 normalization.
/// States with Q_ii == 0 (isolated absorbing single-state BSCC) are handled by
/// returning the point distribution when the matrix is 1x1.
IterativeResult stationary_from_transposed(const CsrMatrix& Qt,
                                           const IterativeOptions& options = {});

}  // namespace autosec::linalg
