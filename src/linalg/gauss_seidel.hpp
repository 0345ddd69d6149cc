// The fixpoint solve x = A·x + b behind every unbounded CTMC query, with A
// substochastic: absorption probabilities and expected reachability rewards
// on the transient block of the embedded DTMC, and the BSCC visit measures
// steady-state analysis normalizes into stationary distributions
// (ctmc/steady_state.cpp). solve_fixpoint runs the two-rung ladder declared
// here — BiCGSTAB (krylov.cpp), then Gauss-Seidel (this file's .cpp) — and
// solve_fixpoint_or_throw is the failure contract every engine caller solves
// through.
//
// Every Gauss-Seidel sweep updates states 0..n-1 strictly in order, in
// place, so each update already sees the values written earlier in the same
// sweep. The sweep is serial and therefore bit-identical at any thread count.
#pragma once

#include <cstddef>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "linalg/csr_matrix.hpp"

namespace autosec::linalg {

struct IterativeOptions {
  /// Max-norm change between sweeps, relative to max(1, |x|∞) — absolute for
  /// probability-scale solutions, relative for large expected rewards.
  double tolerance = 1e-12;
  /// Stiff reward chains (escape probability ~1e-5 per step) legitimately
  /// need several hundred thousand Gauss-Seidel sweeps to push the max-norm
  /// delta to 1e-12; the cap only exists to bound genuinely divergent solves.
  size_t max_iterations = 1000000;
  /// Cooperative cancellation hook, polled between sweeps/iterations. When
  /// it returns true the solver stops cleanly with cancelled = true (and
  /// converged = false); callers translate that into their own unwinding.
  std::function<bool()> cancelled;
};

/// One rung of the fallback ladder, as attempted. solve_fixpoint appends one
/// entry per rung it ran, so a degraded solve is visible to metrics, the
/// serve response, and diagnostics — never silent.
struct RungAttempt {
  std::string method;  ///< "krylov" | "gauss_seidel"
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
  /// Rungs solve_fixpoint attempted, in order: one entry when BiCGSTAB
  /// settled the system, two when it fell back to Gauss-Seidel. Empty on a
  /// direct rung call (solve_fixpoint_gauss_seidel / solve_fixpoint_krylov).
  std::vector<RungAttempt> attempts;
};

/// Solve x = A·x + b: BiCGSTAB first, Gauss-Seidel sweeps when it breaks
/// down, diverges or stagnates, and nothing else. For
/// the nonnegative A the engine passes, Jacobi-style iterations converge
/// exactly when Gauss-Seidel does and never faster (Stein–Rosenberg), so a
/// third rung could not rescue a failed solve. Deterministic at any thread
/// count; each rung taken is recorded in IterativeResult::attempts and
/// util::metrics.
IterativeResult solve_fixpoint(const CsrMatrix& A, const std::vector<double>& b,
                               const IterativeOptions& options = {});

/// The BiCGSTAB rung alone: unpreconditioned BiCGSTAB on (I − A)x = b.
/// Gauss-Seidel converges at the contraction rate of A; on stiff chains (rare
/// repair/patch events, mean times of hundreds of years) that means tens of
/// thousands of sweeps, where BiCGSTAB typically needs two orders of
/// magnitude fewer matrix products. Converged when the true residual
/// max-norm drops to options.tolerance (or to the floating-point floor
/// ~1e-14·‖x‖ for large solutions). A shadow-residual breakdown (ρ = 0 or
/// r̂·v = 0 with r ≠ 0) restarts the recurrence with r̂ := r; a repeated
/// breakdown or stagnation returns converged = false. `iterations` counts
/// BiCGSTAB steps (two matrix products each). Serial apart from the
/// row-parallel matvec, so bit-identical at any thread count.
IterativeResult solve_fixpoint_krylov(const CsrMatrix& A,
                                      const std::vector<double>& b,
                                      const IterativeOptions& options = {});

/// The Gauss-Seidel rung alone. In-place sweeps require the iteration to be
/// contracting, which holds when A is the transient block of a substochastic
/// matrix. A diagonal entry A_ii < 1 is handled implicitly
/// (x_i = (Σ_{j≠i} A_ij x_j + b_i) / (1 − A_ii)); A_ii ≥ 1, NaN/Inf in the
/// iterate or runaway growth come back as diverged, never thrown.
IterativeResult solve_fixpoint_gauss_seidel(const CsrMatrix& A,
                                            const std::vector<double>& b,
                                            const IterativeOptions& options = {});

/// solve_fixpoint under the engine's failure contract — the one place a
/// failed solve becomes an error. A cancelled solve unwinds as
/// util::Cancelled(stage); a ladder that fails on every rung unwinds as a
/// solver_diverged util::EngineFailure at `stage`, carrying the iterations
/// and final residual, with `what` naming the system in its message. The
/// returned result has converged; attempts.size() − 1 counts the fallbacks.
IterativeResult solve_fixpoint_or_throw(const CsrMatrix& A,
                                        const std::vector<double>& b,
                                        const IterativeOptions& options,
                                        const char* stage, std::string_view what);

}  // namespace autosec::linalg
