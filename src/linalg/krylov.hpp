// Krylov-subspace acceleration for the fixpoint systems x = A·x + b that
// dominate unbounded CSL queries (absorption probabilities and expected
// reachability rewards on the embedded DTMC) and steady-state analysis (the
// visit measure of each BSCC's embedded chain).
//
// Gauss-Seidel converges at the contraction rate of the substochastic block
// A; on stiff chains — rare repair/patch events, mean times of hundreds of
// years — the spectral radius approaches 1 and a sweep count in the tens of
// thousands is common. BiCGSTAB on the equivalent linear system (I − A)x = b
// typically needs two orders of magnitude fewer matrix products on the same
// systems. The implementation is serial apart from the row-parallel matvec
// (CsrMatrix::right_multiply), so results are bit-identical at any thread
// count.
#pragma once

#include <vector>

#include "linalg/csr_matrix.hpp"
#include "linalg/gauss_seidel.hpp"

namespace autosec::linalg {

/// Solve x = A·x + b as (I − A)x = b with unpreconditioned BiCGSTAB.
///
/// Convergence is declared when the true residual max-norm drops to
/// options.tolerance (or to the floating-point floor ~1e-14·‖x‖ for large
/// solutions). A shadow-residual breakdown (ρ = 0 or r̂·v = 0 with r ≠ 0)
/// restarts the recurrence with r̂ := r; on a repeated breakdown or
/// stagnation the result carries converged = false and the caller is
/// expected to fall back to
/// solve_fixpoint's Gauss-Seidel sweeps — BiCGSTAB is an accelerator, not a
/// replacement. `iterations` counts BiCGSTAB steps (two matrix products
/// each), not Gauss-Seidel sweeps.
IterativeResult solve_fixpoint_krylov(const CsrMatrix& A,
                                      const std::vector<double>& b,
                                      const IterativeOptions& options = {});

}  // namespace autosec::linalg
