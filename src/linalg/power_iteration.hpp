// Jacobi power iteration x ← A·x + b: the last rung of the solve_fixpoint
// kAuto ladder (linalg/gauss_seidel.hpp).
#pragma once

#include <vector>

#include "linalg/csr_matrix.hpp"
#include "linalg/gauss_seidel.hpp"

namespace autosec::linalg {

/// Jacobi iteration x ← A·x + b — the last rung of the solve_fixpoint kAuto
/// ladder. Slower than Gauss-Seidel but makes no in-place-update assumption,
/// so it can converge on orderings where the sweeps stall. Carries the same
/// health guards as the other rungs (NaN/Inf, runaway growth) plus a
/// stagnation window: ~10k iterations without improving the best delta means
/// the iteration is not contracting, and the rung reports diverged instead of
/// spinning to max_iterations.
IterativeResult solve_fixpoint_power(const CsrMatrix& A,
                                     const std::vector<double>& b,
                                     const IterativeOptions& options = {});

}  // namespace autosec::linalg
