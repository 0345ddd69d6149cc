// Ordinary lumping of CTMCs by partition refinement — the paper's Section 5
// future-work item ("implementation of a targeted model checker" that merges
// redundant states to address scalability). A partition of the state space is
// ordinarily lumpable when all states of a block have identical aggregate
// rates into every other block; the quotient chain then preserves transient,
// steady-state and (block-constant) reward measures exactly, for any initial
// distribution that is pushed through the same aggregation.
//
// The initial partition is induced by per-state signatures — the observations
// that must be preserved (label indicator values, reward rates, and an
// initial-state marker when the initial distribution must survive
// aggregation). Refinement then splits blocks until the lumpability condition
// holds.
#pragma once

#include <cstdint>
#include <vector>

#include "ctmc/ctmc.hpp"

namespace autosec::ctmc {

struct LumpingResult {
  /// Quotient block per original state.
  std::vector<uint32_t> block_of;
  size_t block_count = 0;
  /// One representative original state per block.
  std::vector<uint32_t> representative;
  /// The quotient chain (block_count states).
  Ctmc quotient;

  /// Push a distribution over original states down to the quotient.
  std::vector<double> aggregate_distribution(const std::vector<double>& original) const;
};

/// Compute the coarsest ordinarily-lumpable partition refining the signature
/// partition. `signatures[s]` lists the observation values of state s; states
/// start in the same block iff their signature vectors are identical.
/// Runs in O(iterations * (states + transitions) * log) with hashing-based
/// splitting; exactness is asserted by construction (aggregate rates are
/// recomputed from a representative and verified against every member).
LumpingResult lump(const Ctmc& chain,
                   const std::vector<std::vector<double>>& signatures);

/// Convenience: build signatures from masks (0/1 per state), reward vectors,
/// and optionally the initial distribution, then lump.
LumpingResult lump_preserving(const Ctmc& chain,
                              const std::vector<std::vector<bool>>& masks,
                              const std::vector<std::vector<double>>& rewards,
                              const std::vector<double>* initial = nullptr);

}  // namespace autosec::ctmc
