#include "ctmc/lumping.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <stdexcept>

#include "util/log.hpp"

namespace autosec::ctmc {

std::vector<double> LumpingResult::aggregate_distribution(
    const std::vector<double>& original) const {
  if (original.size() != block_of.size()) {
    throw std::invalid_argument("aggregate_distribution: size mismatch");
  }
  std::vector<double> out(block_count, 0.0);
  for (size_t s = 0; s < original.size(); ++s) out[block_of[s]] += original[s];
  return out;
}

LumpingResult lump(const Ctmc& chain,
                   const std::vector<std::vector<double>>& signatures) {
  const size_t n = chain.state_count();
  if (signatures.size() != n) {
    throw std::invalid_argument("lump: one signature per state required");
  }

  // Initial partition: identical signature vectors share a block.
  std::vector<uint32_t> block_of(n, 0);
  size_t block_count = 0;
  {
    std::map<std::vector<double>, uint32_t> block_ids;
    for (size_t s = 0; s < n; ++s) {
      const auto [it, inserted] =
          block_ids.try_emplace(signatures[s], static_cast<uint32_t>(block_count));
      if (inserted) ++block_count;
      block_of[s] = it->second;
    }
  }

  // Refine: split any block whose members disagree on aggregate rates into
  // other blocks. The refinement key includes the current block, so the new
  // partition always refines the old one; the loop terminates when the block
  // count stops growing (at most n iterations).
  using RefineKey = std::pair<uint32_t, std::vector<std::pair<uint32_t, double>>>;
  std::vector<std::pair<uint32_t, double>> aggregate;
  while (true) {
    std::map<RefineKey, uint32_t> new_ids;
    std::vector<uint32_t> new_block_of(n, 0);
    size_t new_count = 0;
    for (size_t s = 0; s < n; ++s) {
      aggregate.clear();
      const auto cols = chain.rates().row_columns(s);
      const auto vals = chain.rates().row_values(s);
      for (size_t k = 0; k < cols.size(); ++k) {
        const uint32_t target_block = block_of[cols[k]];
        if (target_block == block_of[s] || vals[k] == 0.0) continue;
        aggregate.emplace_back(target_block, vals[k]);
      }
      std::sort(aggregate.begin(), aggregate.end());
      // Merge duplicates (several transitions into the same target block).
      std::vector<std::pair<uint32_t, double>> merged;
      for (const auto& [block, rate] : aggregate) {
        if (!merged.empty() && merged.back().first == block) {
          merged.back().second += rate;
        } else {
          merged.emplace_back(block, rate);
        }
      }
      RefineKey key{block_of[s], std::move(merged)};
      const auto [it, inserted] =
          new_ids.try_emplace(std::move(key), static_cast<uint32_t>(new_count));
      if (inserted) ++new_count;
      new_block_of[s] = it->second;
    }
    const bool stable = new_count == block_count;
    block_of = std::move(new_block_of);
    block_count = new_count;
    if (stable) break;
  }

  LumpingResult result;
  result.block_of = block_of;
  result.block_count = block_count;
  result.representative.assign(block_count, UINT32_MAX);
  for (uint32_t s = 0; s < n; ++s) {
    if (result.representative[block_of[s]] == UINT32_MAX) {
      result.representative[block_of[s]] = s;
    }
  }

  // Quotient rates from each block's representative (stability guarantees
  // every member would give the same aggregates).
  linalg::CsrBuilder builder(block_count, block_count);
  for (uint32_t b = 0; b < block_count; ++b) {
    const uint32_t rep = result.representative[b];
    const auto cols = chain.rates().row_columns(rep);
    const auto vals = chain.rates().row_values(rep);
    for (size_t k = 0; k < cols.size(); ++k) {
      const uint32_t target = block_of[cols[k]];
      if (target != b && vals[k] != 0.0) builder.add(b, target, vals[k]);
    }
  }
  result.quotient = Ctmc(std::move(builder).build());
  AUTOSEC_LOG_INFO("lumping") << n << " states lumped into " << block_count
                              << " blocks";
  return result;
}

LumpingResult lump_preserving(const Ctmc& chain,
                              const std::vector<std::vector<bool>>& masks,
                              const std::vector<std::vector<double>>& rewards,
                              const std::vector<double>* initial) {
  const size_t n = chain.state_count();
  std::vector<std::vector<double>> signatures(n);
  for (size_t s = 0; s < n; ++s) {
    auto& signature = signatures[s];
    for (const auto& mask : masks) {
      if (mask.size() != n) throw std::invalid_argument("lump_preserving: mask size");
      signature.push_back(mask[s] ? 1.0 : 0.0);
    }
    for (const auto& reward : rewards) {
      if (reward.size() != n) throw std::invalid_argument("lump_preserving: reward size");
      signature.push_back(reward[s]);
    }
    if (initial != nullptr) {
      if (initial->size() != n) throw std::invalid_argument("lump_preserving: initial size");
      // Separating "in the support of the initial distribution" from the rest
      // is enough when the initial distribution is a point mass or uniform
      // over a block; for general distributions use the probability itself.
      signature.push_back((*initial)[s]);
    }
  }
  return lump(chain, signatures);
}

}  // namespace autosec::ctmc
