#include "mdp/strategy.hpp"

#include <cmath>
#include <stdexcept>

#include "mdp/precompute.hpp"

namespace autosec::mdp {

namespace {

double row_value(const Mdp& mdp, uint32_t row, const std::vector<double>& values) {
  const auto columns = mdp.transitions.row_columns(row);
  const auto probabilities = mdp.transitions.row_values(row);
  double sum = 0.0;
  for (size_t i = 0; i < columns.size(); ++i) {
    sum += probabilities[i] * values[columns[i]];
  }
  return sum;
}

}  // namespace

std::vector<int32_t> extract_reachability_strategy(const Mdp& mdp,
                                                   const std::vector<bool>& target,
                                                   const ViResult& result,
                                                   bool maximize,
                                                   double tolerance) {
  const size_t states = mdp.state_count();
  std::vector<int32_t> rows(states, -1);

  // Pmin-zero states: commit to a row that provably stays inside the zero
  // set (the Prob0E greatest fixpoint guarantees one exists). Pmax-zero
  // states need nothing — no action of theirs can reach the target, so the
  // induced self-loop is as good as any row.
  if (!maximize) {
    for (uint32_t s = 0; s < states; ++s) {
      if (!result.zero[s] || target[s]) continue;
      const auto [first, last] = mdp.actions_of(s);
      for (uint32_t r = first; r < last; ++r) {
        bool stays = true;
        for (uint32_t t : mdp.transitions.row_columns(r)) {
          if (!result.zero[t]) { stays = false; break; }
        }
        if (stays) { rows[s] = static_cast<int32_t>(r); break; }
      }
    }
  }

  // Attractor from the target: commit a state once a value-optimal row steps
  // into the committed region, so chosen rows always make progress toward
  // the target instead of cycling among equally-valued states.
  std::vector<bool> committed = target;
  std::vector<uint32_t> pending;
  for (uint32_t s = 0; s < states; ++s) {
    if (!target[s] && !result.zero[s]) pending.push_back(s);
  }
  bool progress = true;
  while (progress && !pending.empty()) {
    progress = false;
    std::vector<uint32_t> still_pending;
    for (uint32_t s : pending) {
      const auto [first, last] = mdp.actions_of(s);
      int32_t pick = -1;
      for (uint32_t r = first; r < last && pick == -1; ++r) {
        if (std::abs(row_value(mdp, r, result.values) - result.values[s]) > tolerance) {
          continue;
        }
        for (uint32_t t : mdp.transitions.row_columns(r)) {
          if (committed[t]) { pick = static_cast<int32_t>(r); break; }
        }
      }
      if (pick != -1) {
        rows[s] = pick;
        committed[s] = true;
        progress = true;
      } else {
        still_pending.push_back(s);
      }
    }
    pending = std::move(still_pending);
  }
  // Numeric safety valve: if the tolerance was too tight for some state to
  // admit an optimal committed-successor row, fall back to plain argopt there.
  // The induced-chain re-check downstream still validates the overall value.
  for (uint32_t s : pending) {
    const auto [first, last] = mdp.actions_of(s);
    int32_t best_row = static_cast<int32_t>(first);
    double best = row_value(mdp, first, result.values);
    for (uint32_t r = first + 1; r < last; ++r) {
      const double v = row_value(mdp, r, result.values);
      if (maximize ? v > best : v < best) {
        best = v;
        best_row = static_cast<int32_t>(r);
      }
    }
    rows[s] = best_row;
  }
  return rows;
}

linalg::CsrMatrix induced_chain(const Mdp& mdp, const std::vector<int32_t>& rows) {
  const size_t states = mdp.state_count();
  if (rows.size() != states) {
    throw std::invalid_argument("induced_chain: strategy size mismatch");
  }
  linalg::CsrBuilder builder(states, states);
  for (uint32_t s = 0; s < states; ++s) {
    const int32_t row = rows[s];
    if (row < 0) {
      builder.add(s, s, 1.0);
      continue;
    }
    const auto [first, last] = mdp.actions_of(s);
    if (static_cast<uint32_t>(row) < first || static_cast<uint32_t>(row) >= last) {
      throw std::invalid_argument("induced_chain: row does not belong to its state");
    }
    const auto columns = mdp.transitions.row_columns(row);
    const auto values = mdp.transitions.row_values(row);
    for (size_t i = 0; i < columns.size(); ++i) {
      builder.add(s, columns[i], values[i]);
    }
  }
  return std::move(builder).build();
}

double induced_bounded_reachability(const Mdp& mdp,
                                    const std::vector<std::vector<int32_t>>& schedule,
                                    const std::vector<bool>& target, size_t initial) {
  const size_t states = mdp.state_count();
  for (const std::vector<int32_t>& slot : schedule) {
    if (slot.size() != states) {
      throw std::invalid_argument("induced_bounded_reachability: schedule size mismatch");
    }
  }
  std::vector<double> values(states, 0.0);
  for (uint32_t s = 0; s < states; ++s) values[s] = target[s] ? 1.0 : 0.0;
  std::vector<double> next(states, 0.0);
  // Backward over remaining steps: the decision after t elapsed steps is
  // schedule[t], so the sweep for i steps remaining reads schedule[k - i].
  for (size_t i = 1; i <= schedule.size(); ++i) {
    const std::vector<int32_t>& slot = schedule[schedule.size() - i];
    for (uint32_t s = 0; s < states; ++s) {
      if (target[s]) {
        next[s] = 1.0;
        continue;
      }
      const int32_t row = slot[s];
      if (row < 0) {
        next[s] = values[s];
        continue;
      }
      const auto [first, last] = mdp.actions_of(s);
      if (static_cast<uint32_t>(row) < first || static_cast<uint32_t>(row) >= last) {
        throw std::invalid_argument(
            "induced_bounded_reachability: row does not belong to its state");
      }
      next[s] = row_value(mdp, static_cast<uint32_t>(row), values);
    }
    values.swap(next);
  }
  return values[initial];
}

}  // namespace autosec::mdp
