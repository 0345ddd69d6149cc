#include "csl/lumped.hpp"

#include <memory>

#include "csl/property_parser.hpp"

namespace autosec::csl {

LumpedCheckResult check_lumped(const symbolic::StateSpace& space,
                               const Property& property,
                               const SessionOptions& options) {
  // Non-owning alias: the helper only lives for this call, well inside the
  // caller-guaranteed lifetime of `space`. It resolves the property's state
  // formulas (and rejects formulas a symmetry-reduced space cannot answer).
  EngineSession helper(
      std::shared_ptr<const symbolic::StateSpace>(&space,
                                                  [](const symbolic::StateSpace*) {}),
      options);
  const ctmc::Ctmc& chain = helper.chain();

  // Observations the property depends on: its state formulas, its reward
  // structure and the initial state. Every block of the lumping is constant
  // on all of them.
  std::vector<std::vector<bool>> masks;
  if (property.left.is_valid()) masks.push_back(helper.satisfying(property.left));
  if (property.right.is_valid()) masks.push_back(helper.satisfying(property.right));
  std::vector<std::vector<double>> rewards;
  switch (property.kind) {
    case PropertyKind::kCumulativeReward:
    case PropertyKind::kInstantaneousReward:
    case PropertyKind::kSteadyStateReward:
    case PropertyKind::kReachabilityReward:
      rewards.push_back(space.reward_vector(property.reward_name));
      break;
    default:
      break;
  }
  const std::vector<double> initial = space.initial_distribution();
  const ctmc::LumpingResult lumping =
      ctmc::lump_preserving(chain, masks, rewards, &initial);

  // The quotient as a state space of its own: block b is state b, valued at
  // its representative. Formulas, rewards and the initial marker are
  // block-constant, so the session's evaluation at the representative is
  // exact, and the ordinary engine path checks the quotient.
  auto store = std::make_shared<symbolic::StateStore>(space.model());
  std::vector<int32_t> values;
  for (const uint32_t representative : lumping.representative) {
    values = space.state_values(representative);
    bool inserted = false;
    store->intern(values, inserted);
  }
  const linalg::CsrMatrix& rates = lumping.quotient.rates();
  auto quotient = std::make_shared<const symbolic::StateSpace>(
      space.model_ptr(), std::move(store), lumping.block_of[space.initial_state()],
      rates, rates.nonzeros(), space.symmetry());

  LumpedCheckResult result;
  result.original_states = chain.state_count();
  result.lumped_states = lumping.block_count;
  result.value = EngineSession(quotient, options).check(property);
  return result;
}

LumpedCheckResult check_lumped(const symbolic::StateSpace& space,
                               std::string_view property_text,
                               const SessionOptions& options) {
  return check_lumped(space, parse_property(property_text), options);
}

}  // namespace autosec::csl
