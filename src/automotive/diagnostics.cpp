#include "automotive/diagnostics.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <stdexcept>

#include "ctmc/transient.hpp"
#include "symbolic/explorer.hpp"
#include "util/budget.hpp"
#include "util/metrics.hpp"

namespace autosec::automotive {

std::vector<Criticality> criticality_analysis(csl::EngineSession& session,
                                              double horizon_years,
                                              double relative_step) {
  const std::vector<std::pair<std::string, symbolic::Value>> base =
      session.options().constant_overrides;
  // The compiled model's constant table gives every rate with its effective
  // value (after any base overrides).
  const std::vector<std::pair<std::string, symbolic::Value>> constants =
      session.space().model().constant_values;
  const std::string exposure = exposure_property(horizon_years);
  // Exposure fraction with one rate perturbed; the perturbed value comes
  // first, so it wins over a base override of the same constant. No
  // perturbed value is visited twice, so its stages go as soon as it is read,
  // and what they charged the budget goes back: the request pays the peak of
  // one perturbed stage set, not the sum over every constant.
  const std::shared_ptr<util::ResourceBudget>& budget = session.options().budget;
  auto exposure_with = [&](const std::string& name, double value) {
    std::vector<std::pair<std::string, symbolic::Value>> overrides = {
        {name, symbolic::Value::of(value)}};
    overrides.insert(overrides.end(), base.begin(), base.end());
    const size_t charged = budget ? budget->charged_bytes() : 0;
    session.set_constant_overrides(std::move(overrides));
    const double fraction = session.check(exposure) / horizon_years;
    session.drop_active_stages();
    if (budget) budget->release_bytes(budget->charged_bytes() - charged);
    return fraction;
  };

  std::vector<Criticality> result;
  const double h = relative_step;
  for (const auto& [name, value] : constants) {
    if (name == "nmax" || !value.is_numeric() || value.is_int()) continue;
    const double base_value = value.as_number();
    if (base_value <= 0.0) continue;

    const double low = exposure_with(name, base_value / (1.0 + h));
    const double high = exposure_with(name, base_value * (1.0 + h));
    Criticality c;
    c.constant = name;
    c.base_value = base_value;
    if (low > 0.0 && high > 0.0) {
      c.elasticity = (std::log(high) - std::log(low)) / (2.0 * std::log(1.0 + h));
    }
    result.push_back(c);
  }
  session.set_constant_overrides(base);
  std::sort(result.begin(), result.end(), [](const Criticality& a, const Criticality& b) {
    return std::abs(a.elasticity) > std::abs(b.elasticity);
  });
  return result;
}

BreachAttributionResult first_breach_attribution(csl::EngineSession& session,
                                                 const Architecture& architecture,
                                                 double horizon_years) {
  const symbolic::StateSpace& space = session.space();
  const std::vector<bool> violated = space.label_mask(kViolatedLabel);

  // Make violated states absorbing: the transient mass in a violated state at
  // the horizon is then the probability that the *first* breach happened in
  // exactly that state.
  const ctmc::Ctmc stopped = session.chain().with_absorbing(violated);
  const std::vector<double> mass = ctmc::transient_distribution(
      stopped, space.initial_distribution(), horizon_years,
      session.transient_options());

  BreachAttributionResult result;
  for (size_t s = 0; s < mass.size(); ++s) {
    if (violated[s]) result.total_breach_probability += mass[s];
  }

  // Components a first-breach state can be attributed to.
  struct ComponentMask {
    std::string name;
    std::vector<bool> mask;
  };
  std::vector<ComponentMask> components;
  for (const Ecu& ecu : architecture.ecus) {
    components.push_back(
        {ecu.name,
         space.label_mask("ecu_" + sanitize_identifier(ecu.name) + "_exploited")});
  }
  for (const Bus& bus : architecture.buses) {
    if (bus.kind == BusKind::kFlexRay) {
      components.push_back(
          {"guardian " + bus.name,
           space.label_mask("guardian_" + sanitize_identifier(bus.name) +
                            "_exploited")});
    }
    if (bus.kind == BusKind::kEthernet) {
      components.push_back(
          {"switch " + bus.name,
           space.label_mask("switch_" + sanitize_identifier(bus.name) + "_exploited")});
    }
  }
  components.push_back({"protection", space.label_mask("protection_broken")});

  for (const ComponentMask& component : components) {
    double probability = 0.0;
    for (size_t s = 0; s < mass.size(); ++s) {
      if (violated[s] && component.mask[s]) probability += mass[s];
    }
    if (probability > 0.0) {
      result.attributions.push_back({component.name, probability});
    }
  }
  std::sort(result.attributions.begin(), result.attributions.end(),
            [](const BreachAttribution& a, const BreachAttribution& b) {
              return a.probability > b.probability;
            });
  return result;
}

std::vector<double> breach_time_quantiles(csl::EngineSession& session,
                                          std::span<const double> levels,
                                          double max_years, double tolerance_years) {
  for (const double quantile : levels) {
    if (!(quantile > 0.0 && quantile < 1.0)) {
      throw std::invalid_argument("breach_time_quantiles: quantile must be in (0,1)");
    }
  }
  if (!(max_years > 0.0) || !(tolerance_years > 0.0)) {
    throw std::invalid_argument("breach_time_quantiles: bounds must be positive");
  }
  const ctmc::Ctmc& chain = session.chain();
  const std::vector<bool> violated = session.space().label_mask(kViolatedLabel);
  const std::vector<double> initial = session.space().initial_distribution();
  const std::vector<bool> all(chain.state_count(), true);
  // Every solve polls the request's cancel token and charges its budget,
  // like the session's own solves.
  const ctmc::TransientOptions transient = session.transient_options();

  // The bisections all start from [0, max_years], so they share t = max_years,
  // the first midpoint, and every step on which their paths agree.
  std::map<double, double> solved;
  auto breach_probability = [&](double t) {
    const auto [it, fresh] = solved.try_emplace(t, 0.0);
    if (fresh) {
      it->second = ctmc::bounded_reachability(chain, initial, all, violated, t, transient);
    }
    return it->second;
  };

  std::vector<double> years;
  years.reserve(levels.size());
  for (const double quantile : levels) {
    if (breach_probability(max_years) < quantile) {
      years.push_back(std::numeric_limits<double>::infinity());
      continue;
    }
    double low = 0.0;
    double high = max_years;
    while (high - low > tolerance_years) {
      const double mid = 0.5 * (low + high);
      (breach_probability(mid) >= quantile ? high : low) = mid;
    }
    years.push_back(0.5 * (low + high));
  }
  return years;
}

Diagnosis diagnose(csl::EngineSession& session, const Architecture& architecture,
                   double horizon_years) {
  util::metrics::ScopedSpan diagnose_span("diagnose");
  Diagnosis diagnosis;
  diagnosis.criticality = criticality_analysis(session, horizon_years);
  {
    util::metrics::ScopedSpan span("attribution");
    diagnosis.first_breach =
        first_breach_attribution(session, architecture, horizon_years);
  }
  util::metrics::ScopedSpan span("quantiles");
  diagnosis.quantile_years = breach_time_quantiles(session, kBreachQuantileLevels);
  return diagnosis;
}

}  // namespace autosec::automotive
