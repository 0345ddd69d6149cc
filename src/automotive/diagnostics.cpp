#include "automotive/diagnostics.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "ctmc/transient.hpp"
#include "symbolic/explorer.hpp"
#include "util/json.hpp"

namespace autosec::automotive {

std::vector<Criticality> criticality_analysis(const Architecture& architecture,
                                              const std::string& message,
                                              SecurityCategory category,
                                              const CriticalityOptions& options,
                                              csl::SessionStats* stats) {
  // One session answers every perturbed exposure: each perturbation re-keys
  // its constant overrides, and every explore and solve runs under the
  // request's budget, cancel token and solver plan.
  const BatchSession pair =
      make_pair_session(architecture, message, category, options.analysis);
  csl::EngineSession& session = *pair.session;
  // The compiled model's constant table gives every rate with its effective
  // value (after any base overrides).
  const symbolic::CompiledModel compiled = symbolic::compile(
      transform(architecture, pair_transform_options(message, category, options.analysis)),
      options.analysis.constant_overrides);
  const double horizon = options.analysis.horizon_years;
  const std::string exposure =
      "R{\"exposure\"}=? [ C<=" + util::json_number(horizon) + " ]";
  // Exposure fraction with one rate perturbed; the perturbed value comes
  // first, so it wins over a base override of the same constant.
  auto exposure_with = [&](const std::string& name, double value) {
    std::vector<std::pair<std::string, symbolic::Value>> overrides = {
        {name, symbolic::Value::of(value)}};
    for (const auto& base : options.analysis.constant_overrides) overrides.push_back(base);
    session.set_constant_overrides(std::move(overrides));
    session.drop_inactive_stages();  // no perturbed value is visited twice
    return session.check(exposure) / horizon;
  };

  std::vector<Criticality> result;
  const double h = options.relative_step;
  for (const auto& [name, value] : compiled.constant_values) {
    if (name == "nmax" || !value.is_numeric() || value.is_int()) continue;
    const double base = value.as_number();
    if (base <= 0.0) continue;

    const double low = exposure_with(name, base / (1.0 + h));
    const double high = exposure_with(name, base * (1.0 + h));
    Criticality c;
    c.constant = name;
    c.base_value = base;
    if (low > 0.0 && high > 0.0) {
      c.elasticity = (std::log(high) - std::log(low)) / (2.0 * std::log(1.0 + h));
    }
    result.push_back(c);
  }
  std::sort(result.begin(), result.end(), [](const Criticality& a, const Criticality& b) {
    return std::abs(a.elasticity) > std::abs(b.elasticity);
  });
  if (stats != nullptr) *stats = session.stats();
  return result;
}

BreachAttributionResult first_breach_attribution(const Architecture& architecture,
                                                 const std::string& message,
                                                 SecurityCategory category,
                                                 const AnalysisOptions& options) {
  return first_breach_attribution(
      architecture, SecurityAnalysis(architecture, message, category, options));
}

BreachAttributionResult first_breach_attribution(const Architecture& architecture,
                                                 const SecurityAnalysis& analysis) {
  const symbolic::StateSpace& space = analysis.space();
  const ctmc::Ctmc chain = space.to_ctmc();
  const std::vector<bool> violated = space.label_mask(kViolatedLabel);

  // Make violated states absorbing: the transient mass in a violated state at
  // the horizon is then the probability that the *first* breach happened in
  // exactly that state.
  const ctmc::Ctmc stopped = chain.with_absorbing(violated);
  const std::vector<double> mass = ctmc::transient_distribution(
      stopped, space.initial_distribution(), analysis.options().horizon_years);

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

double breach_time_quantile(const SecurityAnalysis& analysis, double quantile,
                            double max_years, double tolerance_years) {
  if (!(quantile > 0.0 && quantile < 1.0)) {
    throw std::invalid_argument("breach_time_quantile: quantile must be in (0,1)");
  }
  if (!(max_years > 0.0) || !(tolerance_years > 0.0)) {
    throw std::invalid_argument("breach_time_quantile: bounds must be positive");
  }
  const ctmc::Ctmc chain = analysis.space().to_ctmc();
  const std::vector<bool> violated = analysis.space().label_mask(kViolatedLabel);
  const std::vector<double> initial = analysis.space().initial_distribution();
  const std::vector<bool> all(chain.state_count(), true);

  auto breach_probability = [&](double t) {
    return ctmc::bounded_reachability(chain, initial, all, violated, t);
  };
  if (breach_probability(max_years) < quantile) {
    return std::numeric_limits<double>::infinity();
  }
  double low = 0.0;
  double high = max_years;
  while (high - low > tolerance_years) {
    const double mid = 0.5 * (low + high);
    (breach_probability(mid) >= quantile ? high : low) = mid;
  }
  return 0.5 * (low + high);
}

}  // namespace autosec::automotive
