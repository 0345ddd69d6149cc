// Diagnostic analyses on top of the core metric — the paper's Section 4.2
// closes with "such an analysis can be performed for every element in the
// architecture"; this module does exactly that, systematically:
//
//  * criticality_analysis: for every rate constant in the generated model
//    (interface η, ECU ϕ, guardian/switch rates, message η/ϕ), the
//    elasticity of the exposure metric — %-change in exposure per %-change
//    in the rate. Tells the decision maker where hardening or faster
//    patching buys the most, and is directly the contract-negotiation input
//    the paper describes (OEM vs supplier patch-rate agreements).
//
//  * first_breach_attribution: decomposes the breach probability by the
//    state in which the system first becomes violated, aggregated to the
//    architecture components that are exploited in that state — "through
//    which door does the attacker come?".
//
//  * breach_time_quantiles: by when are q% of vehicles breached?
//
// Every analysis runs on one (message, category) pair session
// (make_pair_session), under that session's budget, cancel token and solver
// plan; diagnose() runs all three, which is what `autosec diagnose` and the
// serve `diagnose` op render.
#pragma once

#include <array>
#include <span>
#include <string>
#include <vector>

#include "automotive/analyzer.hpp"

namespace autosec::automotive {

struct Criticality {
  std::string constant;  ///< generated rate-constant name (e.g. "phi_3g")
  double base_value = 0.0;
  /// d(log exposure) / d(log rate), central finite difference. Negative for
  /// patch rates (faster patching lowers exposure), positive for exploit
  /// rates.
  double elasticity = 0.0;
};

/// Elasticities for every rate constant of the session's pair model, sorted
/// by descending |elasticity|. Constants with value 0 are skipped (nothing to
/// perturb multiplicatively). Each rate is evaluated at value/(1+h) and
/// value*(1+h), h = `relative_step`: the session is re-keyed to each
/// perturbed value on top of its current overrides (the base), and each
/// perturbed stage set is dropped once its exposure is read. The session
/// ends on the base key, whose stages (explored here for the constant table)
/// stay cached, as does every other key the session held.
std::vector<Criticality> criticality_analysis(csl::EngineSession& session,
                                              double horizon_years,
                                              double relative_step = 0.25);

struct BreachAttribution {
  std::string component;  ///< ECU name, "bus <name>", or "protection"
  /// Probability that the first violation within the horizon happens while
  /// this component is exploited (a first-breach state can involve several
  /// components, so shares may sum to more than the total probability).
  double probability = 0.0;
};

/// First-breach decomposition: P[first violated state within the horizon has
/// component X exploited], for every ECU/bus/protection, sorted descending,
/// plus the total breach probability in `total`.
struct BreachAttributionResult {
  double total_breach_probability = 0.0;
  std::vector<BreachAttribution> attributions;
};

/// The decomposition on the session's chain for the pair model of
/// `architecture`. The transient solve runs under the session's cancel token
/// and budget and unwinds with util::Cancelled past its deadline.
BreachAttributionResult first_breach_attribution(csl::EngineSession& session,
                                                 const Architecture& architecture,
                                                 double horizon_years);

/// The quantile levels diagnose reports (5/25/50/95%).
inline constexpr std::array<double, 4> kBreachQuantileLevels = {0.05, 0.25, 0.5, 0.95};

/// Breach-time quantiles: for each level q, the time t (years) by which the
/// message has been violated at least once with probability q. Solved by
/// bisection on P=?[F<=t "violated"] (monotone in t), with each P(F<=t)
/// solved once per exact t across all levels. A level is +infinity when even
/// `max_years` does not reach it (e.g. unreachable violations). Every solve
/// polls the session's cancel token, so a request deadline stops the search.
std::vector<double> breach_time_quantiles(csl::EngineSession& session,
                                          std::span<const double> levels,
                                          double max_years = 100.0,
                                          double tolerance_years = 1e-4);

/// Everything diagnose reports for one pair.
struct Diagnosis {
  std::vector<Criticality> criticality;
  BreachAttributionResult first_breach;
  /// Breach times (years), aligned with kBreachQuantileLevels.
  std::vector<double> quantile_years;
};

/// Criticality, first-breach attribution and breach-time quantiles of the
/// pair model of `architecture` in `session`, keyed to the base overrides.
Diagnosis diagnose(csl::EngineSession& session, const Architecture& architecture,
                   double horizon_years);

}  // namespace autosec::automotive
