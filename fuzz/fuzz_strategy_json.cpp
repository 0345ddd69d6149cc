// libFuzzer harness for the strategy-document decoder (the input boundary of
// `check --strategy-json` and any tool replaying an exported scheduler). Any
// byte string may be rejected, but only with csl::PropertyError; and the
// streaming decoder must agree with the tree-based reference decoder on
// every input — the same strategy, or the same rejection message. Anything
// else — crash, sanitizer report, other exception, disagreement — is a
// finding.
#include <bit>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "csl/property.hpp"
#include "csl/strategy_export.hpp"
#include "testing/strategy_reference.hpp"

namespace {

using autosec::csl::StrategyExport;

struct Outcome {
  std::optional<StrategyExport> strategy;
  std::string error;
};

template <typename Decoder>
Outcome decode(Decoder decoder, std::string_view text) {
  Outcome outcome;
  try {
    outcome.strategy = decoder(text);
  } catch (const autosec::csl::PropertyError& e) {
    outcome.error = e.what();
  }
  return outcome;
}

bool same(const StrategyExport& a, const StrategyExport& b) {
  return a.bounded == b.bounded && a.rows == b.rows && a.schedule == b.schedule &&
         std::bit_cast<uint64_t>(a.value) == std::bit_cast<uint64_t>(b.value) &&
         std::bit_cast<uint64_t>(a.induced_value) ==
             std::bit_cast<uint64_t>(b.induced_value) &&
         a.property == b.property && a.direction == b.direction;
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  const std::string_view text(reinterpret_cast<const char*>(data), size);
  const Outcome streamed = decode(autosec::csl::parse_strategy_json, text);
  const Outcome reference =
      decode(autosec::testing::reference_parse_strategy_json, text);
  if (streamed.strategy.has_value() != reference.strategy.has_value()) __builtin_trap();
  if (streamed.strategy) {
    if (!same(*streamed.strategy, *reference.strategy)) __builtin_trap();
  } else if (streamed.error != reference.error) {
    __builtin_trap();
  }
  return 0;
}
