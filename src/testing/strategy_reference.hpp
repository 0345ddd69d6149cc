// Reference decoder for the version-1 strategy document: the tree-based
// decoder csl::parse_strategy_json replaced — parse the whole text into a
// util::JsonValue, then read members by lookup. It is kept only as the
// oracle of the strategy-document fuzz harness, which requires the
// streaming decoder to agree with it on every input (the same strategy, or
// the same rejection).
#pragma once

#include <string_view>

#include "csl/strategy_export.hpp"

namespace autosec::testing {

/// Decode `text` through a full document tree. Throws csl::PropertyError
/// with exactly the messages of csl::parse_strategy_json.
csl::StrategyExport reference_parse_strategy_json(std::string_view text);

}  // namespace autosec::testing
