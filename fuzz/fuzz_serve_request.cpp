// libFuzzer harness for the serve request parser (the input boundary of every
// `autosec serve` transport). Any byte string may be rejected, but only as a
// bad_request ParseResult: no exception may escape, and each result carries
// exactly one of a parsed request or an error. Anything else — crash,
// sanitizer report, escaped exception, both or neither set, another error
// code — is a finding.
#include <cstdint>
#include <string_view>

#include "service/protocol.hpp"

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  const std::string_view line(reinterpret_cast<const char*>(data), size);
  autosec::service::ParseResult result;
  try {
    result = autosec::service::parse_request(line);
  } catch (...) {
    __builtin_trap();
  }
  const bool has_error = !result.error.code.empty();
  if (result.request.has_value() == has_error) __builtin_trap();
  if (has_error && result.error.code != "bad_request") __builtin_trap();
  return 0;
}
