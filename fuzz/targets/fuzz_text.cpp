#include <stdexcept>
#include <string>

#include "fuzz/fuzz_targets.hpp"
#include "trace/text_io.hpp"

namespace tracered::fuzz {

int runText(const std::uint8_t* data, std::size_t size) {
  const std::string text(reinterpret_cast<const char*>(data), size);

  // Whole-string convenience path.
  try {
    traceFromText(text);
  } catch (const std::runtime_error&) {
  } catch (const std::logic_error&) {
  }

  // Line-at-a-time streaming path (what TraceDecoder drives under the file
  // reader and the serve feeder); must reject exactly the same inputs.
  try {
    TextTraceParser parser;
    std::size_t start = 0;
    while (start <= text.size()) {
      const std::size_t nl = text.find('\n', start);
      const std::size_t end = nl == std::string::npos ? text.size() : nl;
      parser.feedLine(text.substr(start, end - start));
      if (nl == std::string::npos) break;
      start = nl + 1;
    }
    parser.finish();
  } catch (const std::runtime_error&) {
  } catch (const std::logic_error&) {
  }
  return 0;
}

}  // namespace tracered::fuzz
