#include <stdexcept>
#include <string>
#include <vector>

#include "fuzz/fuzz_targets.hpp"
#include "trace/trace_file.hpp"
#include "trace/trace_io.hpp"

namespace tracered::fuzz {

int runTraceFile(const std::uint8_t* data, std::size_t size) {
  // Whole-buffer reader over the raw bytes (no file involved).
  try {
    deserializeFullTrace(std::vector<std::uint8_t>(data, data + size));
  } catch (const std::runtime_error&) {  // malformed: documented rejection
  } catch (const std::logic_error&) {    // includes std::out_of_range
  }

  const std::string& path = writeScratchFile(data, size);

  // Whole-file path: format sniff + header decode + readAll.
  try {
    TraceFileReader reader(path);
    reader.readAll();
  } catch (const std::runtime_error&) {
  } catch (const std::logic_error&) {
  }

  // Chunked path at a tiny chunk size, stressing the decoder's push
  // boundaries; callbacks discard the records.
  try {
    TraceFileReader reader(path, /*chunkBytes=*/7);
    reader.streamRecords([](Rank, const RawRecord&) {}, [](Rank) {});
  } catch (const std::runtime_error&) {
  } catch (const std::logic_error&) {
  }
  return 0;
}

}  // namespace tracered::fuzz
