#include "fuzz/fuzz_targets.hpp"

#include <unistd.h>

#include <cstdlib>
#include <cstring>
#include <fstream>

namespace tracered::fuzz {

const std::vector<TargetInfo>& allTargets() {
  static const std::vector<TargetInfo> targets = {
      {"trace_file", &runTraceFile},
      {"trm1", &runTrm1},
      {"text", &runText},
      {"serve", &runServe},
      {"reduction_config", &runReductionConfig},
      {"analyze", &runAnalyze},
      {"ingest", &runIngest},
  };
  return targets;
}

TargetFn targetByName(const char* name) {
  for (const TargetInfo& t : allTargets())
    if (std::strcmp(t.name, name) == 0) return t.fn;
  return nullptr;
}

const std::string& writeScratchFile(const std::uint8_t* data, std::size_t size) {
  static const std::string path = [] {
    const char* dir = std::getenv("TMPDIR");
    const std::string d = (dir != nullptr && *dir != '\0') ? dir : "/tmp";
    return d + "/tracered_fuzz_" + std::to_string(::getpid()) + ".bin";
  }();
  std::ofstream f(path, std::ios::binary | std::ios::trunc);
  f.write(reinterpret_cast<const char*>(data), static_cast<std::streamsize>(size));
  return path;
}

}  // namespace tracered::fuzz
