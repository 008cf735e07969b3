#include "serve/feeder.hpp"

namespace tracered::serve {

TraceStreamFeeder::TraceStreamFeeder(const core::ReductionConfig& config,
                                     std::size_t maxPendingBytes)
    : config_(config), decoder_(maxPendingBytes) {}

void TraceStreamFeeder::onHeader(const TraceDecoder& decoder) {
  session_.emplace(decoder.names(), config_);
}

void TraceStreamFeeder::push(const std::uint8_t* data, std::size_t n) {
  decoder_.push(data, n, this);
}

core::ReductionResult TraceStreamFeeder::finishStream() {
  decoder_.finish(this);  // a complete stream has announced its header
  return session_->finish();
}

}  // namespace tracered::serve
