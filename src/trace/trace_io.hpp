// Binary trace file formats.
//
// The "percentage of full trace file size" criterion (Sec. 4.3.1) is computed
// from the serialized byte counts of these two formats:
//
//   * Full format  ("TRF1"): every raw record of every rank, delta-encoded.
//   * Reduced format ("TRR1"): per rank, the stored representative segments
//     plus the segment-execution table.
//   * Merged format ("TRM1"): one application-wide shared representative
//     store plus per-rank execution tables — the output of the cross-rank
//     merge (core/cross_rank.hpp), same segment/exec encoding as TRR1.
//
// All use the same event encoding so the ratios between them reflect the
// reduction achieved by segment matching rather than encoding tricks. Readers
// fully validate and round-trip the writers' output.
//
// docs/FORMATS.md is the normative byte-level spec of the layouts (§1 TRF1,
// §2 TRR1, §2b TRM1); the record-level encoding itself lives in
// trace_codec.hpp, shared with the chunked streaming reader/writer in
// trace_file.hpp. This header is the whole-buffer convenience surface.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "trace/reduced_trace.hpp"
#include "trace/trace.hpp"

namespace tracered {

/// Serializes a full trace. The returned buffer is the "file".
std::vector<std::uint8_t> serializeFullTrace(const Trace& trace);

/// Parses a full trace; throws std::runtime_error / std::out_of_range on
/// malformed input.
Trace deserializeFullTrace(const std::vector<std::uint8_t>& bytes);

/// Serializes a reduced trace.
std::vector<std::uint8_t> serializeReducedTrace(const ReducedTrace& reduced);

/// Parses a reduced trace.
ReducedTrace deserializeReducedTrace(const std::vector<std::uint8_t>& bytes);

/// Serializes a merged (cross-rank) reduced trace as "TRM1". Per-segment
/// rank labels are NOT encoded (representatives are application-wide by
/// construction); deserializeMergedTrace assigns rank 0 to store entries,
/// and core::reconstructMerged re-labels segments from the execs tables, so
/// reconstruction is unaffected.
std::vector<std::uint8_t> serializeMergedTrace(const MergedReducedTrace& merged);

/// Parses a merged reduced trace.
MergedReducedTrace deserializeMergedTrace(const std::vector<std::uint8_t>& bytes);

/// Convenience: serialized sizes without keeping the buffers.
std::size_t fullTraceSize(const Trace& trace);
std::size_t reducedTraceSize(const ReducedTrace& reduced);
std::size_t mergedTraceSize(const MergedReducedTrace& merged);

/// Writes `bytes` to `path`. Throws std::runtime_error naming the path when
/// the file cannot be opened, written, flushed or closed (e.g. a full disk).
void writeFile(const std::string& path, const std::vector<std::uint8_t>& bytes);

/// Reads a whole file.
std::vector<std::uint8_t> readFile(const std::string& path);

}  // namespace tracered
