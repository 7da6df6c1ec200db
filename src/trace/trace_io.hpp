// Binary serialization of traces and multi-traces.
//
// Format (little-endian): magic "PPGTRACE", u32 version, u32 num_traces,
// then per trace a u64 length followed by raw u64 page ids. Round-trips
// exactly; used to snapshot generated workloads for external analysis and
// to feed recorded traces back into the simulators.
//
// Readers are hardened against truncated and hostile input: magic and
// version are validated, declared counts/lengths are capped against the
// remaining stream bytes before any allocation (no OOM on a corrupted u64
// length), and failures surface as ppg::PpgException carrying a structured
// Error (code kCorruptTrace / kIoError with the byte offset) — which
// still derives std::runtime_error for older call sites.
#pragma once

#include <iosfwd>
#include <string>

#include "trace/trace.hpp"
#include "trace/trace_source.hpp"

namespace ppg {

void write_multitrace(std::ostream& os, const MultiTrace& mt);
MultiTrace read_multitrace(std::istream& is);

void save_multitrace(const std::string& path, const MultiTrace& mt);
MultiTrace load_multitrace(const std::string& path);

/// Opens a PPGTRACE file as per-processor streaming sources without loading
/// the payloads: the header and every declared trace length are validated
/// against the file size up front (a torn or truncated record fails here,
/// with the offending byte offset), then each cursor streams its payload
/// chunk by chunk through a fixed-size buffer, so peak memory is
/// O(chunk * open cursors) regardless of file size. Each cursor owns an
/// independent file handle. `chunk_requests` sets the buffer
/// granularity in requests (0 = default, 1<<16). A file truncated *after*
/// opening surfaces as PpgException(kCorruptTrace) from the cursor.
MultiTraceSource open_multitrace_source(const std::string& path,
                                        std::size_t chunk_requests = 0);

/// Text format for interchange with external tools: one request per line
/// as "<proc> <page>" in decimal; '#' starts a comment; processors may
/// interleave arbitrarily (per-processor order is preserved). Processors
/// with no requests still appear if a lower-numbered processor exists.
void write_multitrace_text(std::ostream& os, const MultiTrace& mt);
MultiTrace read_multitrace_text(std::istream& is);
void save_multitrace_text(const std::string& path, const MultiTrace& mt);
MultiTrace load_multitrace_text(const std::string& path);

}  // namespace ppg
