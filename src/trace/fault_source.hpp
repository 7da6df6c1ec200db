// Spec-driven fault injection at the trace layer.
//
// FaultInjectingTraceSource decorates any TraceSource with one deterministic
// fault at a fixed request position, mirroring the scheduler-layer
// FaultInjectingScheduler (INJECT) so the containment path can be drilled
// end to end: a hostile *input* enters through the same streaming pipeline a
// healthy one does, and the engine must quarantine exactly the processor
// reading it.
//
// Fault classes (position N counts consumed requests, 0-based):
//   fail@N          the cursor throws PpgException(kCorruptTrace) when the
//                   stream reaches position N — a torn or rotten byte.
//   hostile-page@N  request N is replaced with kInvalidPage, the sentinel no
//                   valid trace may contain; the consumer's validation (the
//                   BoxRunner span-refill scan) must reject it.
//   torn-span@N     the stream silently ends at position N while
//                   num_requests() keeps reporting the full declared length
//                   — a source that lies about its size.
//   stall@N         the stream stops producing at position N without ever
//                   reporting done(): next_span returns 0 forever. Only a
//                   per-tenant budget/deadline watchdog can evict such a
//                   tenant; single-pass drains (materialize, the trace
//                   stats) throw kCorruptTrace at N instead of spinning.
//
// The decorator hides materialized() so no consumer can bypass the cursor —
// faults must flow through the same validation as every other request.
//
// Spec grammar (trace/trace_spec.hpp registry):
//   INJECT-TRACE(<class>@<N>,<inner-spec>)
// wraps every processor source of <inner-spec>, e.g.
//   INJECT-TRACE(fail@120,workload(kind=hetero-mix,p=1,k=16,n=400,seed=3,s=4))
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>

#include "trace/trace_source.hpp"

namespace ppg {

enum class TraceFaultClass : std::uint8_t {
  kFail,         ///< Throw kCorruptTrace at position N.
  kHostilePage,  ///< Emit kInvalidPage at position N.
  kTornSpan,     ///< Silently end at position N; declared length lies.
  kStall,        ///< Produce nothing from position N on; never done().
};

struct TraceFaultSpec {
  TraceFaultClass fault = TraceFaultClass::kFail;
  std::uint64_t at = 0;  ///< Request position the fault triggers at.
};

/// "fail@120" -> {kFail, 120}; nullopt on an unknown class or malformed
/// position.
std::optional<TraceFaultSpec> parse_trace_fault(const std::string& text);

/// Canonical spelling of a fault spec ("hostile-page@7").
std::string trace_fault_to_string(const TraceFaultSpec& spec);

/// Wraps `inner` with one deterministic fault. A fault position at or past
/// the end of the inner stream degrades to a no-op decorator (the fault
/// never triggers) — a tenant shorter than the fault site is healthy.
std::shared_ptr<const TraceSource> make_fault_injecting_source(
    std::shared_ptr<const TraceSource> inner, const TraceFaultSpec& spec);

}  // namespace ppg
