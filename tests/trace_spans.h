// Span builder over a machine's trace records (DESIGN.md section 14): the
// test oracle for the span chain and for the Chrome export's round trip.
//
// Every trace event that carries a call id (kSpanArrival / kBatchEnqueue /
// kBatchFlushStart / kSpanVmfunc / kBatchDrain / kSpanReturn / kBatchPoll)
// can be grouped back into one span per call:
//
//   arrival -> enqueue -> flush -> vmfunc -> drain -> return -> poll
//
// Sync DirectServerCalls produce the arrival/vmfunc/return subset; batched
// calls produce the full chain, with N entry spans correlated to the ONE
// FlushBatch crossing that drained them (crossing_id). BuildSpans copies the
// crossing's flush/vmfunc/return legs into each correlated entry span
// (marked inherited), so a single batched call's tree is complete on its own.

#ifndef TESTS_TRACE_SPANS_H_
#define TESTS_TRACE_SPANS_H_

#include <cstdint>
#include <string_view>
#include <vector>

#include "src/base/telemetry/trace.h"

namespace sb::telemetry {

// One phase of a call's lifecycle, in canonical order.
enum class SpanPhase : uint8_t {
  kArrival,  // Intended arrival (open-loop generator).
  kEnqueue,  // SubmitCall wrote the ring entry.
  kFlush,    // FlushBatch crossing that drained the entry.
  kVmfunc,   // Entry VMFUNC of the crossing / sync call.
  kDrain,    // Server drained the entry (handler ran inside).
  kReturn,   // Return VMFUNC back to the client view.
  kPoll,     // PollCompletion reaped the completion.
};

std::string_view SpanPhaseName(SpanPhase phase);

struct SpanEvent {
  SpanPhase phase = SpanPhase::kArrival;
  uint64_t cycles = 0;
  uint64_t seq = 0;
  uint32_t core = 0;
  uint64_t aux = 0;        // The record's arg1 (token, slot, count...).
  bool inherited = false;  // Copied from the correlated crossing's span.
};

struct CallSpan {
  uint64_t call_id = 0;
  // For a batched entry: the call id of the FlushBatch crossing that drained
  // it (N entries share one crossing). 0 for sync calls and for the crossing
  // span itself.
  uint64_t crossing_id = 0;
  std::vector<SpanEvent> events;  // seq order.

  // First event of `phase`, or nullptr.
  const SpanEvent* Find(SpanPhase phase) const;
  // End-to-end cycles: last event minus first event.
  uint64_t TotalCycles() const;
};

// Groups call-id-carrying records into spans, sorted by call id. Entry spans
// correlate to their crossing via drain containment: a kBatchDrain emitted
// between a crossing's kBatchFlushStart and kBatchFlushEnd (in seq order, on
// the crossing's core) belongs to that crossing, and the crossing's
// flush/vmfunc/return events are mirrored into the entry span as inherited.
std::vector<CallSpan> BuildSpans(const std::vector<TraceRecord>& records);

// Parses TraceChromeJson() output back into records — the round-trip the
// span acceptance test exercises (export, re-import, rebuild the tree). Only
// understands this repo's own exporter format (one event object per line,
// args carrying event/seq/arg0/arg1); returns an empty vector on anything
// else.
std::vector<TraceRecord> ParseChromeTrace(std::string_view json);

}  // namespace sb::telemetry

#endif  // TESTS_TRACE_SPANS_H_
