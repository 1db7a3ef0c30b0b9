#include "src/base/telemetry/trace.h"

#include <algorithm>
#include <iostream>
#include <sstream>

#include "src/base/logging.h"

namespace sb::telemetry {
namespace {

// The trace that holds the SB_CHECK hook slot, if any.
const Trace* g_crash_trace = nullptr;

void DumpCrashTrace() {
  if (g_crash_trace != nullptr) {
    g_crash_trace->Dump(std::cerr);
  }
}

bool IsBeginEvent(TraceEventType t) {
  return t == TraceEventType::kCallStart || t == TraceEventType::kHandlerEnter ||
         t == TraceEventType::kSyscallEnter;
}

bool IsEndEvent(TraceEventType t) {
  return t == TraceEventType::kCallEnd || t == TraceEventType::kHandlerExit ||
         t == TraceEventType::kSyscallExit;
}

// Slice name shared by a begin/end pair.
const char* SliceName(TraceEventType t) {
  switch (t) {
    case TraceEventType::kCallStart:
    case TraceEventType::kCallEnd:
      return "DirectServerCall";
    case TraceEventType::kHandlerEnter:
    case TraceEventType::kHandlerExit:
      return "handler";
    case TraceEventType::kSyscallEnter:
    case TraceEventType::kSyscallExit:
      return "syscall";
    default:
      return TraceEventName(t);
  }
}

}  // namespace

const char* TraceEventName(TraceEventType type) {
  switch (type) {
    case TraceEventType::kCallStart:
      return "call_start";
    case TraceEventType::kCallEnd:
      return "call_end";
    case TraceEventType::kLookupHit:
      return "lookup_hit";
    case TraceEventType::kLookupMiss:
      return "lookup_miss";
    case TraceEventType::kVmfuncSwitch:
      return "vmfunc_switch";
    case TraceEventType::kHandlerEnter:
      return "handler_enter";
    case TraceEventType::kHandlerExit:
      return "handler_exit";
    case TraceEventType::kTimeout:
      return "timeout";
    case TraceEventType::kRejected:
      return "rejected";
    case TraceEventType::kSyscallEnter:
      return "syscall_enter";
    case TraceEventType::kSyscallExit:
      return "syscall_exit";
    case TraceEventType::kContextSwitch:
      return "context_switch";
    case TraceEventType::kIpi:
      return "ipi";
    case TraceEventType::kVmcall:
      return "vmcall";
    case TraceEventType::kEptInstall:
      return "ept_install";
    case TraceEventType::kEptEvict:
      return "ept_evict";
    case TraceEventType::kCallAborted:
      return "call_aborted";
    case TraceEventType::kBindingRevoked:
      return "binding_revoked";
    case TraceEventType::kStaleSlotRetry:
      return "stale_slot_retry";
    case TraceEventType::kBatchEnqueue:
      return "batch_enqueue";
    case TraceEventType::kBatchFlushStart:
      return "batch_flush_start";
    case TraceEventType::kBatchFlushEnd:
      return "batch_flush_end";
    case TraceEventType::kBatchDrain:
      return "batch_drain";
    case TraceEventType::kBatchPoll:
      return "batch_poll";
    case TraceEventType::kSpanArrival:
      return "span_arrival";
    case TraceEventType::kSpanVmfunc:
      return "span_vmfunc";
    case TraceEventType::kSpanReturn:
      return "span_return";
    case TraceEventType::kSloBreach:
      return "slo_breach";
    case TraceEventType::kSlotFault:
      return "slot_fault";
  }
  return "unknown";
}

Trace::~Trace() { ReleaseCrashHook(); }

void Trace::SetEnabled(bool enabled) {
  enabled_ = enabled;
  if (!enabled) {
    ReleaseCrashHook();
    return;
  }
  if (ring_.empty()) {
    ring_.resize(kTraceRingCapacity);
  }
  // Claim the slot only while it is free: after the fatal path or a test
  // clears it, the next enable claims it again.
  if (sb::GetCheckFailureHook() == nullptr) {
    g_crash_trace = this;
    holds_crash_hook_ = true;
    sb::SetCheckFailureHook(&DumpCrashTrace);
  }
}

void Trace::ReleaseCrashHook() {
  if (!holds_crash_hook_) {
    return;
  }
  holds_crash_hook_ = false;
  if (g_crash_trace != this) {
    return;  // The slot was cleared and another trace claimed it since.
  }
  g_crash_trace = nullptr;
  if (sb::GetCheckFailureHook() == &DumpCrashTrace) {
    sb::SetCheckFailureHook(nullptr);
  }
}

void Trace::Append(TraceEventType type, uint64_t cycles, uint32_t core, uint64_t arg0,
                   uint64_t arg1) {
  ring_[head_ % kTraceRingCapacity] = TraceRecord{cycles, arg0, arg1, head_, core, type};
  ++head_;
}

std::vector<TraceRecord> Trace::Snapshot() const {
  std::vector<TraceRecord> out;
  const uint64_t count = std::min<uint64_t>(head_, ring_.size());
  out.reserve(count);
  for (uint64_t i = head_ - count; i < head_; ++i) {
    out.push_back(ring_[i % kTraceRingCapacity]);
  }
  return out;
}

void Trace::Clear() {
  head_ = 0;
  next_call_id_ = 1;
  pending_call_id_ = 0;
}

void Trace::Dump(std::ostream& out, size_t max_records) const {
  const std::vector<TraceRecord> records = Snapshot();
  const size_t start = records.size() > max_records ? records.size() - max_records : 0;
  out << "--- trace flight recorder (" << (records.size() - start) << " of " << records.size()
      << " events) ---\n";
  for (size_t i = start; i < records.size(); ++i) {
    const TraceRecord& rec = records[i];
    out << "  seq=" << rec.seq << " cycles=" << rec.cycles << " core=" << rec.core << " "
        << TraceEventName(rec.type) << " arg0=" << rec.arg0 << " arg1=" << rec.arg1 << "\n";
  }
  out << "--- end trace ---" << std::endl;
}

uint64_t Trace::TakeCallId() {
  if (pending_call_id_ == 0) {
    return AllocCallId();
  }
  const uint64_t id = pending_call_id_;
  pending_call_id_ = 0;
  return id;
}

std::string TraceChromeJson(const std::vector<TraceRecord>& records) {
  std::ostringstream out;
  out << "[";
  bool first = true;
  for (const TraceRecord& rec : records) {
    if (!first) {
      out << ",\n";
    }
    first = false;
    const char* phase = IsBeginEvent(rec.type) ? "B" : (IsEndEvent(rec.type) ? "E" : "i");
    out << "{\"name\":\"" << SliceName(rec.type) << "\",\"ph\":\"" << phase
        << "\",\"ts\":" << rec.cycles << ",\"pid\":0,\"tid\":" << rec.core
        << ",\"args\":{\"event\":\"" << TraceEventName(rec.type) << "\",\"seq\":" << rec.seq
        << ",\"arg0\":" << rec.arg0 << ",\"arg1\":" << rec.arg1 << "}";
    if (phase[0] == 'i') {
      out << ",\"s\":\"t\"";  // Thread-scoped instant.
    }
    out << "}";
  }
  out << "]";
  return out.str();
}

}  // namespace sb::telemetry
