#include "src/base/telemetry/trace.h"

#include <algorithm>
#include <array>
#include <iostream>
#include <mutex>
#include <sstream>

#include "src/base/logging.h"
#include "src/base/telemetry/span.h"

namespace sb::telemetry {
namespace internal {

std::atomic<bool> g_trace_enabled{false};

}  // namespace internal

namespace {

std::atomic<uint64_t> g_trace_seq{0};

struct ThreadRing {
  std::array<TraceRecord, kTraceRingCapacity> records;
  // Total records ever written; head % capacity is the next slot. Atomic so
  // snapshotting from another thread is race-free (the records themselves are
  // quiescent by the time tests snapshot, and a torn in-flight record at
  // worst yields one garbled event, never UB on the counter).
  std::atomic<uint64_t> head{0};
};

std::mutex g_rings_mu;
std::vector<ThreadRing*>& Rings() {
  static std::vector<ThreadRing*>* rings = new std::vector<ThreadRing*>();
  return *rings;
}

ThreadRing& LocalRing() {
  // Leaked on purpose: rings must outlive the thread so TraceSnapshot() can
  // read events from threads that have already exited (e.g. pool workers).
  thread_local ThreadRing* ring = [] {
    auto* r = new ThreadRing();
    std::lock_guard<std::mutex> lock(g_rings_mu);
    Rings().push_back(r);
    return r;
  }();
  return *ring;
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

namespace internal {

void TraceEmitSlow(TraceEventType type, uint64_t cycles, uint32_t core, uint64_t arg0,
                   uint64_t arg1) {
  ThreadRing& ring = LocalRing();
  const uint64_t head = ring.head.load(std::memory_order_relaxed);
  TraceRecord& rec = ring.records[head % kTraceRingCapacity];
  rec.cycles = cycles;
  rec.arg0 = arg0;
  rec.arg1 = arg1;
  rec.seq = g_trace_seq.fetch_add(1, std::memory_order_relaxed);
  rec.core = core;
  rec.type = type;
  ring.head.store(head + 1, std::memory_order_release);
}

}  // namespace internal

void SetTraceEnabled(bool enabled) {
  internal::g_trace_enabled.store(enabled, std::memory_order_relaxed);
}

bool TraceEnabled() { return internal::g_trace_enabled.load(std::memory_order_relaxed); }

std::vector<TraceRecord> TraceSnapshot() {
  std::vector<TraceRecord> out;
  {
    std::lock_guard<std::mutex> lock(g_rings_mu);
    for (const ThreadRing* ring : Rings()) {
      const uint64_t head = ring->head.load(std::memory_order_acquire);
      const uint64_t count = std::min<uint64_t>(head, kTraceRingCapacity);
      for (uint64_t i = head - count; i < head; ++i) {
        out.push_back(ring->records[i % kTraceRingCapacity]);
      }
    }
  }
  std::sort(out.begin(), out.end(),
            [](const TraceRecord& a, const TraceRecord& b) { return a.seq < b.seq; });
  return out;
}

void TraceClear() {
  std::lock_guard<std::mutex> lock(g_rings_mu);
  for (ThreadRing* ring : Rings()) {
    ring->head.store(0, std::memory_order_release);
  }
  g_trace_seq.store(0, std::memory_order_relaxed);
  // Call ids restart with the sequence: a replayed scenario must allocate
  // the same ids, or trace fingerprints diverge across identical runs.
  internal::ResetCallIds();
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

void TraceDump(std::ostream& out, size_t max_records) {
  const std::vector<TraceRecord> records = TraceSnapshot();
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

namespace {

void TraceCrashHook() { TraceDump(std::cerr); }

}  // namespace

void InstallTraceCrashDump() {
  // Only claim the hook slot while it is free (or already ours): a custom
  // hook a test installed must not be clobbered, and after the fatal path
  // self-clears the slot — or a test resets it — the next call re-registers.
  const sb::CheckFailureHook current = sb::GetCheckFailureHook();
  if (current == nullptr) {
    sb::SetCheckFailureHook(&TraceCrashHook);
  }
}

}  // namespace sb::telemetry
