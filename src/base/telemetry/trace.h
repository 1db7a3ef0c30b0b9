// Fixed-capacity per-thread trace ring for typed IPC events.
//
// Each thread that emits gets its own ring (4096 records, power of two), so
// the enabled emit path is: one relaxed atomic load (the global enable flag),
// one global sequence fetch_add for total ordering, and a store into the
// thread's ring slot. When tracing is disabled — the default — TraceEmit is a
// single relaxed load and a predictable branch; it never allocates and never
// advances simulated cycles.
//
// The ring state is process-global (unlike the metrics registry): timestamps
// are whatever cycle value the caller passes, so rings from different
// simulated machines only make sense if the test traces one machine at a
// time. Tests call TraceClear() + SetTraceEnabled(true) around the section
// of interest.
//
// Export formats:
//  - TraceChromeJson(): Chrome trace_event JSON array, loadable in
//    chrome://tracing or https://ui.perfetto.dev. Simulated cycles map to
//    microseconds 1:1 (ts field), so a 396-cycle roundtrip shows as 396 "us".
//  - TraceDump(): plain-text flight recorder (newest last), also wired into
//    the SB_CHECK fatal path via InstallTraceCrashDump().

#ifndef SRC_BASE_TELEMETRY_TRACE_H_
#define SRC_BASE_TELEMETRY_TRACE_H_

#include <atomic>
#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

namespace sb::telemetry {

enum class TraceEventType : uint8_t {
  kCallStart,      // DirectServerCall entered. arg0=client pid, arg1=server pid.
  kCallEnd,        // DirectServerCall returned. arg0=client pid, arg1=server pid.
  kLookupHit,      // Binding route found. arg0=client pid, arg1=server pid.
  kLookupMiss,     // No binding for the pair. arg0=client pid, arg1=server pid.
  kVmfuncSwitch,   // VMFUNC EPTP switch executed. arg0=eptp slot.
  kHandlerEnter,   // Server handler invoked. arg0=server pid.
  kHandlerExit,    // Server handler returned. arg0=server pid, arg1=status.
  kTimeout,        // Handler exceeded its budget. arg0=server pid.
  kRejected,       // Call rejected (bad key / bad target). arg0=client pid, arg1=server pid.
  kSyscallEnter,   // Microkernel syscall entry. arg0=syscall nr.
  kSyscallExit,    // Microkernel syscall exit. arg0=syscall nr.
  kContextSwitch,  // Scheduler switched threads. arg0=from tid, arg1=to tid.
  kIpi,            // Inter-processor interrupt sent. arg0=target core.
  kVmcall,         // Hypercall into the Rootkernel. arg0=hypercall nr.
  kEptInstall,     // Rootkernel created/installed a binding EPT. arg0=server pid.
  kEptEvict,       // EPTP list slot evicted. arg0=server pid, arg1=slot.
  kCallAborted,    // Server crashed mid-handler; rootkernel-mediated abort.
                   //   arg0=client pid, arg1=server pid.
  kBindingRevoked,  // Binding revoked. arg0=client pid, arg1=server id.
  kStaleSlotRetry,  // Cached EPTP slot went stale pre-VMFUNC; slowpath re-arm.
                    //   arg0=server pid, arg1=attempt.
  // ---- Batch lifecycle + per-call spans (DESIGN.md section 14) ----
  // Every span event carries the 64-bit call id in arg0 (span.h allocates
  // ids; BuildSpans groups records by them).
  kBatchEnqueue,     // SubmitCall queued an entry. arg0=call id, arg1=token.
  kBatchFlushStart,  // FlushBatch crossing entered. arg0=crossing call id,
                     //   arg1=pending entries.
  kBatchFlushEnd,    // FlushBatch crossing returned. arg0=crossing call id,
                     //   arg1=completions posted.
  kBatchDrain,       // Server drained one ring entry. arg0=call id, arg1=token.
  kBatchPoll,        // PollCompletion reaped an entry. arg0=call id, arg1=token.
  kSpanArrival,      // Open-loop intended arrival (ts = intended cycle, which
                     //   may precede the issue cycle). arg0=call id, arg1=key.
  kSpanVmfunc,       // Entry VMFUNC attributed to a call. arg0=call id, arg1=slot.
  kSpanReturn,       // Return VMFUNC attributed to a call. arg0=call id, arg1=slot.
  kSloBreach,        // SLO window violated. arg0=spec index, arg1=observed cycles.
  kSlotFault,        // Routed binding not resident in the core's EPTP slot
                     //   working set; the slot-fault slow path re-installed
                     //   it (DESIGN.md section 15). arg0=ept id, arg1=slot.
};

const char* TraceEventName(TraceEventType type);

struct TraceRecord {
  uint64_t cycles = 0;  // Simulated-cycle timestamp (caller-provided).
  uint64_t arg0 = 0;
  uint64_t arg1 = 0;
  uint64_t seq = 0;  // Global emission order (valid while tracing enabled).
  uint32_t core = 0;
  TraceEventType type = TraceEventType::kCallStart;
};

inline constexpr size_t kTraceRingCapacity = 4096;  // Per thread; power of two.

namespace internal {
extern std::atomic<bool> g_trace_enabled;
void TraceEmitSlow(TraceEventType type, uint64_t cycles, uint32_t core, uint64_t arg0,
                   uint64_t arg1);
}  // namespace internal

// Compiled in, branch-disabled by default: one relaxed load when off.
inline void TraceEmit(TraceEventType type, uint64_t cycles, uint32_t core = 0, uint64_t arg0 = 0,
                      uint64_t arg1 = 0) {
  if (internal::g_trace_enabled.load(std::memory_order_relaxed)) [[unlikely]] {
    internal::TraceEmitSlow(type, cycles, core, arg0, arg1);
  }
}

// Like TraceEmit, but the argument expressions are not evaluated while
// tracing is disabled — use on hot paths where computing the timestamp or
// args is not free.
#define SB_TRACE_EVENT(type, ...)                                                              \
  do {                                                                                         \
    if (::sb::telemetry::internal::g_trace_enabled.load(std::memory_order_relaxed))            \
        [[unlikely]] {                                                                         \
      ::sb::telemetry::TraceEmit((type), __VA_ARGS__);                                         \
    }                                                                                          \
  } while (0)

void SetTraceEnabled(bool enabled);
bool TraceEnabled();

// All surviving records across every thread's ring, in emission (seq) order.
// Records overwritten by ring wrap-around are gone; each ring keeps the most
// recent kTraceRingCapacity events its thread emitted.
std::vector<TraceRecord> TraceSnapshot();

// Empties every ring and resets the sequence counter. Does not change the
// enabled flag.
void TraceClear();

// Chrome trace_event JSON (array-form) for the given records. Paired events
// (call start/end, handler enter/exit, syscall enter/exit) become B/E
// duration slices; everything else becomes an "i" instant.
std::string TraceChromeJson(const std::vector<TraceRecord>& records);

// Plain-text flight recorder: the last `max_records` events, oldest first.
void TraceDump(std::ostream& out, size_t max_records = 64);

// Registers an SB_CHECK-failure hook that dumps the flight recorder to
// stderr before the process aborts. Idempotent, and re-installable: if the
// hook was cleared (the fatal path self-resets it; tests may too), calling
// this again re-registers it. A different hook someone else installed is
// left alone.
void InstallTraceCrashDump();

}  // namespace sb::telemetry

#endif  // SRC_BASE_TELEMETRY_TRACE_H_
