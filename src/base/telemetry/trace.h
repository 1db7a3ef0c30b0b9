// The typed IPC event ring of one simulated machine.
//
// Each hw::Machine owns one Trace, and every core of the machine emits into
// it (SB_TRACE_EVENT stamps an event with the core's clock and id). Like the
// rest of the machine, a Trace belongs to one host thread, so its state is
// plain fields: the enabled flag, a kTraceRingCapacity-record ring that the
// first SetEnabled(true) allocates (an untraced machine holds none), the
// count of records written since the last Clear() (each record's seq), and
// the call-id counter with its one pending id. While tracing is
// disabled — the default — an SB_TRACE_EVENT site is two loads (the core's
// trace pointer, then the flag) and an untaken branch; it never allocates and
// never advances simulated cycles.
//
// Export formats:
//  - TraceChromeJson(): Chrome trace_event JSON array, loadable in
//    chrome://tracing or https://ui.perfetto.dev. Simulated cycles map to
//    microseconds 1:1 (ts field), so a 396-cycle roundtrip shows as 396 "us".
//  - Trace::Dump(): plain-text flight recorder (newest last). The trace that
//    enables first while the SB_CHECK hook slot is free also dumps itself
//    there on a fatal check.

#ifndef SRC_BASE_TELEMETRY_TRACE_H_
#define SRC_BASE_TELEMETRY_TRACE_H_

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
  // Every span event carries the 64-bit call id in arg0 (Trace allocates
  // ids; grouping records by them rebuilds each call's span).
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
  uint64_t seq = 0;  // Emission order within the trace since its last Clear().
  uint32_t core = 0;
  TraceEventType type = TraceEventType::kCallStart;
};

inline constexpr size_t kTraceRingCapacity = 4096;  // Records per machine.

class Trace {
 public:
  Trace() = default;
  ~Trace();
  Trace(const Trace&) = delete;
  Trace& operator=(const Trace&) = delete;

  bool enabled() const { return enabled_; }
  // The first enable allocates the ring. Enabling also claims the SB_CHECK
  // hook slot for this trace's dump if the slot is free; a hook someone else
  // installed is left alone. Disabling (or destroying) the trace that holds
  // the slot frees it.
  void SetEnabled(bool enabled);

  // Records one event while enabled; a no-op otherwise. Callers whose
  // timestamp is a core's clock use SB_TRACE_EVENT instead.
  void Emit(TraceEventType type, uint64_t cycles, uint32_t core, uint64_t arg0, uint64_t arg1) {
    if (enabled_) [[unlikely]] {
      Append(type, cycles, core, arg0, arg1);
    }
  }

  // The surviving records, oldest first: the newest kTraceRingCapacity
  // emitted since the last Clear().
  std::vector<TraceRecord> Snapshot() const;
  // Empties the ring and restarts the sequence and the call ids, so a
  // replayed scenario records the same seqs and ids. Keeps the enabled flag.
  void Clear();
  // Plain-text flight recorder: the last `max_records` events, oldest first.
  void Dump(std::ostream& out, size_t max_records = 64) const;
  // Records the ring can hold: 0 until tracing is first enabled.
  size_t ring_capacity() const { return ring_.size(); }

  // ---- Call ids ----
  // A call id is allocated at submission and rides the CallContext and the
  // batch-ring descriptor, so every span event of one call carries it. The
  // handoff is the one pending id: an open-loop generator allocates the id
  // at the intended arrival cycle, emits kSpanArrival and parks the id; the
  // machine's next SkyBridge submission adopts it. Call sites that never
  // pre-announce get a fresh id. Clear() restarts the ids with the
  // sequence, so a replayed scenario's fingerprint is deterministic.
  // Next id (the first is 1; 0 means "none").
  uint64_t AllocCallId() { return next_call_id_++; }
  // Parks `id`; the next TakeCallId() returns it.
  void SetPendingCallId(uint64_t id) { pending_call_id_ = id; }
  // The parked id if one is pending, else a fresh one. Clears the parked id.
  uint64_t TakeCallId();

 private:
  void Append(TraceEventType type, uint64_t cycles, uint32_t core, uint64_t arg0, uint64_t arg1);
  void ReleaseCrashHook();

  std::vector<TraceRecord> ring_;
  uint64_t head_ = 0;  // Records written since Clear(); head_ % capacity is the next slot.
  uint64_t next_call_id_ = 1;
  uint64_t pending_call_id_ = 0;
  bool enabled_ = false;
  bool holds_crash_hook_ = false;
};

// Emits `type` into `core`'s machine trace, stamped with the core's clock and
// id. `core` is evaluated once; `arg0` and `arg1` only while tracing is on.
#define SB_TRACE_EVENT(core, type, arg0, arg1)                                                \
  do {                                                                                        \
    auto& sb_trace_core = (core);                                                             \
    if (sb_trace_core.trace().enabled()) [[unlikely]] {                                       \
      sb_trace_core.trace().Emit((type), sb_trace_core.cycles(),                              \
                                 static_cast<uint32_t>(sb_trace_core.id()), (arg0), (arg1));  \
    }                                                                                         \
  } while (0)

// Chrome trace_event JSON (array-form) for the given records. Paired events
// (call start/end, handler enter/exit, syscall enter/exit) become B/E
// duration slices; everything else becomes an "i" instant.
std::string TraceChromeJson(const std::vector<TraceRecord>& records);

}  // namespace sb::telemetry

#endif  // SRC_BASE_TELEMETRY_TRACE_H_
