// Gate plane: the crossing entry/return legs, trampoline cost model,
// calling-key check, abort/unwind for a crashed handler, return-gate reply
// validation and per-call phase attribution.
//
// The domain-switch legs themselves are pluggable (backend.h): the gate owns
// one CrossingBackend instance per kind and dispatches each call through the
// backend its routed binding was registered with.
//
// One typed CallContext threads the per-call state through the pipeline —
// every field lives on the caller's stack, so the gate itself holds no
// per-call mutable state.

#ifndef SRC_SKYBRIDGE_GATE_H_
#define SRC_SKYBRIDGE_GATE_H_

#include <cstdint>
#include <functional>
#include <memory>

#include "src/base/status.h"
#include "src/base/telemetry/metrics.h"
#include "src/mk/kernel.h"
#include "src/skybridge/backend.h"
#include "src/skybridge/buffers.h"
#include "src/skybridge/config.h"
#include "src/skybridge/routing.h"

namespace skybridge {

// Per-call state, built up stage by stage by the DirectServerCall pipeline
// (resolve route -> prepare request -> arm gate -> server side -> return
// gate). Replaces the tangle of locals the call body used to carry.
struct CallContext {
  // ---- Call identity (fixed at entry) ----
  mk::Thread* caller = nullptr;
  ServerId server_id = 0;
  ServerEntry* server = nullptr;
  mk::Process* proc = nullptr;    // caller->process()
  hw::Core* core = nullptr;       // The caller's core for the whole call.
  // Span-tracing id (span.h): the sync call's own id, or for a FlushBatch
  // the crossing id its drained entries correlate to. Always allocated at
  // pipeline entry; only surfaces in traces while tracing is enabled.
  uint64_t call_id = 0;

  // ---- Routing ----
  Binding* perm = nullptr;    // Authorizing binding (caller's registration).
  Binding* route = nullptr;   // Routed binding (chain binding when nested).
  mk::Process* origin = nullptr;  // Process whose CR3 is live at VMFUNC time.
  bool nested = false;
  // The crossing backend this call's server was registered with; resolved
  // with the route and never null past ResolveRoute.
  const CrossingBackend* backend = nullptr;

  // ---- Request staging ----
  SliceRef slice;             // Caller's per-connection buffer slice.
  const mk::Message* request = nullptr;
  mk::Message inplace_msg;    // Storage when the request is a borrowed view.
  bool in_place = false;
  bool long_msg = false;

  // ---- Gate frame ----
  size_t return_index = 0;    // EPTP slot the return VMFUNC targets.
  uint32_t route_slot = 0;    // Per-core slot the entry VMFUNC targets.
  // Pins the entry + routed slots for the life of the call (slot faults on
  // other bindings may evict anything else, never these). Owned by the call
  // body; armed after the retry loop settles the slots.
  SlotPinGuard* pins = nullptr;
  uint64_t client_key = 0;    // Per-call key the server echoes on return.
  uint64_t handler_start = 0;
  bool timed_out = false;

  // ---- Phase attribution ----
  // The per-phase histograms record the caller core's ledger delta since
  // entry minus `outside`: the cycles of every call out of the gate, so a
  // nested call's cycles count only in its own phases.
  hw::CycleLedger ledger_before;
  hw::CycleLedger outside;
};

// Runs a call out of the gate (a server handler, the drain's refill hook) in
// app scope and adds its ledger delta to ctx.outside.
class OutsideGate {
 public:
  explicit OutsideGate(CallContext& ctx)
      : ctx_(ctx), before_(ctx.core->ledger()), app_(*ctx.core, hw::Bucket::kApp) {}
  ~OutsideGate() { ctx_.outside += ctx_.core->ledger() - before_; }

 private:
  CallContext& ctx_;
  hw::CycleLedger before_;
  hw::CycleScope app_;
};

// Adaptive drain bound: one crossing drains the submission ring for at most
// this many rounds, re-polling it between rounds for entries that arrived
// while the server drained (the client keeps producing on its own core in
// real hardware), so they share the crossing too.
inline constexpr uint32_t kMaxDrainRounds = 4;

class Gate {
 public:
  Gate(mk::Kernel& kernel, const SkyBridgeConfig& config);

  // The shared backend instance for `kind` (one per kind, owned here).
  const CrossingBackend& backend(CrossingBackendKind kind) const {
    return *backends_[static_cast<size_t>(kind)];
  }

  // The trampoline leg costs: 64 cycles of save/restore + stack install per
  // direction (Section 6.3) plus the i-side traffic of the backend's
  // trampoline page at `trampoline_va`.
  void ChargeTrampolineLeg(hw::Core& core, hw::Gva trampoline_va) const;

  // Entry leg: cross into the routed binding's server domain via the call's
  // backend (VMFUNC / WRPKRU / kernel fastpath).
  sb::Status EnterServer(CallContext& ctx) const;

  // Return leg: cross back to the entry domain + the restore trampoline leg
  // (for backends that have one).
  sb::Status ReturnToEntry(CallContext& ctx) const;

  // Server-side calling-key check against the key table (Section 4.4).
  // True when keys are disabled or the presented key matches.
  bool CheckCallingKey(CallContext& ctx) const;

  // Client-side echo verification of the per-call key (illegal-return
  // defence); charges the compare.
  void VerifyReturnKey(CallContext& ctx) const;

  // Unwind for a handler that died mid-call: Rootkernel-mediated view
  // restore (kAbortToView), popped-frame trampoline leg, kernel unwind.
  // Returns the Aborted status the call surfaces (Internal if the
  // Rootkernel refuses the restore).
  sb::Status AbortServerCrash(CallContext& ctx) const;

  // Return-gate structural validation of a borrowed reply descriptor.
  struct ReplyVerdict {
    bool in_place = false;  // Reply bytes already live inside the slice.
    bool corrupt = false;   // Descriptor escapes / straddles the slice.
  };
  ReplyVerdict ClassifyReply(const CallContext& ctx, const mk::Message& reply) const;

  // ---- Batch-dispatch leg (DESIGN.md section 13) ----
  // Runs server-side between the entry and return VMFUNCs of a FlushBatch
  // crossing: drains the ring from `head` — the drain's own head, never
  // re-read from the client-writable header — invoking the handler per
  // entry and posting each completion (reply bytes in the entry's payload
  // span, then the nonzero status word) without a per-call return crossing.
  // After each round it invokes `refill` — submissions that arrived while
  // the server drained (the client's core keeps producing in real hardware)
  // — and keeps draining while new entries appear, bounded by
  // kMaxDrainRounds (adaptive drain) and kHandlerTimeoutCycles.
  // Advances `head` past every entry it completes. A tail outside
  // [head, head + entries] stops the drain (bad_tail); a request longer
  // than its entry's span fails only that entry with OutOfRange.
  struct DrainOutcome {
    uint32_t completed = 0;  // Completions posted this crossing.
    uint32_t rounds = 0;     // Drain rounds that processed >= 1 entry.
    bool crashed = false;    // Handler died mid-drain; crossing must abort.
    bool timed_out = false;  // Stopped at the timeout; the rest stay pending.
    bool bad_tail = false;   // Client-written tail out of bounds; refused.
  };
  DrainOutcome DrainBatch(CallContext& ctx, const BatchRingView& ring, uint64_t& head,
                          const std::function<void()>& refill) const;

  // Folds this call's phase deltas into the per-phase histograms at exit.
  void RecordPhases(const CallContext& ctx) const;

  // Slot-fault slow-path latency (DESIGN.md section 15): cycles spent
  // making a non-resident binding resident before the entry VMFUNC.
  void RecordSlotFault(uint64_t cycles) const;

  // Per-call client key (the server must echo it on return). A pure
  // splitmix64 mix of the caller identity and the entry cycle — call-local,
  // so concurrent calls on different cores draw keys without sharing an RNG.
  static uint64_t PerCallKey(const mk::Thread& caller, uint64_t cycles);

 private:
  // One drain entry: bounds the descriptor copy, runs the handler and
  // applies the per-entry return gate. Returns the completion to post; sets
  // out.crashed when the handler dies.
  struct Completion {
    uint64_t reply_tag = 0;
    uint32_t reply_len = 0;  // For a reply too large for its span, the length it needed.
    sb::ErrorCode code = sb::ErrorCode::kOk;
  };
  Completion DrainEntry(CallContext& ctx, const BatchRingView& ring, uint64_t token,
                        DrainOutcome& out) const;

  mk::Kernel* kernel_;
  const SkyBridgeConfig* config_;
  std::unique_ptr<CrossingBackend> backends_[kNumCrossingBackends];
  sb::telemetry::Counter* aborted_calls_;
  sb::telemetry::Counter* gate_rejections_;
  sb::telemetry::LatencyHistogram* phase_slot_fault_;
  sb::telemetry::LatencyHistogram* phase_drain_;
  sb::telemetry::LatencyHistogram* phase_vmfunc_;
  sb::telemetry::LatencyHistogram* phase_trampoline_;
  sb::telemetry::LatencyHistogram* phase_copy_;
  sb::telemetry::LatencyHistogram* phase_syscall_;
  sb::telemetry::LatencyHistogram* phase_total_;
};

}  // namespace skybridge

#endif  // SRC_SKYBRIDGE_GATE_H_
