#include "src/skybridge/gate.h"

#include <algorithm>
#include <cstdint>

#include "src/base/faultpoint.h"
#include "src/base/logging.h"
#include "src/base/telemetry/trace.h"
#include "src/vmm/rootkernel.h"

namespace skybridge {
namespace {

// Section 6.3: the non-VMFUNC trampoline work costs 64 cycles per direction.
// Warm, the rest of that work is charged as it happens, 40 cycles per
// roundtrip (Figure 7's gate column): 16 of trampoline i-fetch (8 per leg),
// 12 for the calling-key check (4 table read + 8 compare), 8 for the
// client's key-echo compare and 4 for the server stack install. The flat
// charge is the remainder, 2 x 44 + 40 = 2 x 64, so the measured roundtrip
// lands on 2 x (134 + 64) = 396.
constexpr uint64_t kTrampolineFlatCycles = 44;

// Batch drain (DESIGN.md section 13): per-entry ring work on the server
// side — descriptor read, completion-status publish, sq_head advance. Kept
// small so a depth-1 flush stays within a few percent of DirectServerCall.
constexpr uint64_t kDrainEntryCycles = 4;

using sb::telemetry::TraceEventType;

}  // namespace

Gate::Gate(mk::Kernel& kernel, const SkyBridgeConfig& config)
    : kernel_(&kernel), config_(&config) {
  for (int k = 0; k < kNumCrossingBackends; ++k) {
    backends_[k] = MakeCrossingBackend(static_cast<CrossingBackendKind>(k), kernel, config);
  }
  sb::telemetry::Registry& reg = kernel.machine().telemetry();
  aborted_calls_ = &reg.GetCounter("skybridge.ipc.aborted_calls");
  gate_rejections_ = &reg.GetCounter("skybridge.ipc.gate_rejections");
  phase_slot_fault_ = &reg.GetHistogram("skybridge.phase.slot_fault");
  phase_drain_ = &reg.GetHistogram("skybridge.phase.drain");
  phase_vmfunc_ = &reg.GetHistogram("skybridge.phase.vmfunc");
  phase_trampoline_ = &reg.GetHistogram("skybridge.phase.trampoline");
  phase_copy_ = &reg.GetHistogram("skybridge.phase.copy");
  phase_syscall_ = &reg.GetHistogram("skybridge.phase.syscall");
  phase_total_ = &reg.GetHistogram("skybridge.phase.total");
}

void Gate::ChargeTrampolineLeg(hw::Core& core, hw::Gva trampoline_va) const {
  core.AdvanceCycles(kTrampolineFlatCycles, hw::Bucket::kOthers);
  (void)core.FetchCode(trampoline_va, 128);
}

sb::Status Gate::EnterServer(CallContext& ctx) const {
  const uint64_t before = ctx.core->cycles();
  SB_RETURN_IF_ERROR(ctx.backend->Enter(ctx));
  ctx.backend->RecordEnter(ctx.core->cycles() - before);
  return sb::OkStatus();
}

sb::Status Gate::ReturnToEntry(CallContext& ctx) const {
  const uint64_t before = ctx.core->cycles();
  SB_RETURN_IF_ERROR(ctx.backend->Return(ctx));
  if (ctx.backend->caps().uses_trampoline) {
    ChargeTrampolineLeg(*ctx.core, ctx.backend->trampoline_va());
  }
  ctx.backend->RecordReturn(ctx.core->cycles() - before);
  return sb::OkStatus();
}

bool Gate::CheckCallingKey(CallContext& ctx) const {
  if (!config_->calling_keys) {
    return true;
  }
  hw::Core& core = *ctx.core;
  const hw::Gva slot_va = mk::kCallingKeyTableVa + ctx.perm->key_slot * kKeySlotBytes;
  auto stored = core.ReadVirtU64(slot_va);
  if (!stored.ok()) {
    return false;
  }
  core.AdvanceCycles(8);  // Compare + branch.
  return *stored == ctx.perm->server_key;
}

void Gate::VerifyReturnKey(CallContext& ctx) const {
  if (!config_->calling_keys) {
    return;
  }
  // The client verifies the echoed per-call key (illegal-return defence).
  ctx.core->AdvanceCycles(8);
  (void)ctx.client_key;
}

sb::Status Gate::AbortServerCrash(CallContext& ctx) const {
  hw::Core& core = *ctx.core;
  // The server thread dies mid-handler, stranding the client in the
  // server's domain. The backend restores the entry domain (Rootkernel
  // kAbortToView for view-switch backends, a kernel reschedule for the
  // syscall fastpath), then the frame pop and the kernel unwind are common.
  aborted_calls_->Add();
  ctx.backend->RecordAbort();
  SB_TRACE_EVENT(core, TraceEventType::kCallAborted, ctx.proc->pid(), ctx.server->process->pid());
  SB_LOG(kDebug) << "handler crash " << sb::kv("client", ctx.proc->pid())
                 << " " << sb::kv("server", ctx.server->process->pid());
  SB_RETURN_IF_ERROR(ctx.backend->Abort(ctx));
  if (ctx.backend->caps().uses_trampoline) {
    // The popped frame's restore leg.
    ChargeTrampolineLeg(core, ctx.backend->trampoline_va());
  }
  kernel_->FinishAbortedCall(core);
  RecordPhases(ctx);
  return sb::Aborted("server thread crashed mid-handler; call aborted");
}

Gate::ReplyVerdict Gate::ClassifyReply(const CallContext& ctx, const mk::Message& reply) const {
  ReplyVerdict verdict;
  // A borrowed reply whose bytes already live inside this connection's slice
  // was built in place: the reply copy is skipped entirely.
  if (!ctx.slice.host.empty() && reply.borrowed() && !reply.view.empty()) {
    const uint8_t* base = ctx.slice.host.data();
    const uint8_t* p = reply.view.data();
    verdict.in_place = p >= base && p + reply.view.size() <= base + ctx.slice.host.size();
  }
  // Return-gate integrity: a borrowed reply that straddles the slice
  // boundary is a corrupt descriptor — the server scribbled the pointer or
  // the length. Detected structurally here, or injected by
  // gate.reply_corrupt; either way the reply is rejected after the EPT view
  // is restored, never delivered.
  verdict.corrupt = SB_FAULT_POINT(kFaultReplyCorrupt);
  if (!verdict.corrupt && !ctx.slice.host.empty() && reply.borrowed() && !reply.view.empty() &&
      !verdict.in_place) {
    const uint8_t* base = ctx.slice.host.data();
    const uint8_t* p = reply.view.data();
    verdict.corrupt = p < base + ctx.slice.host.size() && p + reply.view.size() > base;
  }
  return verdict;
}

Gate::DrainOutcome Gate::DrainBatch(CallContext& ctx, const BatchRingView& ring,
                                    uint64_t& head) const {
  hw::Core& core = *ctx.core;
  DrainOutcome out;
  const uint64_t drain_start = core.cycles();
  // One server stack install per crossing — not per entry; that is the
  // point of the batch.
  const hw::Gva stack_va = mk::kServerStacksVa + ctx.server_id * 256 * kServerStackBytes +
                           ctx.perm->key_slot * kServerStackBytes;
  (void)core.TouchData(stack_va + kServerStackBytes - 64, 64, true);

  // The client writes the tail, so it is read once and accepted only within
  // one ring of the drain's own head.
  const uint64_t tail = ring.LoadTail();
  if (tail - head > ring.entries) {
    gate_rejections_->Add();
    out.bad_tail = true;
  }
  while (!out.bad_tail && head != tail && !out.crashed) {
    // DoS defence: stop between entries once the drain overruns the
    // timeout; the rest stay pending for the next flush.
    if (out.completed > 0 && core.cycles() - drain_start > kHandlerTimeoutCycles) {
      out.timed_out = true;
      break;
    }
    const Completion done = DrainEntry(ctx, ring, head, out);
    ring.PostCompletion(head, done.reply_tag, done.reply_len, done.code);
    ring.PublishHead(++head);
    ++out.completed;
  }
  phase_drain_->Record(core.cycles() - drain_start);
  return out;
}

Gate::Completion Gate::DrainEntry(CallContext& ctx, const BatchRingView& ring, uint64_t token,
                                  DrainOutcome& out) const {
  hw::Core& core = *ctx.core;
  ServerEntry& server = *ctx.server;
  core.AdvanceCycles(kDrainEntryCycles);
  (void)core.TouchData(ring.DescVa(token), BatchRingView::kDescBytes, true);
  const BatchRingView::Desc desc = ring.LoadDesc(token);
  const std::span<uint8_t> payload = ring.Payload(token);
  SB_TRACE_EVENT(core, TraceEventType::kBatchDrain, desc.call_id, token);
  if (desc.req_len > payload.size()) {
    // The client wrote a request longer than its entry's span: fail the
    // entry before any handler sees bytes past it.
    gate_rejections_->Add();
    return {.code = sb::ErrorCode::kOutOfRange};
  }
  if (SB_FAULT_POINT(kFaultHandlerCrash)) {
    // Server thread dies on this entry: post its Aborted completion, leave
    // the rest of the ring untouched (a later flush drains them) and tell
    // the facade to abort the crossing.
    out.crashed = true;
    return {.code = sb::ErrorCode::kAborted};
  }

  const mk::Message request =
      mk::Message::Borrowed(desc.tag, std::span<const uint8_t>(payload.data(), desc.req_len));
  mk::CallEnv env{*kernel_, core, *server.process, request};
  env.reply_buffer = payload;
  env.reply_buffer_va = ring.PayloadVa(token);
  SB_TRACE_EVENT(core, TraceEventType::kHandlerEnter, server.process->pid(), 0);
  mk::Message reply = [&] {
    OutsideGate outside(ctx);
    return server.handler(env);
  }();
  SB_TRACE_EVENT(core, TraceEventType::kHandlerExit, server.process->pid(), 0);

  // Per-entry return gate: the reply must live within (or fit into) the
  // ENTRY's payload span. A borrowed descriptor that escapes it is corrupt,
  // exactly like the single-call return gate — the entry is rejected, the
  // batch continues.
  bool in_place = false;
  bool corrupt = SB_FAULT_POINT(kFaultReplyCorrupt);
  if (!corrupt && reply.borrowed() && !reply.view.empty()) {
    const uint8_t* base = payload.data();
    const uint8_t* p = reply.view.data();
    in_place = p >= base && p + reply.view.size() <= base + payload.size();
    corrupt = !in_place && !ctx.slice.host.empty() &&
              p < ctx.slice.host.data() + ctx.slice.host.size() &&
              p + reply.view.size() > ctx.slice.host.data();
  }
  if (corrupt) {
    gate_rejections_->Add();
    return {.reply_tag = reply.tag, .code = sb::ErrorCode::kOutOfRange};
  }
  if (reply.size() > payload.size()) {
    // Well formed but too large for the span: post the length it needed,
    // more than any span holds, so the client can tell it from a corrupt one.
    gate_rejections_->Add();
    return {.reply_tag = reply.tag,
            .reply_len = static_cast<uint32_t>(std::min<size_t>(reply.size(), UINT32_MAX)),
            .code = sb::ErrorCode::kOutOfRange};
  }
  const auto reply_len = static_cast<uint32_t>(reply.size());
  if (!in_place && reply_len > 0) {
    // Completion posting: owned reply bytes land in the entry's span.
    hw::CycleScope copy(core, hw::Bucket::kCopy);
    (void)core.WriteVirt(ring.PayloadVa(token), reply.payload());
  }
  return {.reply_tag = reply.tag, .reply_len = reply_len};
}

void Gate::RecordPhases(const CallContext& ctx) const {
  const hw::CycleLedger all = ctx.core->ledger() - ctx.ledger_before;
  const hw::CycleLedger own = all - ctx.outside;
  phase_vmfunc_->Record(own[hw::Bucket::kVmfunc]);
  phase_trampoline_->Record(own[hw::Bucket::kOthers]);
  phase_copy_->Record(own[hw::Bucket::kCopy]);
  phase_syscall_->Record(own[hw::Bucket::kSyscall]);
  phase_total_->Record(all.total());
}

void Gate::RecordSlotFault(uint64_t cycles) const { phase_slot_fault_->Record(cycles); }

uint64_t Gate::PerCallKey(const mk::Thread& caller, uint64_t cycles) {
  uint64_t x = (static_cast<uint64_t>(caller.tid()) << 32) ^ cycles ^
               (reinterpret_cast<uintptr_t>(&caller) * 0x9e3779b97f4a7c15ULL);
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ULL;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebULL;
  x ^= x >> 31;
  return x;
}

}  // namespace skybridge
