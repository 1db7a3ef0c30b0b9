// SkyBridge facade: wires the routing/gate/buffers modules together and
// drives the DirectServerCall pipeline. Registration (the kernel-mediated
// slow path) lives in registration.cc.

#include "src/skybridge/skybridge.h"

#include "src/base/faultpoint.h"
#include "src/base/logging.h"
#include "src/base/telemetry/trace.h"
#include "src/vmm/rootkernel.h"

namespace skybridge {
namespace {

// Base backoff before a stale-slot slowpath re-arm; doubles per attempt.
constexpr uint64_t kStaleBackoffCycles = 32;

// Seed of the registration-time calling-key stream.
constexpr uint64_t kRegistrationKeySeed = 0x5eed;

using sb::telemetry::TraceEventType;

}  // namespace

SkyBridge::SkyBridge(mk::Kernel& kernel, SkyBridgeConfig config)
    : kernel_(&kernel),
      config_(config),
      key_rng_(kRegistrationKeySeed),
      trampoline_(BuildTrampoline()),
      rewrite_cache_(config.rewrite_cache_entries),
      routes_(kernel, config_),
      buffers_(kernel, config_),
      gate_(kernel, config_) {
  SB_CHECK(kernel.rootkernel() != nullptr)
      << "SkyBridge requires a kernel booted with the Rootkernel";
  sb::telemetry::Registry& reg = kernel.machine().telemetry();
  metrics_.direct_calls = &reg.GetCounter("skybridge.ipc.direct_calls");
  metrics_.long_calls = &reg.GetCounter("skybridge.ipc.long_calls");
  metrics_.inplace_calls = &reg.GetCounter("skybridge.ipc.inplace_calls");
  metrics_.inplace_replies = &reg.GetCounter("skybridge.ipc.inplace_replies");
  metrics_.rejected_calls = &reg.GetCounter("skybridge.ipc.rejected_calls");
  metrics_.timeouts = &reg.GetCounter("skybridge.ipc.timeouts");
  metrics_.rewritten_vmfuncs = &reg.GetCounter("skybridge.rewrite.vmfuncs");
  metrics_.processes_rewritten = &reg.GetCounter("skybridge.rewrite.processes");
  metrics_.scan_pages = &reg.GetCounter("skybridge.rewrite.scan_pages");
  metrics_.gate_rejections = &reg.GetCounter("skybridge.ipc.gate_rejections");
  metrics_.stale_slot_retries = &reg.GetCounter("skybridge.ipc.stale_slot_retries");
  metrics_.revoked_rejections = &reg.GetCounter("skybridge.ipc.revoked_rejections");
  metrics_.slot_faults = &reg.GetCounter("skybridge.eptp.slot_faults");
  metrics_.migration_installs = &reg.GetCounter("skybridge.eptp.migration_installs");
  metrics_.batched_calls = &reg.GetCounter("skybridge.ipc.batched_calls");
  metrics_.batch_flushes = &reg.GetCounter("skybridge.ipc.batch_flushes");
  metrics_.drain_rounds = &reg.GetCounter("skybridge.ipc.drain_rounds");
  metrics_.ring_depth = &reg.GetGauge("skybridge.batch.ring_depth");
  metrics_.exec_faults = &reg.GetCounter("skybridge.registration.exec_faults");
  metrics_.lazy_rewrites = &reg.GetCounter("skybridge.registration.lazy_rewrites");
  metrics_.cache_hits = &reg.GetCounter("skybridge.registration.cache_hits");
  metrics_.cache_misses = &reg.GetCounter("skybridge.registration.cache_misses");
  metrics_.snapshot_restores = &reg.GetCounter("skybridge.registration.snapshot_restores");
  metrics_.pages_rescanned = &reg.GetCounter("skybridge.registration.pages_rescanned");
  phase_exec_fault_ = &reg.GetHistogram("skybridge.phase.exec_fault");
  // Exec-violation exits (lazy registration's rewrite-on-first-execute) land
  // here via Rootkernel -> mk fault delivery.
  kernel.SetExecFaultHandler(
      [this](hw::Core& core, hw::Gpa gpa) { return HandleExecFault(core, gpa); });
  // Dispatch installs go through the slot virtualizer (DESIGN.md section 15):
  // the kernel no longer rebuilds the EPTP list on context switch; the route
  // table makes the incoming process's view resident instead. Eager installs
  // on thread migration are counted against the lazy stale-slot fallback
  // (stale_slot_retries).
  kernel.SetEptpInstaller(
      [this](hw::Core& core, mk::Process* process, mk::Kernel::EptpInstallReason reason) {
        const bool migration = reason == mk::Kernel::EptpInstallReason::kMigration;
        SB_RETURN_IF_ERROR(routes_.InstallProcessView(core, process, migration));
        if (migration) {
          metrics_.migration_installs->Add();
        }
        return sb::OkStatus();
      });
  // Deferred revocation scrub: runs once per binding when its last in-flight
  // call drains. Zeroes the server-side calling-key slot and, for a binding
  // consolidated onto the server's shared EPT, restores the client's CR3
  // translation to identity so a stale VMFUNC can no longer reach the
  // server's page tables through it.
  routes_.SetRevokeScrub([this](Binding& binding) {
    if (binding.chain) {
      // Chain bindings share key slot 0 and carry no real key; zeroing it
      // would clobber a live client's key word.
      return;
    }
    ServerEntry& server = servers_[binding.server];
    WriteKeySlot(server, binding.key_slot, 0, 0);
    if (config_.consolidate_bindings && binding.ept_id == server.shared_ept_id) {
      hw::Core& core = kernel_->machine().core(0);
      core.Vmcall(static_cast<uint64_t>(vmm::Hypercall::kAddCr3Remap), binding.ept_id,
                  binding.client->cr3(), binding.client->cr3());
    }
  });
  // One shared trampoline code frame for all processes.
  auto frame = kernel.guest_frames().Alloc(kernel.machine().mem());
  SB_CHECK(frame.ok());
  trampoline_gpa_ = *frame;
  kernel.machine().mem().Write(trampoline_gpa_, trampoline_.code);
  // The MPK variant (WRPKRU gates) shares one frame the same way; processes
  // map it at mk::kMpkTrampolineVa only when they touch an MPK binding.
  mpk_trampoline_ = BuildTrampoline(CrossingBackendKind::kMpk);
  auto mpk_frame = kernel.guest_frames().Alloc(kernel.machine().mem());
  SB_CHECK(mpk_frame.ok());
  mpk_trampoline_gpa_ = *mpk_frame;
  kernel.machine().mem().Write(mpk_trampoline_gpa_, mpk_trampoline_.code);
}

SkyBridge::~SkyBridge() {
  // The hooks capture `this`; never let them outlive the bridge.
  kernel_->SetEptpInstaller(nullptr);
  kernel_->SetExecFaultHandler(nullptr);
}

sb::StatusOr<std::span<uint8_t>> SkyBridge::AcquireSendBuffer(mk::Thread* caller,
                                                              ServerId server_id) {
  if (server_id >= servers_.size()) {
    return sb::NotFound("no such server");
  }
  Binding* perm = routes_.Lookup(caller, server_id);
  if (perm == nullptr) {
    metrics_.rejected_calls->Add();
    return sb::PermissionDenied("client not registered to server");
  }
  if (perm->revoked) {
    metrics_.revoked_rejections->Add();
    metrics_.rejected_calls->Add();
    return sb::PermissionDenied("binding revoked");
  }
  SB_ASSIGN_OR_RETURN(const SliceRef slice, buffers_.AcquireSlice(*perm, caller));
  if (slice.host.empty()) {
    return sb::FailedPrecondition("binding has no shared buffer");
  }
  return slice.host;
}

sb::StatusOr<mk::Message> SkyBridge::DirectServerCall(mk::Thread* caller, ServerId server_id,
                                                      const mk::Message& msg) {
  return CallCommon(caller, server_id, &msg, 0, 0, /*in_place=*/false);
}

sb::StatusOr<mk::Message> SkyBridge::DirectServerCallInPlace(mk::Thread* caller,
                                                             ServerId server_id, uint64_t tag,
                                                             uint64_t len) {
  return CallCommon(caller, server_id, nullptr, tag, len, /*in_place=*/true);
}

sb::StatusOr<mk::Message> SkyBridge::CallCommon(mk::Thread* caller, ServerId server_id,
                                                const mk::Message* msg_in, uint64_t inplace_tag,
                                                uint64_t inplace_len, bool in_place) {
  if (server_id >= servers_.size()) {
    return sb::NotFound("no such server");
  }
  CallContext ctx;
  ctx.caller = caller;
  ctx.server_id = server_id;
  ctx.server = &servers_[server_id];
  ctx.proc = caller->process();
  ctx.core = &kernel_->machine().core(caller->core_id());
  ctx.in_place = in_place;
  // Cycles the call charges outside a named bucket are gate overhead.
  hw::CycleScope gate_scope(*ctx.core, hw::Bucket::kGate);
  ctx.ledger_before = ctx.core->ledger();
  ctx.call_id = ctx.core->trace().TakeCallId();
  SB_TRACE_EVENT(*ctx.core, TraceEventType::kCallStart, ctx.proc->pid(),
                 ctx.server->process->pid());

  SB_RETURN_IF_ERROR(ResolveRoute(ctx));
  SB_RETURN_IF_ERROR(PrepareRequest(ctx, msg_in, inplace_tag, inplace_len, in_place));
  SB_RETURN_IF_ERROR(BindOrigin(ctx));
  // Lazy registration: pages this call is about to execute take their
  // rewrite-on-first-execute fault here, before the crossing is armed.
  SB_RETURN_IF_ERROR(EnsureCallExecutable(ctx));
  // In-flight brackets every exit path below (guard destructs at return).
  InFlightGuard guard;
  guard.Begin(&routes_, ctx.perm, ctx.route);
  // Slot pins release before the in-flight guard ends the call (declaration
  // order), so a drain-triggered sweep sees the slots unpinned.
  SlotPinGuard pins;
  ctx.pins = &pins;
  SB_RETURN_IF_ERROR(ArmGate(ctx));
  SB_RETURN_IF_ERROR(gate_.EnterServer(ctx));
  return ServeAndReturn(ctx);
}

sb::Status SkyBridge::ResolveRoute(CallContext& ctx) {
  hw::Core& core = *ctx.core;
  // Authorization comes from the caller's own registration. The lookup is
  // O(1): per-thread last-route cache, then the (client, server) hash index.
  ctx.perm = routes_.Lookup(ctx.caller, ctx.server_id);
  if (ctx.perm == nullptr) {
    // Unregistered caller: the trampoline has no binding EPT to switch to;
    // the attempt is rejected and the kernel notified.
    metrics_.rejected_calls->Add();
    SB_TRACE_EVENT(core, TraceEventType::kRejected, ctx.proc->pid(), ctx.server->process->pid());
    SB_LOG(kDebug) << "call rejected " << sb::kv("client", ctx.proc->pid())
                   << " " << sb::kv("server", ctx.server->process->pid())
                   << " " << sb::kv("reason", "unregistered");
    return sb::PermissionDenied("client not registered to server");
  }
  if (ctx.perm->revoked) {
    // Revoked bindings refuse new entries; in-flight calls already past this
    // gate drain normally (the sweep waits for them).
    metrics_.revoked_rejections->Add();
    metrics_.rejected_calls->Add();
    SB_TRACE_EVENT(core, TraceEventType::kRejected, ctx.proc->pid(), ctx.server->process->pid());
    SB_LOG(kDebug) << "call rejected " << sb::kv("client", ctx.proc->pid())
                   << " " << sb::kv("server", ctx.server->process->pid())
                   << " " << sb::kv("reason", "revoked");
    return sb::PermissionDenied("binding revoked");
  }
  // The crossing backend is a property of the server's registration; every
  // stage past this point dispatches through it.
  ctx.backend = &gate_.backend(ctx.server->backend);
  return sb::OkStatus();
}

sb::Status SkyBridge::PrepareRequest(CallContext& ctx, const mk::Message* msg_in,
                                     uint64_t inplace_tag, uint64_t inplace_len,
                                     bool in_place) {
  // The caller's per-connection slice. Authorization (and the buffer) always
  // come from the caller's own binding, even when a nested call routes the
  // VMFUNC through a chain binding. Slice ownership comes from the binding's
  // owner row: exhaustion (more live connections than slices) is an
  // explicit error, never a silently shared slice.
  auto slice_or = buffers_.AcquireSlice(*ctx.perm, ctx.caller);
  if (slice_or.ok()) {
    ctx.slice = *slice_or;
  } else if (slice_or.status().code() == sb::ErrorCode::kResourceExhausted) {
    metrics_.rejected_calls->Add();
    return slice_or.status();
  }
  // Other acquisition failures (bufferless binding) leave the slice empty:
  // register-size messages never touch it.
  if (in_place) {
    if (ctx.slice.host.empty()) {
      return sb::FailedPrecondition("binding has no shared buffer");
    }
    if (inplace_len > config_.shared_buffer_bytes) {
      metrics_.rejected_calls->Add();
      return sb::OutOfRange("message exceeds shared buffer");
    }
    // The request is a borrowed view of bytes the client already wrote into
    // its slice — the request copy is skipped.
    ctx.inplace_msg = mk::Message::Borrowed(
        inplace_tag, std::span<const uint8_t>(ctx.slice.host.data(), inplace_len));
    ctx.request = &ctx.inplace_msg;
  } else {
    ctx.request = msg_in;
  }
  return sb::OkStatus();
}

sb::Status SkyBridge::BindOrigin(CallContext& ctx) {
  hw::Core& core = *ctx.core;
  // Determine the live translation origin. A nested call (the caller is
  // itself a server currently entered via SkyBridge) keeps the original
  // client's CR3 live, so the EPT must map *that* CR3 to the target.
  ctx.origin = kernel_->current_process(core.id());
  if (ctx.origin != ctx.proc) {
    auto identity = kernel_->CurrentIdentity(core);
    if (identity.ok() && *identity == ctx.proc->pid()) {
      ctx.nested = true;  // Entered via a prior VMFUNC; origin's CR3 is live.
    } else {
      // Plain scheduling mismatch: dispatch the caller.
      SB_RETURN_IF_ERROR(kernel_->ContextSwitchTo(core, ctx.proc));
      ctx.origin = ctx.proc;
    }
  }
  ctx.route = ctx.perm;
  if (ctx.nested) {
    SB_ASSIGN_OR_RETURN(ctx.route,
                        GetOrCreateChainBinding(core, ctx.origin, ctx.server_id));
  }
  return sb::OkStatus();
}

sb::Status SkyBridge::ArmGate(CallContext& ctx) {
  hw::Core& core = *ctx.core;
  // The EPTP-slot machinery below only applies to view-switch backends
  // (EPTP, MPK). The kernel-fastpath backend has no slots to arm: its legs
  // trap into the kernel and switch CR3 directly.
  const bool view_slots = ctx.backend->caps().uses_view_slots;
  uint32_t slot = kNoEptpSlot;  // The route's slot on this core.
  if (view_slots) {
    // The view active at entry is the one we must return to (the caller's
    // own view for a top-level call, the enclosing binding's EPT for a
    // nested one). Freed slots are replaced in place (kEptpListReplace) and
    // never reshuffle their neighbours, so the return slot is simply the
    // slot we entered on — always.
    ctx.return_index = core.vmcs().active_index;

    // Slot-fault slow path (DESIGN.md section 15): the binding is authorized,
    // but its EPT is not resident in this core's bounded slot working set.
    // Evict the LRU victim, replace the freed slot in place, and retry — hot
    // bindings stay resident and never take this path. A hit is stamped as
    // the most recently used, so the hot set survives faults elsewhere.
    slot = routes_.TouchResident(core.id(), ctx.route->ept_id);
    if (slot == kNoEptpSlot) {
      metrics_.slot_faults->Add();
      const uint64_t fault_start = core.cycles();
      kernel_->SyscallEnter(core);
      const auto slot_or =
          routes_.EnsureResident(core, ctx.route->ept_id, /*faultable=*/true);
      kernel_->SyscallExit(core);
      gate_.RecordSlotFault(core.cycles() - fault_start);
      if (!slot_or.ok()) {
        metrics_.rejected_calls->Add();
        return slot_or.status();
      }
      SB_TRACE_EVENT(core, TraceEventType::kSlotFault, ctx.route->ept_id, *slot_or);
      slot = *slot_or;
    }
  }

  // ---- Client-side trampoline (view-switch backends only) ----
  if (ctx.backend->caps().uses_trampoline) {
    gate_.ChargeTrampolineLeg(core, ctx.backend->trampoline_va());
  }
  ctx.long_msg = ctx.in_place || ctx.request->size() > kernel_->profile().register_msg_capacity;
  if (ctx.long_msg) {
    metrics_.long_calls->Add();
    if (ctx.request->size() > config_.shared_buffer_bytes || ctx.slice.va == 0) {
      metrics_.rejected_calls->Add();
      return sb::OutOfRange("message exceeds shared buffer");
    }
    if (ctx.in_place) {
      // The client already built the payload in its slice: no request copy.
      metrics_.inplace_calls->Add();
    } else {
      hw::CycleScope copy(core, hw::Bucket::kCopy);
      SB_RETURN_IF_ERROR(core.WriteVirt(ctx.slice.va, ctx.request->payload()));
    }
  }
  // The client's per-call key; the server must echo it on return.
  ctx.client_key = Gate::PerCallKey(*ctx.caller, core.cycles());

  if (!view_slots) {
    return sb::OkStatus();
  }
  // A concurrent eviction can still drop the binding's slot between lookup
  // and this point (the pre_vmfunc fault injects exactly that): detect the
  // stale slot and re-arm via the slowpath with bounded exponential backoff.
  for (uint64_t attempt = 0;; ++attempt) {
    if (SB_FAULT_POINT(kFaultPreVmfunc)) {
      routes_.FaultEvict(core, *ctx.route);
      slot = routes_.ResidentSlot(core.id(), ctx.route->ept_id);
    }
    if (slot != kNoEptpSlot) {
      ctx.route_slot = slot;
      break;
    }
    if (attempt >= kMaxStaleSlotRetries) {
      metrics_.rejected_calls->Add();
      SB_LOG(kDebug) << "stale-slot retries exhausted " << sb::kv("client", ctx.origin->pid())
                     << " " << sb::kv("server", ctx.server->process->pid());
      // The entry slot never moved (in-place replacement): restore it.
      core.vmcs().active_index = ctx.return_index;
      return sb::Unavailable("EPTP slot evicted repeatedly before VMFUNC");
    }
    metrics_.stale_slot_retries->Add();
    SB_TRACE_EVENT(core, TraceEventType::kStaleSlotRetry, ctx.server->process->pid(), attempt);
    core.AdvanceCycles(kStaleBackoffCycles << attempt);
    kernel_->SyscallEnter(core);
    const auto rearm = routes_.EnsureResident(core, ctx.route->ept_id, /*faultable=*/false);
    kernel_->SyscallExit(core);
    SB_RETURN_IF_ERROR(rearm.status());
    slot = *rearm;
  }
  // Pin both gate slots for the life of the call: slot faults taken by other
  // calls (including nested ones on this core) may evict anything else.
  if (ctx.pins != nullptr) {
    ctx.pins->Pin(&routes_, core.id(), static_cast<uint32_t>(ctx.return_index),
                  ctx.route_slot);
  }
  return sb::OkStatus();
}

sb::StatusOr<mk::Message> SkyBridge::ServeAndReturn(CallContext& ctx) {
  hw::Core& core = *ctx.core;
  ServerEntry& server = *ctx.server;
  const mk::Message& msg = *ctx.request;

  // ---- Server side (server address space, same core, no kernel) ----
  // Calling-key check against the server's table (Section 4.4).
  if (!gate_.CheckCallingKey(ctx)) {
    metrics_.rejected_calls->Add();
    SB_TRACE_EVENT(core, TraceEventType::kRejected, ctx.proc->pid(), server.process->pid());
    SB_LOG(kDebug) << "call rejected " << sb::kv("client", ctx.proc->pid())
                   << " " << sb::kv("server", server.process->pid())
                   << " " << sb::kv("reason", "calling_key");
    SB_RETURN_IF_ERROR(gate_.ReturnToEntry(ctx));
    return sb::PermissionDenied("calling key rejected");
  }

  // Install the per-connection server stack.
  const hw::Gva stack_va = mk::kServerStacksVa + ctx.server_id * 256 * kServerStackBytes +
                           ctx.perm->key_slot * kServerStackBytes;
  (void)core.TouchData(stack_va + kServerStackBytes - 64, 64, true);

  ctx.handler_start = core.cycles();
  SB_TRACE_EVENT(core, TraceEventType::kHandlerEnter, server.process->pid(), 0);
  // Handler request view: in the default modes a long request is served as a
  // borrowed view over the slice — the handler reads the shared buffer, not
  // a copied-out vector. The legacy two-copy ablation keeps the owned copy.
  mk::Message borrowed_req;
  const mk::Message* handler_req = &msg;
  if (ctx.long_msg && !config_.legacy_two_copy && !ctx.slice.host.empty()) {
    borrowed_req = mk::Message::Borrowed(
        msg.tag, std::span<const uint8_t>(ctx.slice.host.data(), msg.size()));
    handler_req = &borrowed_req;
  }
  mk::CallEnv env{*kernel_, core, *server.process, *handler_req};
  if (!config_.legacy_two_copy && !ctx.slice.host.empty()) {
    // Offer the slice for in-place reply construction (zero-copy replies).
    env.reply_buffer = ctx.slice.host;
    env.reply_buffer_va = ctx.slice.va;
  }
  if (SB_FAULT_POINT(kFaultHandlerCrash)) {
    return gate_.AbortServerCrash(ctx);
  }
  mk::Message reply = [&] {
    OutsideGate outside(ctx);
    return server.handler(env);
  }();
  if (SB_FAULT_POINT(kFaultRevokeInflight)) {
    // Revocation racing a live call: this reply still returns; the EPTP
    // surgery defers to the drain and subsequent calls are refused.
    (void)RevokeBinding(ctx.proc, ctx.server_id);
  }
  ctx.timed_out = core.cycles() - ctx.handler_start > kHandlerTimeoutCycles;
  SB_TRACE_EVENT(core, TraceEventType::kHandlerExit, server.process->pid(), ctx.timed_out ? 1 : 0);

  const Gate::ReplyVerdict verdict = gate_.ClassifyReply(ctx, reply);
  if (verdict.corrupt && !ctx.timed_out) {
    metrics_.gate_rejections->Add();
    metrics_.rejected_calls->Add();
    SB_TRACE_EVENT(core, TraceEventType::kRejected, ctx.proc->pid(), server.process->pid());
    SB_LOG(kDebug) << "reply rejected at the return gate " << sb::kv("client", ctx.proc->pid())
                   << " " << sb::kv("server", server.process->pid());
    SB_RETURN_IF_ERROR(gate_.ReturnToEntry(ctx));
    gate_.RecordPhases(ctx);
    return sb::OutOfRange("corrupt reply rejected at the return gate");
  }
  const bool long_reply =
      verdict.in_place || reply.size() > kernel_->profile().register_msg_capacity;
  if (long_reply && !ctx.timed_out) {
    if (reply.size() > config_.shared_buffer_bytes || ctx.slice.va == 0) {
      // Reject — but only after the return gate. Bailing out here would
      // leave the core in the server's EPT view with the client resumed.
      metrics_.gate_rejections->Add();
      metrics_.rejected_calls->Add();
      SB_TRACE_EVENT(core, TraceEventType::kRejected, ctx.proc->pid(), server.process->pid());
      SB_RETURN_IF_ERROR(gate_.ReturnToEntry(ctx));
      gate_.RecordPhases(ctx);
      return sb::OutOfRange("reply exceeds shared buffer");
    }
    if (verdict.in_place) {
      metrics_.inplace_replies->Add();
    } else {
      hw::CycleScope copy(core, hw::Bucket::kCopy);
      SB_RETURN_IF_ERROR(core.WriteVirt(ctx.slice.va, reply.payload()));
    }
  }

  // ---- Return gate ----
  SB_RETURN_IF_ERROR(gate_.ReturnToEntry(ctx));
  gate_.VerifyReturnKey(ctx);
  if (long_reply && !ctx.timed_out) {
    if (config_.legacy_two_copy || ctx.slice.host.empty()) {
      // Two-copy ablation: charged read-out, and the returned message
      // carries the bytes read from the buffer — the simulated dataflow
      // matches the modeled cost.
      hw::CycleScope copy(core, hw::Bucket::kCopy);
      std::vector<uint8_t> out(reply.size());
      SB_RETURN_IF_ERROR(core.ReadVirt(ctx.slice.va, out));
      reply.view = std::span<const uint8_t>();
      reply.data = std::move(out);
    } else if (!verdict.in_place) {
      // One-copy: the reply bytes live in the slice after the server-side
      // write; hand the client a borrowed view instead of copying them out.
      const size_t n = reply.size();
      reply.data.clear();
      reply.view = std::span<const uint8_t>(ctx.slice.host.data(), n);
    }
    // verdict.in_place: the view already points into the slice — zero copies.
  }
  if (ctx.timed_out) {
    metrics_.timeouts->Add();
    SB_TRACE_EVENT(core, TraceEventType::kTimeout, server.process->pid(), 0);
    SB_LOG(kDebug) << "call timeout " << sb::kv("client", ctx.proc->pid())
                   << " " << sb::kv("server", server.process->pid());
    gate_.RecordPhases(ctx);
    return sb::TimeoutError("server handler exceeded the SkyBridge timeout");
  }
  metrics_.direct_calls->Add();
  SB_TRACE_EVENT(core, TraceEventType::kCallEnd, ctx.proc->pid(), server.process->pid());
  gate_.RecordPhases(ctx);
  return reply;
}

// ---- Batched + asynchronous IPC (DESIGN.md section 13) ----

sb::StatusOr<SkyBridge::BatchConn*> SkyBridge::GetBatchConn(mk::Thread* caller,
                                                            ServerId server_id) {
  if (server_id >= servers_.size()) {
    return sb::NotFound("no such server");
  }
  Binding* perm = routes_.Lookup(caller, server_id);
  if (perm == nullptr) {
    metrics_.rejected_calls->Add();
    return sb::PermissionDenied("client not registered to server");
  }
  if (perm->revoked) {
    metrics_.revoked_rejections->Add();
    metrics_.rejected_calls->Add();
    return sb::PermissionDenied("binding revoked");
  }
  if (BatchConn* conn = FindBatchConn(perm, caller->tid())) {
    return conn;
  }
  // First use of the batch API on this connection (slow path): acquire the
  // connection's slice and carve the ring from it.
  SB_ASSIGN_OR_RETURN(const SliceRef slice, buffers_.AcquireSlice(*perm, caller));
  SB_ASSIGN_OR_RETURN(const BatchRingView ring, buffers_.CarveRing(*perm, caller));
  BatchConn& conn = batch_conns_[{perm, caller->tid()}];
  conn.slice = slice;
  conn.ring = ring;
  conn.slot_token.assign(ring.entries, kFreeSlot);
  return &conn;
}

SkyBridge::BatchConn* SkyBridge::FindBatchConn(const Binding* perm, int tid) {
  auto it = batch_conns_.find({perm, tid});
  return it != batch_conns_.end() ? &it->second : nullptr;
}

sb::StatusOr<uint64_t> SkyBridge::SubmitCall(mk::Thread* caller, ServerId server_id,
                                             const mk::Message& msg) {
  SB_ASSIGN_OR_RETURN(BatchConn * conn, GetBatchConn(caller, server_id));
  const BatchRingView& ring = conn->ring;
  if (msg.size() > ring.payload_cap) {
    metrics_.rejected_calls->Add();
    return sb::OutOfRange("message exceeds the ring's per-entry capacity");
  }
  const uint32_t slot = ring.Slot(conn->sq_tail);
  if (conn->slot_token[slot] != kFreeSlot) {
    return sb::ResourceExhausted("batch ring full");
  }
  hw::Core& core = kernel_->machine().core(caller->core_id());
  const uint64_t token = conn->sq_tail++;
  const uint64_t call_id = core.trace().TakeCallId();
  // Client-side submit: payload into the entry's span, then the descriptor
  // line, then the published tail. No crossing, no syscall.
  if (msg.size() > 0) {
    SB_RETURN_IF_ERROR(core.WriteVirt(ring.PayloadVa(token), msg.payload()));
  }
  (void)core.TouchData(ring.DescVa(token), BatchRingView::kDescBytes, true);
  ring.PublishRequest(token, msg.tag, static_cast<uint32_t>(msg.size()), call_id);
  ring.PublishTail(conn->sq_tail);
  conn->slot_token[slot] = token;
  metrics_.batched_calls->Add();
  SB_TRACE_EVENT(core, TraceEventType::kBatchEnqueue, call_id, token);
  return token;
}

sb::StatusOr<mk::Message> SkyBridge::PollCompletion(mk::Thread* caller, ServerId server_id,
                                                    uint64_t token) {
  return ReapCompletion(caller, server_id, token, nullptr);
}

sb::StatusOr<mk::Message> SkyBridge::ReapCompletion(mk::Thread* caller, ServerId server_id,
                                                    uint64_t token, bool* reply_too_large) {
  if (server_id >= servers_.size()) {
    return sb::NotFound("no such server");
  }
  Binding* perm = routes_.Lookup(caller, server_id);
  if (perm == nullptr) {
    return sb::PermissionDenied("client not registered to server");
  }
  BatchConn* conn = FindBatchConn(perm, caller->tid());
  if (conn == nullptr) {
    return sb::NotFound("no batch connection for this caller");
  }
  const BatchRingView& ring = conn->ring;
  if (token >= conn->sq_tail) {
    return sb::InvalidArgument("token was never submitted");
  }
  hw::Core& core = kernel_->machine().core(caller->core_id());
  (void)core.TouchData(ring.DescVa(token), BatchRingView::kDescBytes, false);
  uint64_t& owner = conn->slot_token[ring.Slot(token)];
  if (owner != token) {
    return sb::InvalidArgument("completion already consumed (slot recycled)");
  }
  // The server can write every descriptor field: the copy is read once
  // and checked before it shapes the result.
  const BatchRingView::Desc desc = ring.LoadDesc(token);
  if (desc.status == 0) {
    return sb::Unavailable("completion pending; flush the batch");
  }
  SB_TRACE_EVENT(core, TraceEventType::kBatchPoll, desc.call_id, token);
  // Reap: free the slot, so a second poll of the same token is an explicit
  // error, not a stale replay.
  owner = kFreeSlot;
  auto corrupt = [&] {
    metrics_.gate_rejections->Add();
    return sb::OutOfRange("corrupt completion descriptor rejected");
  };
  if (desc.status - 1 > static_cast<uint32_t>(sb::kLastErrorCode)) {
    return corrupt();
  }
  const auto code = static_cast<sb::ErrorCode>(desc.status - 1);
  if (code != sb::ErrorCode::kOk) {
    // The return gate posts an oversize reply's length, which no span holds.
    if (reply_too_large != nullptr) {
      *reply_too_large = code == sb::ErrorCode::kOutOfRange && desc.reply_len > ring.payload_cap;
    }
    return sb::Status(code, "batched call failed");
  }
  if (desc.reply_len > ring.payload_cap) {
    return corrupt();
  }
  // Like the in-place API, the reply is a borrowed view of the entry's
  // payload span — valid until the slot is resubmitted.
  return mk::Message::Borrowed(
      desc.reply_tag, std::span<const uint8_t>(ring.Payload(token).data(), desc.reply_len));
}

void SkyBridge::FailPendingClientSide(BatchConn& conn, sb::ErrorCode code) {
  // No server runs on a revoked binding, so the client side posts in the
  // drain's place: the one writer of the server's words besides the drain.
  while (conn.drain_head != conn.sq_tail) {
    conn.ring.PostCompletion(conn.drain_head, 0, 0, code);
    conn.ring.PublishHead(++conn.drain_head);
  }
}

sb::Status SkyBridge::FlushBatch(mk::Thread* caller, ServerId server_id) {
  if (server_id >= servers_.size()) {
    return sb::NotFound("no such server");
  }
  Binding* perm = routes_.Lookup(caller, server_id);
  if (perm == nullptr) {
    metrics_.rejected_calls->Add();
    return sb::PermissionDenied("client not registered to server");
  }
  BatchConn* conn = FindBatchConn(perm, caller->tid());
  if (conn == nullptr) {
    return sb::OkStatus();  // Nothing was ever submitted.
  }
  const BatchRingView& ring = conn->ring;
  // The server can write the header: its head must lie between the drain's
  // last head and the tail this client published.
  const uint64_t published_head = ring.LoadHead();
  if (published_head < conn->drain_head || published_head > conn->sq_tail) {
    metrics_.gate_rejections->Add();
    return sb::OutOfRange("corrupt batch ring head rejected");
  }
  const uint64_t pending = conn->sq_tail - conn->drain_head;
  if (pending == 0) {
    return sb::OkStatus();
  }
  hw::Core& core = kernel_->machine().core(caller->core_id());
  // Cycles the flush charges outside a named bucket are gate overhead.
  hw::CycleScope gate_scope(core, hw::Bucket::kGate);
  if (perm->revoked) {
    // Revoked binding: no crossing. The pending entries complete client-side
    // with PermissionDenied so pollers see a per-entry verdict, not a hang.
    metrics_.revoked_rejections->Add();
    metrics_.rejected_calls->Add();
    FailPendingClientSide(*conn, sb::ErrorCode::kPermissionDenied);
    return sb::OkStatus();
  }
  metrics_.ring_depth->SetMax(pending);

  CallContext ctx;
  ctx.caller = caller;
  ctx.server_id = server_id;
  ctx.server = &servers_[server_id];
  ctx.proc = caller->process();
  ctx.core = &core;
  ctx.ledger_before = core.ledger();
  // A crossing is never pre-announced: a parked id belongs to the next
  // submission, not to a flush that runs before it (a full ring's drain).
  ctx.call_id = core.trace().AllocCallId();
  SB_TRACE_EVENT(core, TraceEventType::kCallStart, ctx.proc->pid(), ctx.server->process->pid());
  SB_TRACE_EVENT(core, TraceEventType::kBatchFlushStart, ctx.call_id, pending);
  SB_RETURN_IF_ERROR(ResolveRoute(ctx));
  ctx.slice = conn->slice;
  // The flush itself carries no payload — the requests are already in the
  // ring. An empty request keeps ArmGate on the register-size path.
  const mk::Message flush_msg;
  ctx.request = &flush_msg;
  SB_RETURN_IF_ERROR(BindOrigin(ctx));
  // Lazy registration: the drain executes the client's submit site and the
  // server's handler entry — fault their pages in before crossing.
  SB_RETURN_IF_ERROR(EnsureCallExecutable(ctx));
  InFlightGuard guard;
  guard.Begin(&routes_, ctx.perm, ctx.route);
  SlotPinGuard pins;
  ctx.pins = &pins;
  SB_RETURN_IF_ERROR(ArmGate(ctx));
  SB_RETURN_IF_ERROR(gate_.EnterServer(ctx));

  // ---- Server side: the batch-dispatch leg ----
  if (!gate_.CheckCallingKey(ctx)) {
    metrics_.rejected_calls->Add();
    SB_RETURN_IF_ERROR(gate_.ReturnToEntry(ctx));
    return sb::PermissionDenied("calling key rejected");
  }
  const Gate::DrainOutcome outcome = gate_.DrainBatch(ctx, ring, conn->drain_head);
  metrics_.batch_flushes->Add();
  if (outcome.completed > 0) {
    metrics_.drain_rounds->Add();
  }
  if (outcome.timed_out) {
    metrics_.timeouts->Add();
  }
  if (SB_FAULT_POINT(kFaultRevokeInflight)) {
    // Revocation racing a live flush: this crossing's completions stand;
    // subsequent submits and flushes are refused.
    (void)RevokeBinding(ctx.proc, ctx.server_id);
  }
  if (outcome.crashed) {
    // Handler died mid-drain. Entries it completed (including the Aborted
    // one) are posted; untouched entries stay pending for the next flush.
    SB_TRACE_EVENT(core, TraceEventType::kBatchFlushEnd, ctx.call_id, outcome.completed);
    return gate_.AbortServerCrash(ctx);
  }
  SB_RETURN_IF_ERROR(gate_.ReturnToEntry(ctx));
  gate_.VerifyReturnKey(ctx);
  gate_.RecordPhases(ctx);
  SB_TRACE_EVENT(core, TraceEventType::kBatchFlushEnd, ctx.call_id, outcome.completed);
  SB_TRACE_EVENT(core, TraceEventType::kCallEnd, ctx.proc->pid(), ctx.server->process->pid());
  if (outcome.bad_tail) {
    return sb::OutOfRange("batch ring tail outside the drain's bounds; crossing refused");
  }
  return sb::OkStatus();
}

sb::StatusOr<std::vector<SkyBridge::BatchEntryResult>> SkyBridge::CallBatch(
    mk::Thread* caller, ServerId server_id, std::span<const mk::Message> msgs) {
  std::vector<BatchEntryResult> out(msgs.size());
  size_t i = 0;
  while (i < msgs.size()) {
    // Submit until the ring fills (or input runs out), then flush the chunk.
    std::vector<std::pair<size_t, uint64_t>> chunk;  // msg index -> token
    while (i < msgs.size()) {
      auto token = SubmitCall(caller, server_id, msgs[i]);
      if (!token.ok()) {
        if (token.status().code() == sb::ErrorCode::kResourceExhausted && !chunk.empty()) {
          break;  // Ring full: flush what we have, resubmit this one after.
        }
        out[i].status = token.status();  // Per-entry submit failure.
        ++i;
        continue;
      }
      chunk.emplace_back(i, *token);
      ++i;
    }
    if (chunk.empty()) {
      continue;
    }
    sb::Status flushed = FlushBatch(caller, server_id);
    for (auto& [idx, token] : chunk) {
      for (int attempt = 0;; ++attempt) {
        auto reply = ReapCompletion(caller, server_id, token, &out[idx].reply_too_large);
        if (reply.ok()) {
          // Own the reply: the next chunk recycles the slot it borrows from.
          out[idx].status = sb::OkStatus();
          out[idx].reply = reply->ToOwned();
          break;
        }
        if (reply.status().code() != sb::ErrorCode::kUnavailable) {
          out[idx].status = reply.status();
          break;
        }
        // Untouched by a crashed crossing: flush again.
        flushed = FlushBatch(caller, server_id);
        if (!flushed.ok() && flushed.code() != sb::ErrorCode::kAborted) {
          out[idx].status = flushed;
          break;
        }
        if (attempt >= 64) {
          out[idx].status = sb::Internal("batched entry never completed");
          break;
        }
      }
    }
  }
  return out;
}

sb::StatusOr<mk::Message> SkyBridge::CallWithForgedKey(mk::Thread* caller, ServerId server_id,
                                                       const mk::Message& msg,
                                                       uint64_t forged_key) {
  if (server_id >= servers_.size()) {
    return sb::NotFound("no such server");
  }
  Binding* binding = routes_.Find(caller->process(), server_id);
  if (binding == nullptr) {
    metrics_.rejected_calls->Add();
    return sb::PermissionDenied("client not registered to server");
  }
  const uint64_t real_key = binding->server_key;
  binding->server_key = forged_key;  // The caller presents a wrong key.
  auto result = DirectServerCall(caller, server_id, msg);
  binding->server_key = real_key;
  return result;
}

sb::StatusOr<uint64_t> SkyBridge::ProbeCrossDomainRead(mk::Thread* caller, ServerId server_id,
                                                       hw::Gva va) {
  if (server_id >= servers_.size()) {
    return sb::NotFound("no such server");
  }
  ServerEntry& server = servers_[server_id];
  hw::Core& core = kernel_->machine().core(caller->core_id());
  const CrossingBackend& backend = gate_.backend(server.backend);
  if (backend.caps().isolates_memory) {
    // EPTP: a forged VMFUNC can only name list slots the Rootkernel
    // populated, and none of them maps the server's pages for this attacker
    // — the hypervisor's view switch is the reference monitor. Syscall: the
    // kernel validates the capability on every crossing. Either way the
    // probe dies before the dereference.
    metrics_.rejected_calls->Add();
    return sb::PermissionDenied("cross-domain read blocked by the crossing backend");
  }
  // MPK: WRPKRU is unprivileged and the server's pages live in the shared
  // address space — the attacker forges PKRU (all keys readable) and
  // dereferences through the server's mapping. No trampoline, no calling
  // key, no kernel. This is the backend's documented weaker isolation
  // envelope (DESIGN.md section 16), pinned by the security tests.
  const uint32_t saved_pkru = core.pkru();
  core.Wrpkru(0);  // Grant every protection key.
  const hw::GuestWalk walk = server.process->address_space().WalkVa(va);
  sb::StatusOr<uint64_t> stolen =
      walk.ok ? sb::StatusOr<uint64_t>(kernel_->machine().mem().ReadU64(walk.gpa))
              : sb::StatusOr<uint64_t>(sb::InvalidArgument("server va unmapped"));
  core.Wrpkru(saved_pkru);
  kernel_->machine().telemetry().GetCounter("skybridge.crossing.mpk.cross_domain_probes").Add();
  return stolen;
}

sb::Status SkyBridge::RevokeBinding(mk::Process* client, ServerId server_id) {
  if (server_id >= servers_.size()) {
    return sb::NotFound("no such server");
  }
  return routes_.Revoke(client, server_id);
}

sb::Status SkyBridge::RevokeServer(ServerId server_id) {
  if (server_id >= servers_.size()) {
    return sb::NotFound("no such server");
  }
  // Revoke every live client binding; each drains independently. Under
  // consolidation they all share one EPT, and the last sibling to drain
  // drops its residency on every core (see RouteTable::SweepRevoked).
  for (mk::Process* client : routes_.ClientsOfServer(server_id)) {
    SB_RETURN_IF_ERROR(routes_.Revoke(client, server_id));
  }
  return sb::OkStatus();
}

sb::Status SkyBridge::CheckInvariants() const {
  SB_RETURN_IF_ERROR(routes_.CheckInvariants());
  // Batch slot ownership: a held slot records a token its connection
  // submitted within the last ring's worth of tokens.
  for (const auto& [key, conn] : batch_conns_) {
    for (uint32_t slot = 0; slot < conn.slot_token.size(); ++slot) {
      const uint64_t token = conn.slot_token[slot];
      if (token != kFreeSlot && (conn.ring.Slot(token) != slot || token >= conn.sq_tail ||
                                 conn.sq_tail - token > conn.ring.entries)) {
        return sb::Internal("batch slot holds a token outside its ring window");
      }
    }
  }
  // Cycle conservation: every cycle a core's clock moved is in its ledger.
  for (int c = 0; c < kernel_->machine().num_cores(); ++c) {
    const hw::Core& core = kernel_->machine().core(c);
    if (core.ledger().total() != core.cycles()) {
      return sb::Internal("core " + std::to_string(c) + " ledger does not sum to its clock");
    }
  }
  return sb::OkStatus();
}

uint64_t SkyBridge::InFlightCalls() const { return routes_.InFlightCalls(); }

uint32_t SkyBridge::ResidentBindingSlot(mk::Process* client, ServerId server_id,
                                        uint32_t core_id) const {
  const Binding* binding = routes_.Find(client, server_id);
  if (binding == nullptr) {
    return kNoEptpSlot;
  }
  return routes_.ResidentSlot(static_cast<int>(core_id), binding->ept_id);
}

}  // namespace skybridge
