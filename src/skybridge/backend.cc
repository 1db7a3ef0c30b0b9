#include "src/skybridge/backend.h"

#include <string>

#include "src/base/logging.h"
#include "src/base/telemetry/trace.h"
#include "src/skybridge/gate.h"
#include "src/vmm/rootkernel.h"

namespace skybridge {

using sb::telemetry::TraceEventType;

uint32_t PkruAllow(uint8_t pkey) {
  // Two rights bits (AD, WD) per key; clear the pair for `pkey` and key 0.
  return kPkruDefault & ~(3u << (2u * pkey));
}

CrossingBackend::CrossingBackend(CrossingBackendKind kind, mk::Kernel& kernel,
                                 const SkyBridgeConfig& config)
    : kind_(kind), kernel_(&kernel), config_(&config) {
  sb::telemetry::Registry& reg = kernel.machine().telemetry();
  const std::string prefix = std::string("skybridge.crossing.") + CrossingBackendName(kind);
  enters_ = &reg.GetCounter(prefix + ".enters");
  returns_ = &reg.GetCounter(prefix + ".returns");
  aborts_ = &reg.GetCounter(prefix + ".aborts");
  leg_cycles_ = &reg.GetHistogram(prefix + ".leg_cycles");
}

namespace {

// ---- EPTP backend: the paper's VMFUNC switch ----------------------------

class EptpBackend : public CrossingBackend {
 public:
  EptpBackend(mk::Kernel& kernel, const SkyBridgeConfig& config)
      : CrossingBackend(CrossingBackendKind::kEptp, kernel, config) {}

  const BackendCaps& caps() const override {
    static constexpr BackendCaps kCaps{/*isolates_memory=*/true,
                                       /*uses_view_slots=*/true,
                                       /*needs_rewrite=*/true,
                                       /*uses_trampoline=*/true,
                                       /*kernel_mediated_abort=*/true};
    return kCaps;
  }

  sb::Status Enter(CallContext& ctx) const override {
    hw::Core& core = *ctx.core;
    hw::CycleScope vmfunc(core, hw::Bucket::kVmfunc);
    SB_RETURN_IF_ERROR(core.Vmfunc(0, ctx.route_slot));
    SB_TRACE_EVENT(core, TraceEventType::kVmfuncSwitch, ctx.route_slot, 0);
    SB_TRACE_EVENT(core, TraceEventType::kSpanVmfunc, ctx.call_id, ctx.route_slot);
    return sb::OkStatus();
  }

  sb::Status Return(CallContext& ctx) const override {
    hw::Core& core = *ctx.core;
    hw::CycleScope vmfunc(core, hw::Bucket::kVmfunc);
    SB_RETURN_IF_ERROR(core.Vmfunc(0, static_cast<uint32_t>(ctx.return_index)));
    SB_TRACE_EVENT(core, TraceEventType::kVmfuncSwitch, ctx.return_index, 0);
    SB_TRACE_EVENT(core, TraceEventType::kSpanReturn, ctx.call_id, ctx.return_index);
    return sb::OkStatus();
  }

  sb::Status Abort(CallContext& ctx) const override {
    hw::Core& core = *ctx.core;
    hw::CycleScope others(core, hw::Bucket::kOthers);
    if (core.Vmcall(static_cast<uint64_t>(vmm::Hypercall::kAbortToView),
                    static_cast<uint64_t>(ctx.return_index)) == vmm::kHypercallError) {
      return sb::Internal("rootkernel refused the abort view restore");
    }
    return sb::OkStatus();
  }
};

// ---- MPK backend: WRPKRU protection-key switch --------------------------
//
// The simulator models the MPK domain switch as: (1) the architectural
// WRPKRU charge + PKRU update, (2) an *unvalidated* flip of the active view
// to the binding's slot — standing in for "the server's pages, already
// mapped in the shared address space, become accessible". The flip performs
// the same bounds check VMFUNC's microcode does, but a bad index is a plain
// error with no hypervisor backstop, and nothing stops user code from
// forging the same two steps — which is exactly the weaker isolation
// envelope ProbeCrossDomainRead demonstrates.

class MpkBackend : public CrossingBackend {
 public:
  MpkBackend(mk::Kernel& kernel, const SkyBridgeConfig& config)
      : CrossingBackend(CrossingBackendKind::kMpk, kernel, config) {}

  const BackendCaps& caps() const override {
    static constexpr BackendCaps kCaps{/*isolates_memory=*/false,
                                       /*uses_view_slots=*/true,
                                       /*needs_rewrite=*/true,
                                       /*uses_trampoline=*/true,
                                       /*kernel_mediated_abort=*/true};
    return kCaps;
  }

  hw::Gva trampoline_va() const override { return mk::kMpkTrampolineVa; }

  sb::Status Enter(CallContext& ctx) const override {
    hw::Core& core = *ctx.core;
    hw::CycleScope vmfunc(core, hw::Bucket::kVmfunc);
    core.Wrpkru(PkruAllow(ctx.route->pkey));
    SB_RETURN_IF_ERROR(SwitchView(core, ctx.route_slot));
    SB_TRACE_EVENT(core, TraceEventType::kVmfuncSwitch, ctx.route_slot, 0);
    SB_TRACE_EVENT(core, TraceEventType::kSpanVmfunc, ctx.call_id, ctx.route_slot);
    return sb::OkStatus();
  }

  sb::Status Return(CallContext& ctx) const override {
    hw::Core& core = *ctx.core;
    hw::CycleScope vmfunc(core, hw::Bucket::kVmfunc);
    core.Wrpkru(kPkruDefault);
    SB_RETURN_IF_ERROR(SwitchView(core, static_cast<uint32_t>(ctx.return_index)));
    SB_TRACE_EVENT(core, TraceEventType::kVmfuncSwitch, ctx.return_index, 0);
    SB_TRACE_EVENT(core, TraceEventType::kSpanReturn, ctx.call_id, ctx.return_index);
    return sb::OkStatus();
  }

  sb::Status Abort(CallContext& ctx) const override {
    hw::Core& core = *ctx.core;
    // The stranded client's PKRU is kernel-restored along with the view:
    // recovery stays Rootkernel-mediated so the abort counters and
    // invariants match the EPTP backend exactly.
    core.Wrpkru(kPkruDefault);
    hw::CycleScope others(core, hw::Bucket::kOthers);
    if (core.Vmcall(static_cast<uint64_t>(vmm::Hypercall::kAbortToView),
                    static_cast<uint64_t>(ctx.return_index)) == vmm::kHypercallError) {
      return sb::Internal("rootkernel refused the abort view restore");
    }
    return sb::OkStatus();
  }

 private:
  static sb::Status SwitchView(hw::Core& core, uint32_t index) {
    if (index >= core.vmcs().eptp_list.size() || core.vmcs().eptp_list[index] == nullptr) {
      return sb::InvalidArgument("invalid MPK domain index");
    }
    core.vmcs().active_index = index;
    return sb::OkStatus();
  }
};

// ---- Syscall backend: seL4-style kernel fastpath ------------------------
//
// The baseline the paper compares against: every leg traps into the
// microkernel (SYSCALL), runs the fastpath IPC logic, switches CR3 to the
// peer's address space and SYSRETs. No trampoline, no rewriting, no EPTP
// slots — and the kernel really switches current_process, so nested-call
// chain bindings never arise on this backend.

class SyscallBackend : public CrossingBackend {
 public:
  SyscallBackend(mk::Kernel& kernel, const SkyBridgeConfig& config)
      : CrossingBackend(CrossingBackendKind::kSyscall, kernel, config) {}

  const BackendCaps& caps() const override {
    static constexpr BackendCaps kCaps{/*isolates_memory=*/true,
                                       /*uses_view_slots=*/false,
                                       /*needs_rewrite=*/false,
                                       /*uses_trampoline=*/false,
                                       /*kernel_mediated_abort=*/false};
    return kCaps;
  }

  sb::Status Enter(CallContext& ctx) const override {
    hw::Core& core = *ctx.core;
    kernel_->SyscallEnter(core);
    kernel_->ChargeIpcLogic(core, /*fastpath=*/true);
    SB_RETURN_IF_ERROR(kernel_->ContextSwitchTo(core, ctx.server->process));
    kernel_->SyscallExit(core);
    SB_TRACE_EVENT(core, TraceEventType::kSpanVmfunc, ctx.call_id, 0);
    return sb::OkStatus();
  }

  sb::Status Return(CallContext& ctx) const override {
    hw::Core& core = *ctx.core;
    kernel_->SyscallEnter(core);
    kernel_->ChargeIpcLogic(core, /*fastpath=*/true);
    SB_RETURN_IF_ERROR(kernel_->ContextSwitchTo(core, ctx.proc));
    kernel_->SyscallExit(core);
    SB_TRACE_EVENT(core, TraceEventType::kSpanReturn, ctx.call_id, 0);
    return sb::OkStatus();
  }

  sb::Status Abort(CallContext& ctx) const override {
    // The kernel reaped the dead server thread and reschedules the blocked
    // caller in its own address space — no hypervisor involved.
    hw::Core& core = *ctx.core;
    kernel_->SyscallEnter(core);
    SB_RETURN_IF_ERROR(kernel_->ContextSwitchTo(core, ctx.proc));
    kernel_->SyscallExit(core);
    return sb::OkStatus();
  }
};

}  // namespace

std::unique_ptr<CrossingBackend> MakeCrossingBackend(CrossingBackendKind kind,
                                                     mk::Kernel& kernel,
                                                     const SkyBridgeConfig& config) {
  switch (kind) {
    case CrossingBackendKind::kEptp:
      return std::make_unique<EptpBackend>(kernel, config);
    case CrossingBackendKind::kMpk:
      return std::make_unique<MpkBackend>(kernel, config);
    case CrossingBackendKind::kSyscall:
      return std::make_unique<SyscallBackend>(kernel, config);
  }
  SB_CHECK(false) << "unknown crossing backend";
  return nullptr;
}

}  // namespace skybridge
