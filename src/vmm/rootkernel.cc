#include "src/vmm/rootkernel.h"

#include "src/base/faultpoint.h"
#include "src/base/logging.h"
#include "src/base/telemetry/trace.h"
#include "src/base/units.h"

namespace vmm {

Rootkernel::Rootkernel(hw::Machine& machine, const RootkernelConfig& config, hw::Hpa guest_limit)
    : machine_(&machine),
      config_(config),
      guest_limit_(guest_limit),
      frames_(guest_limit, config.reserved_bytes) {
  sb::telemetry::Registry& reg = machine.telemetry();
  metrics_.cpuid_exits = &reg.GetCounter("vmm.exits.cpuid");
  metrics_.vmcall_exits = &reg.GetCounter("vmm.exits.vmcall");
  metrics_.ept_violation_exits = &reg.GetCounter("vmm.exits.ept_violation");
  metrics_.exec_violation_exits = &reg.GetCounter("vmm.exits.exec_violation");
  metrics_.vmfunc_invalid_exits = &reg.GetCounter("vmm.exits.vmfunc_invalid");
  metrics_.epts_created = &reg.GetCounter("vmm.ept.created");
  metrics_.identity_remaps = &reg.GetCounter("vmm.ept.identity_remaps");
  metrics_.aborts = &reg.GetCounter("vmm.aborts");
  metrics_.ept_pages = &reg.GetGauge("vmm.ept.pages");
}

Rootkernel::~Rootkernel() {
  // Detach from the machine so stale exits don't reach a dead object.
  machine_->SetVmExitHandler(nullptr);
  for (int i = 0; i < machine_->num_cores(); ++i) {
    if (machine_->core(i).in_nonroot()) {
      machine_->core(i).LeaveNonRoot();
    }
  }
}

sb::StatusOr<std::unique_ptr<Rootkernel>> Rootkernel::Boot(hw::Machine& machine,
                                                           const RootkernelConfig& config) {
  if (config.reserved_bytes >= machine.mem().size()) {
    return sb::InvalidArgument("reserved region exceeds RAM");
  }
  const hw::Hpa guest_limit = machine.mem().size() - config.reserved_bytes;
  std::unique_ptr<Rootkernel> rk(new Rootkernel(machine, config, guest_limit));

  // Build the base EPT for the Subkernel.
  SB_ASSIGN_OR_RETURN(auto base, hw::Ept::Create(machine.mem(), rk->frames_));
  if (!config.lazy_base_ept) {
    // Map every guest-visible byte eagerly so no EPT violation can occur:
    // huge pages where they fit, stepping down at the reserved-region
    // boundary. The reserved slice itself stays unmapped — the guest cannot
    // touch the Rootkernel's memory.
    hw::Gpa gpa = 0;
    while (gpa < guest_limit) {
      uint64_t size = sb::kPageSize;
      for (const uint64_t candidate : {config.base_ept_page_size, sb::kHugePage2M}) {
        if (candidate > size && (gpa % candidate) == 0 && gpa + candidate <= guest_limit) {
          size = candidate;
          break;
        }
      }
      SB_RETURN_IF_ERROR(base->Map(gpa, gpa, size, hw::kEptRwx));
      gpa += size;
    }
  }
  rk->base_ept_ = base.get();
  rk->epts_.push_back(std::move(base));

  // Install exit handling and downgrade all cores (self-virtualization).
  Rootkernel* raw = rk.get();
  machine.SetVmExitHandler([raw](hw::Core& core, const hw::VmExitInfo& info) -> uint64_t {
    return raw->HandleExit(core, info);
  });
  for (int i = 0; i < machine.num_cores(); ++i) {
    machine.core(i).EnterNonRoot(raw->base_ept_, /*vpid=*/static_cast<uint16_t>(i + 1));
  }
  return rk;
}

hw::Ept* Rootkernel::ept(uint64_t ept_id) {
  if (ept_id >= epts_.size()) {
    return nullptr;
  }
  return epts_[ept_id].get();
}

sb::StatusOr<uint64_t> Rootkernel::CreateProcessEpt() {
  SB_ASSIGN_OR_RETURN(auto copy, base_ept_->ShallowCopy());
  epts_.push_back(std::move(copy));
  metrics_.epts_created->Add();
  metrics_.ept_pages->Set(frames_.allocated_frames());
  return epts_.size() - 1;
}

sb::StatusOr<uint64_t> Rootkernel::CreateBindingEpt(hw::Gpa client_cr3, hw::Gpa server_cr3) {
  if (SB_FAULT_POINT(kFaultBindingEptRefused)) {
    return sb::ResourceExhausted("rootkernel EPT pool exhausted (injected)");
  }
  if (!sb::IsPageAligned(client_cr3) || !sb::IsPageAligned(server_cr3)) {
    return sb::InvalidArgument("CR3 values must be page aligned");
  }
  if (client_cr3 >= guest_limit_ || server_cr3 >= guest_limit_) {
    return sb::OutOfRange("CR3 outside guest memory");
  }
  SB_ASSIGN_OR_RETURN(auto copy, base_ept_->ShallowCopy());
  // The core remap: in this (server-view) EPT, the GPA of the client's page
  // table root translates to the HPA of the server's page table root.
  SB_RETURN_IF_ERROR(copy->RemapGpaPage(client_cr3, server_cr3));
  epts_.push_back(std::move(copy));
  metrics_.epts_created->Add();
  metrics_.ept_pages->Set(frames_.allocated_frames());
  SB_TRACE_EVENT(machine_->core(0), sb::telemetry::TraceEventType::kEptInstall,
                 epts_.size() - 1, 0);
  return epts_.size() - 1;
}

sb::Status Rootkernel::RemapIdentityPage(uint64_t ept_id, hw::Gpa identity_gpa,
                                         hw::Hpa target) {
  hw::Ept* e = ept(ept_id);
  if (e == nullptr) {
    return sb::NotFound("no such EPT");
  }
  metrics_.identity_remaps->Add();
  return e->RemapGpaPage(identity_gpa, target);
}

sb::Status Rootkernel::AddCr3Remap(uint64_t ept_id, hw::Gpa cr3_gpa, hw::Gpa target_cr3) {
  // Same refusal point as CreateBindingEpt: under binding consolidation the
  // per-client slow-path hypercall is this remap, not a fresh EPT copy.
  if (SB_FAULT_POINT(kFaultBindingEptRefused)) {
    return sb::ResourceExhausted("rootkernel EPT pool exhausted (injected)");
  }
  hw::Ept* e = ept(ept_id);
  if (e == nullptr) {
    return sb::NotFound("no such EPT");
  }
  if (ept_id == 0) {
    return sb::InvalidArgument("cannot remap CR3 pages inside the base EPT");
  }
  if (!sb::IsPageAligned(cr3_gpa) || !sb::IsPageAligned(target_cr3)) {
    return sb::InvalidArgument("CR3 values must be page aligned");
  }
  if (cr3_gpa >= guest_limit_ || target_cr3 >= guest_limit_) {
    return sb::OutOfRange("CR3 outside guest memory");
  }
  metrics_.identity_remaps->Add();
  return e->RemapGpaPage(cr3_gpa, target_cr3);
}

sb::Status Rootkernel::ProtectGpaExec(uint64_t ept_id, hw::Gpa page_gpa, bool exec) {
  hw::Ept* e = ept(ept_id);
  if (e == nullptr) {
    return sb::NotFound("no such EPT");
  }
  if (ept_id == 0) {
    return sb::InvalidArgument("cannot change exec permissions inside the base EPT");
  }
  if (!sb::IsPageAligned(page_gpa)) {
    return sb::InvalidArgument("exec-protected page must be page aligned");
  }
  if (page_gpa >= guest_limit_) {
    return sb::OutOfRange("exec-protected page outside guest memory");
  }
  return e->SetGpaPageExec(page_gpa, exec);
}

uint64_t Rootkernel::HandleExit(hw::Core& core, const hw::VmExitInfo& info) {
  switch (info.reason) {
    case hw::VmExitReason::kCpuid:
      metrics_.cpuid_exits->Add();
      return 0;
    case hw::VmExitReason::kVmcall:
      metrics_.vmcall_exits->Add();
      SB_TRACE_EVENT(core, sb::telemetry::TraceEventType::kVmcall, info.qualification, 0);
      return HandleVmcall(core, info);
    case hw::VmExitReason::kEptViolation:
      metrics_.ept_violation_exits->Add();
      return HandleEptViolation(core, info);
    case hw::VmExitReason::kEptExecViolation:
      metrics_.exec_violation_exits->Add();
      if (!exec_violation_handler_) {
        return kHypercallError;
      }
      return exec_violation_handler_(core, info.qualification);
    case hw::VmExitReason::kVmfuncInvalid:
      // A malformed VMFUNC from a guest: treated as a guest error; the
      // Rootkernel refuses to switch and resumes the guest.
      metrics_.vmfunc_invalid_exits->Add();
      return kHypercallError;
    default:
      SB_CHECK(false) << "unhandled VM exit reason";
      return kHypercallError;
  }
}

uint64_t Rootkernel::HandleVmcall(hw::Core& core, const hw::VmExitInfo& info) {
  switch (static_cast<Hypercall>(info.qualification)) {
    case Hypercall::kCreateProcessEpt: {
      auto id = CreateProcessEpt();
      return id.ok() ? *id : kHypercallError;
    }
    case Hypercall::kCreateBindingEpt: {
      auto id = CreateBindingEpt(info.arg1, info.arg2);
      return id.ok() ? *id : kHypercallError;
    }
    case Hypercall::kRemapIdentityPage: {
      return RemapIdentityPage(info.arg1, info.arg2, info.arg3).ok() ? 0 : kHypercallError;
    }
    case Hypercall::kEptpListClear: {
      core.vmcs().eptp_list.clear();
      core.vmcs().active_index = 0;
      return 0;
    }
    case Hypercall::kEptpListAppend: {
      hw::Ept* e = ept(info.arg1);
      if (e == nullptr || core.vmcs().eptp_list.size() >= hw::kEptpListCapacity) {
        return kHypercallError;
      }
      core.vmcs().eptp_list.push_back(e);
      return core.vmcs().eptp_list.size() - 1;
    }
    case Hypercall::kEptpListReplace: {
      const size_t slot = static_cast<size_t>(info.arg1);
      hw::Ept* e = ept(info.arg2);
      if (e == nullptr || slot >= core.vmcs().eptp_list.size() ||
          slot == core.vmcs().active_index) {
        return kHypercallError;
      }
      core.vmcs().eptp_list[slot] = e;
      return slot;
    }
    case Hypercall::kAddCr3Remap: {
      return AddCr3Remap(info.arg1, info.arg2, info.arg3).ok() ? 0 : kHypercallError;
    }
    case Hypercall::kProtectGpaExec: {
      return ProtectGpaExec(info.arg1, info.arg2, info.arg3 != 0).ok() ? 0 : kHypercallError;
    }
    case Hypercall::kAbortToView: {
      if (info.arg1 >= core.vmcs().eptp_list.size()) {
        return kHypercallError;
      }
      core.vmcs().active_index = static_cast<size_t>(info.arg1);
      metrics_.aborts->Add();
      return 0;
    }
    case Hypercall::kPing:
      return kPingValue;
  }
  return kHypercallError;
}

uint64_t Rootkernel::HandleEptViolation(hw::Core& core, const hw::VmExitInfo& info) {
  if (!config_.lazy_base_ept) {
    // With the eager 1 GiB base EPT this cannot happen for guest memory.
    SB_LOG(kWarning) << "unexpected EPT violation at GPA 0x" << std::hex << info.qualification;
    return kHypercallError;
  }
  const hw::Gpa gpa = sb::PageDown(info.qualification);
  if (gpa >= guest_limit_) {
    return kHypercallError;
  }
  hw::Ept* active = core.vmcs().active_ept();
  SB_CHECK(active != nullptr);
  const sb::Status status = active->Map(gpa, gpa, sb::kPageSize, hw::kEptRwx);
  return status.ok() ? 0 : kHypercallError;
}

}  // namespace vmm
