#include "src/mk/kernel.h"

#include "src/base/logging.h"
#include "src/base/telemetry/trace.h"
#include "src/base/units.h"
#include "src/mk/notification.h"
#include "src/mk/scheduler.h"

namespace mk {
namespace {

// Guest memory below this is the kernel image/data region; process frames
// come from above it.
constexpr hw::Hpa kGuestPoolBase = 16 * sb::kMiB;

// Sizes of the kernel image's code and data mappings.
constexpr uint64_t kKernelCodeBytes = 2 * sb::kMiB;
constexpr uint64_t kKernelDataBytes = 4 * sb::kMiB;

using sb::telemetry::TraceEventType;

}  // namespace

Kernel::Kernel(hw::Machine& machine, KernelProfile profile, KernelOptions options)
    : machine_(&machine),
      profile_(std::move(profile)),
      options_(options),
      guest_frames_(kGuestPoolBase,
                    machine.mem().size() - kGuestPoolBase -
                        (options.boot_rootkernel ? options.rootkernel_config.reserved_bytes : 0)),
      current_(static_cast<size_t>(machine.num_cores()), nullptr) {
  // Warm-cache cost of the per-leg kernel touches (IPC footprint + the entry
  // stub's 7 lines); subtracted from the calibrated fastpath logic constant
  // so the measured totals land on Figure 7 instead of double counting.
  const uint64_t lines =
      profile_.kernel_code_footprint / 64 + profile_.kernel_data_footprint / 64 + 7;
  warm_footprint_cycles_ = lines * machine.costs().l1_hit;

  sb::telemetry::Registry& reg = machine.telemetry();
  metrics_.ipc_calls = &reg.GetCounter("mk.ipc.calls");
  metrics_.cross_core_calls = &reg.GetCounter("mk.ipc.cross_core_calls");
  metrics_.fastpath_legs = &reg.GetCounter("mk.ipc.fastpath_legs");
  metrics_.slowpath_legs = &reg.GetCounter("mk.ipc.slowpath_legs");
  metrics_.syscall_entries = &reg.GetCounter("mk.syscall.entries");
  metrics_.context_switches = &reg.GetCounter("mk.sched.context_switches");
}

Kernel::~Kernel() = default;

sb::Status Kernel::Boot() {
  SB_CHECK(!booted_);
  SB_RETURN_IF_ERROR(SetupKernelAddressSpace());

  if (options_.boot_rootkernel) {
    // Dynamic self-virtualization: the Subkernel boots the Rootkernel, which
    // downgrades it to non-root mode (the paper's one-line boot hook).
    SB_ASSIGN_OR_RETURN(rootkernel_, vmm::Rootkernel::Boot(*machine_, options_.rootkernel_config));
    // Sanity ping through the VMCALL interface.
    if (machine_->core(0).Vmcall(static_cast<uint64_t>(vmm::Hypercall::kPing)) !=
        vmm::kPingValue) {
      return sb::Internal("rootkernel VMCALL interface not responding");
    }
  }

  // Every core starts with the kernel address space.
  for (int i = 0; i < machine_->num_cores(); ++i) {
    machine_->core(i).WriteCr3(kernel_as_->root_gpa(), /*pcid=*/0, /*noflush=*/false);
    machine_->core(i).SetMode(hw::CpuMode::kKernel);
  }
  booted_ = true;
  return sb::OkStatus();
}

sb::Status Kernel::SetupKernelAddressSpace() {
  SB_ASSIGN_OR_RETURN(kernel_as_, hw::AddressSpace::Create(machine_->mem(), guest_frames_, 0));
  hw::PageFlags kflags;
  kflags.user = false;
  kflags.global = !profile_.kpti;
  SB_RETURN_IF_ERROR(kernel_as_->MapAnonymous(kKernelCodeVa, kKernelCodeBytes, kflags).status());
  SB_RETURN_IF_ERROR(kernel_as_->MapAnonymous(kKernelDataVa, kKernelDataBytes, kflags).status());

  // The shared identity GPA page: one fixed guest-physical page whose EPT
  // translation is remapped per process (Section 4.2).
  SB_ASSIGN_OR_RETURN(identity_gpa_, guest_frames_.Alloc(machine_->mem()));
  return sb::OkStatus();
}

sb::StatusOr<Process*> Kernel::CreateProcess(const std::string& name) {
  // Default image: a small, real program (prologue + arithmetic + ret).
  std::vector<uint8_t> image = {0x55, 0x48, 0x89, 0xe5, 0x48, 0xc7, 0xc0, 0x2a,
                                0x00, 0x00, 0x00, 0x5d, 0xc3};
  return CreateProcessWithImage(name, std::move(image));
}

sb::StatusOr<Process*> Kernel::CreateProcessWithImage(const std::string& name,
                                                      std::vector<uint8_t> code_image) {
  SB_CHECK(booted_) << "CreateProcess before Boot";
  if (code_image.size() > kCodeSize) {
    return sb::InvalidArgument("code image larger than the code window");
  }
  auto process = std::make_unique<Process>(this, next_pid_++, name);
  Process* p = process.get();

  const uint16_t pcid = static_cast<uint16_t>(p->pid() % 4094 + 1);
  SB_ASSIGN_OR_RETURN(p->address_space_,
                      hw::AddressSpace::Create(machine_->mem(), guest_frames_, pcid));
  SB_RETURN_IF_ERROR(p->address_space_->ShareUpperHalf(*kernel_as_));

  // Code (user-executable, read-only after the image is written).
  hw::PageFlags code_flags;
  code_flags.writable = false;
  SB_RETURN_IF_ERROR(
      p->address_space_->MapAnonymous(kCodeVa, kCodeSize, code_flags).status());
  p->WriteCode(code_image);

  // Heap and stack.
  p->heap_limit_ = options_.process_heap_bytes;
  SB_RETURN_IF_ERROR(
      p->address_space_->MapAnonymous(kHeapVa, options_.process_heap_bytes, hw::PageFlags{})
          .status());
  SB_RETURN_IF_ERROR(
      p->address_space_->MapAnonymous(kStackTopVa - kStackSize, kStackSize, hw::PageFlags{})
          .status());

  // Identity: the shared identity VA maps the shared identity GPA; each
  // process gets its own identity frame holding its pid, swapped in by the
  // per-process EPT.
  hw::PageFlags id_flags;
  id_flags.writable = false;
  SB_RETURN_IF_ERROR(p->address_space_->MapRange(kIdentityVa, identity_gpa_, sb::kPageSize,
                                                 id_flags));
  SB_ASSIGN_OR_RETURN(const hw::Hpa id_frame, guest_frames_.Alloc(machine_->mem()));
  machine_->mem().WriteU64(id_frame, p->pid());
  p->set_identity_frame(id_frame);

  if (rootkernel_ != nullptr) {
    // Process creation hook: derive the process's EPT and swap its identity
    // frame in (both via the VMCALL interface, so exits are accounted).
    hw::Core& core = machine_->core(0);
    const uint64_t ept_id =
        core.Vmcall(static_cast<uint64_t>(vmm::Hypercall::kCreateProcessEpt));
    if (ept_id == vmm::kHypercallError) {
      return sb::Internal("rootkernel failed to create process EPT");
    }
    if (core.Vmcall(static_cast<uint64_t>(vmm::Hypercall::kRemapIdentityPage), ept_id,
                    identity_gpa_, id_frame) != 0) {
      return sb::Internal("rootkernel failed to remap identity page");
    }
    p->set_ept_id(ept_id);
  }

  processes_.push_back(std::move(process));
  return p;
}

sb::StatusOr<Endpoint*> Kernel::CreateEndpoint(Process* owner, Handler handler,
                                               std::vector<int> server_cores) {
  auto ep = std::make_unique<Endpoint>(endpoints_.size(), owner, std::move(handler));
  // Receive buffer for long messages, in the owner's heap.
  SB_ASSIGN_OR_RETURN(const hw::Gva recv, owner->AllocHeap(64 * sb::kKiB, sb::kPageSize));
  ep->set_recv_buffer(recv);
  ep->set_server_cores(std::move(server_cores));
  endpoints_.push_back(std::move(ep));
  // The owner implicitly holds a receive capability.
  owner->InstallCap(Capability{CapType::kEndpoint, endpoints_.back()->id(), kRightRecv});
  return endpoints_.back().get();
}

Endpoint* Kernel::endpoint(uint64_t id) {
  if (id >= endpoints_.size()) {
    return nullptr;
  }
  return endpoints_[id].get();
}

Notification* Kernel::CreateNotification() {
  notifications_.push_back(std::make_unique<Notification>(this, notifications_.size()));
  return notifications_.back().get();
}

sb::StatusOr<CapSlot> Kernel::GrantEndpointCap(Process* to, uint64_t endpoint_id,
                                               uint32_t rights) {
  if (endpoint(endpoint_id) == nullptr) {
    return sb::NotFound("no such endpoint");
  }
  return to->InstallCap(Capability{CapType::kEndpoint, endpoint_id, rights});
}

sb::Status Kernel::ContextSwitchTo(hw::Core& core, Process* process) {
  return ContextSwitchInternal(core, process, EptpInstallReason::kDispatch);
}

sb::Status Kernel::ContextSwitchInternal(hw::Core& core, Process* process,
                                         EptpInstallReason reason) {
  SwitchAddressSpace(core, process);
  current_[static_cast<size_t>(core.id())] = process;
  if (rootkernel_ != nullptr) {
    if (eptp_installer_) {
      // Delegated install (DESIGN.md section 15): the slot-virtualization
      // layer makes the process's view resident in its per-core working set
      // instead of reprogramming the whole list.
      SB_RETURN_IF_ERROR(eptp_installer_(core, process, reason));
    } else {
      // No SkyBridge: the list holds just the process's own EPT (Section
      // 4.2). VMCALLs to the Rootkernel, charged as real VM exits.
      if (core.Vmcall(static_cast<uint64_t>(vmm::Hypercall::kEptpListClear)) != 0) {
        return sb::Internal("EPTP list clear failed");
      }
      if (core.Vmcall(static_cast<uint64_t>(vmm::Hypercall::kEptpListAppend),
                      process->ept_id()) == vmm::kHypercallError) {
        return sb::Internal("EPTP list append failed");
      }
      core.vmcs().active_index = 0;
    }
  }
  return sb::OkStatus();
}

sb::Status Kernel::MigrateThread(Thread* thread, int dest_core, bool eager_install) {
  if (thread == nullptr) {
    return sb::InvalidArgument("no thread to migrate");
  }
  if (dest_core < 0 || dest_core >= machine_->num_cores()) {
    return sb::InvalidArgument("destination core out of range");
  }
  if (thread->core_id() == dest_core) {
    return sb::OkStatus();
  }
  thread->set_core_id(dest_core);
  if (!eager_install) {
    // Lazy mode: the next call finds the destination core running another
    // process (dispatch switch) or a stale EPTP slot (retry fallback) and
    // recovers there.
    return sb::OkStatus();
  }
  // Eager mode: dispatch the process on the destination core now, so its
  // EPTP list is installed before the first post-migration call.
  if (current_process(dest_core) == thread->process()) {
    return sb::OkStatus();  // Already live (and installed) on the destination.
  }
  hw::Core& core = machine_->core(dest_core);
  return ContextSwitchInternal(core, thread->process(), EptpInstallReason::kMigration);
}

void Kernel::RegisterScheduler(int core_id, Scheduler* scheduler) {
  if (core_id < 0) {
    return;
  }
  if (schedulers_.size() <= static_cast<size_t>(core_id)) {
    schedulers_.resize(static_cast<size_t>(core_id) + 1, nullptr);
  }
  schedulers_[static_cast<size_t>(core_id)] = scheduler;
}

void Kernel::UnregisterScheduler(int core_id, Scheduler* scheduler) {
  if (core_id < 0 || schedulers_.size() <= static_cast<size_t>(core_id)) {
    return;
  }
  if (schedulers_[static_cast<size_t>(core_id)] == scheduler) {
    schedulers_[static_cast<size_t>(core_id)] = nullptr;
  }
}

mk::Scheduler* Kernel::scheduler(int core_id) const {
  if (core_id < 0 || schedulers_.size() <= static_cast<size_t>(core_id)) {
    return nullptr;
  }
  return schedulers_[static_cast<size_t>(core_id)];
}

void Kernel::FinishAbortedCall(hw::Core& core, Thread* caller) {
  // The unwind runs on the kernel path: entry, make the caller runnable
  // again (its synchronous call will never return normally), exit.
  SyscallEnter(core);
  if (Scheduler* sched = scheduler(core.id()); sched != nullptr) {
    sched->UnblockAborted(caller, /*priority=*/0);
  }
  SyscallExit(core);
}

sb::StatusOr<uint64_t> Kernel::CurrentIdentity(hw::Core& core) {
  return core.ReadVirtU64(kIdentityVa);
}

sb::Status Kernel::RaiseExecFault(hw::Core& core, hw::Gpa gpa) {
  hw::VmExitInfo info;
  info.reason = hw::VmExitReason::kEptExecViolation;
  info.qualification = gpa;
  const uint64_t result = machine_->DeliverVmExit(core, info);
  if (result == vmm::kHypercallError) {
    return sb::Unavailable("exec fault unresolved");
  }
  return sb::OkStatus();
}

void Kernel::SetExecFaultHandler(ExecFaultHandler handler) {
  if (rootkernel_ == nullptr) {
    return;
  }
  if (!handler) {
    rootkernel_->SetExecViolationHandler(nullptr);
    return;
  }
  rootkernel_->SetExecViolationHandler(
      [h = std::move(handler)](hw::Core& core, hw::Gpa gpa) -> uint64_t {
        return h(core, gpa).ok() ? 0 : vmm::kHypercallError;
      });
}

void Kernel::SyscallEnter(hw::Core& core) {
  metrics_.syscall_entries->Add();
  SB_TRACE_EVENT(TraceEventType::kSyscallEnter, core.cycles(), core.id());
  const hw::CostModel& cm = machine_->costs();
  hw::CycleScope scope(core, hw::Bucket::kSyscall);
  core.AdvanceCycles(cm.syscall_insn + cm.swapgs_insn);
  core.SetMode(hw::CpuMode::kKernel);
  ++core.pmu().syscalls;
  TouchKernelEntry(core);
  if (profile_.kpti) {
    // Meltdown mitigation: switch to the kernel's page tables.
    core.WriteCr3(kernel_as_->root_gpa(), 0, profile_.pcid_enabled);
  }
}

void Kernel::SyscallExit(hw::Core& core) {
  const hw::CostModel& cm = machine_->costs();
  if (profile_.kpti) {
    Process* cur = current_[static_cast<size_t>(core.id())];
    const hw::Gpa user_root = cur != nullptr ? cur->cr3() : kernel_as_->root_gpa();
    const uint16_t user_pcid =
        cur != nullptr && profile_.pcid_enabled ? cur->pcid() : 0;
    core.WriteCr3(user_root, user_pcid, profile_.pcid_enabled);
  }
  core.AdvanceCycles(cm.swapgs_insn + cm.sysret_insn, hw::Bucket::kSyscall);
  core.SetMode(hw::CpuMode::kUser);
  SB_TRACE_EVENT(TraceEventType::kSyscallExit, core.cycles(), core.id());
}

void Kernel::NoOpSyscall(hw::Core& core) {
  // The measured composite (Table 2) is cheaper than the sum of the isolated
  // instruction costs because the pipeline overlaps them; charge the
  // composite directly.
  const hw::CostModel& cm = machine_->costs();
  core.AdvanceCycles(profile_.kpti ? cm.noop_syscall_kpti : cm.noop_syscall);
  ++core.pmu().syscalls;
  TouchKernelEntry(core);
}

void Kernel::SwitchAddressSpace(hw::Core& core, Process* to) {
  metrics_.context_switches->Add();
  SB_TRACE_EVENT(TraceEventType::kContextSwitch, core.cycles(), core.id(), to->pid());
  // Without PCID all address spaces share tag 0 and every CR3 write flushes
  // the non-global TLB entries — the paper's seL4 v10 behaviour and the
  // source of Table 1's indirect dTLB cost.
  const uint16_t pcid = profile_.pcid_enabled ? to->pcid() : 0;
  core.WriteCr3(to->cr3(), pcid, profile_.pcid_enabled);
}

void Kernel::TouchKernelEntry(hw::Core& core) {
  // Entry stub + per-cpu kernel stack lines.
  (void)core.FetchCode(kKernelCodeVa, 256);
  (void)core.TouchData(kKernelDataVa + static_cast<uint64_t>(core.id()) * 4096, 192, true);
}

void Kernel::ChargeIpcLogic(hw::Core& core, bool fastpath) {
  (fastpath ? metrics_.fastpath_legs : metrics_.slowpath_legs)->Add();
  const uint64_t constant =
      fastpath ? profile_.fastpath_logic_cycles : profile_.slowpath_logic_cycles;
  const uint64_t charged = constant > warm_footprint_cycles_ && fastpath
                               ? constant - warm_footprint_cycles_
                               : constant;
  hw::CycleScope scope(core, hw::Bucket::kOthers);
  core.AdvanceCycles(charged);
  if (fastpath) {
    // The IPC path's code and the endpoint/thread structures it walks; these
    // touches produce the indirect cache/TLB costs of Table 1.
    (void)core.FetchCode(kKernelCodeVa + 4096, profile_.kernel_code_footprint);
    (void)core.TouchData(kKernelDataVa + 64 * 1024, profile_.kernel_data_footprint, true);
  }
}

void Kernel::ChargeCopies(hw::Core& core, const Message& msg, int copies) {
  if (copies <= 0) {
    return;
  }
  const uint64_t per_copy =
      profile_.copy_fixed_cycles + msg.size() / 16;  // ~16 bytes/cycle.
  hw::CycleScope scope(core, hw::Bucket::kCopy);
  for (int i = 0; i < copies; ++i) {
    core.AdvanceCycles(per_copy);
    if (msg.size() > 0) {
      // Kernel bounce buffer traffic.
      (void)core.TouchData(kKernelDataVa + 128 * 1024, msg.size(), true);
    }
  }
}

sb::StatusOr<Message> Kernel::ServeLocal(hw::Core& core, Endpoint& ep, Process* caller_proc,
                                         const Message& msg) {
  const bool fits = msg.size() <= profile_.register_msg_capacity;

  // ---- Request leg ----
  SyscallEnter(core);
  if (msg.has_cap_grant) {
    // Capability transfer: validate the caller's authority, mint the new
    // capability into the receiver, and pay the slowpath (the fastpath
    // precondition "no capabilities are transferred" fails).
    bool authorized = false;
    for (CapSlot s = 0; s < caller_proc->cap_count(); ++s) {
      const Capability* held = caller_proc->LookupCap(s);
      if (held != nullptr && held->type == CapType::kEndpoint &&
          held->object == msg.grant_endpoint && (held->rights & kRightGrant) != 0) {
        authorized = true;
        break;
      }
    }
    ChargeIpcLogic(core, /*fastpath=*/false);
    if (!authorized) {
      SyscallExit(core);
      return sb::PermissionDenied("caller lacks grant right on transferred cap");
    }
    last_granted_slot_ = ep.owner()->InstallCap(
        Capability{CapType::kEndpoint, msg.grant_endpoint, msg.grant_rights});
  }
  // The local path always runs the kernel's common IPC logic; the slowpath
  // constant models the cross-core degeneration only.
  ChargeIpcLogic(core, /*fastpath=*/true);
  ChargeCopies(core, msg, fits ? profile_.copies_per_transfer : profile_.copies_long_transfer);
  if (profile_.schedule_cycles > 0) {
    // No-fastpath kernels (Zircon) enter the scheduler on every transfer.
    core.AdvanceCycles(profile_.schedule_cycles, hw::Bucket::kSchedule);
  }
  SwitchAddressSpace(core, ep.owner());
  current_[static_cast<size_t>(core.id())] = ep.owner();
  if (!fits) {
    // Deliver the long message into the endpoint's receive buffer.
    SB_RETURN_IF_ERROR(core.WriteVirt(ep.recv_buffer(), msg.payload()));
  }
  SyscallExit(core);

  // ---- Server handler (user mode, server address space) ----
  CallEnv env{*this, core, *ep.owner(), msg};
  Message reply = ep.handler()(env);

  // ---- Reply leg ----
  SyscallEnter(core);
  ChargeIpcLogic(core, /*fastpath=*/true);
  ChargeCopies(core, reply,
               reply.size() <= profile_.register_msg_capacity ? profile_.copies_per_transfer
                                                              : profile_.copies_long_transfer);
  if (profile_.schedule_cycles > 0) {
    core.AdvanceCycles(profile_.schedule_cycles, hw::Bucket::kSchedule);
  }
  SwitchAddressSpace(core, caller_proc);
  current_[static_cast<size_t>(core.id())] = caller_proc;
  SyscallExit(core);
  return reply;
}

sb::StatusOr<Message> Kernel::ServeCrossCore(hw::Core& caller_core, Endpoint& ep,
                                             int server_core_id, Process* caller_proc,
                                             const Message& msg) {
  metrics_.cross_core_calls->Add();
  const hw::CostModel& cm = machine_->costs();
  hw::Core& server_core = machine_->core(server_core_id);

  // Caller side: trap, slowpath send, IPI to the server core, block.
  SyscallEnter(caller_core);
  ChargeIpcLogic(caller_core, /*fastpath=*/false);
  const bool fits = msg.size() <= profile_.register_msg_capacity;
  ChargeCopies(caller_core, msg,
               fits ? std::max(profile_.copies_per_transfer, 1) : profile_.copies_long_transfer);
  machine_->SendIpi(caller_core.id(), server_core_id);
  const uint64_t arrival = caller_core.cycles() + cm.ipi;

  // Server side: FIFO-serialized on the endpoint, runs on the server core.
  const uint64_t service_start = ep.service().Acquire(arrival);
  server_core.SyncClockTo(service_start);
  server_core.AdvanceCycles(profile_.cross_schedule_cycles, hw::Bucket::kSchedule);
  ChargeIpcLogic(server_core, /*fastpath=*/false);
  if (current_[static_cast<size_t>(server_core_id)] != ep.owner()) {
    SwitchAddressSpace(server_core, ep.owner());
    current_[static_cast<size_t>(server_core_id)] = ep.owner();
  }
  if (!fits) {
    SB_RETURN_IF_ERROR(server_core.WriteVirt(ep.recv_buffer(), msg.payload()));
  }
  // Receive-side mode switch (the server thread returns from its recv call
  // and re-enters the kernel to reply).
  server_core.AdvanceCycles(cm.syscall_insn + 2 * cm.swapgs_insn + cm.sysret_insn,
                            hw::Bucket::kSyscall);
  CallEnv env{*this, server_core, *ep.owner(), msg};
  Message reply = ep.handler()(env);
  ChargeCopies(server_core, reply,
               reply.size() <= profile_.register_msg_capacity
                   ? std::max(profile_.copies_per_transfer, 1)
                   : profile_.copies_long_transfer);
  const uint64_t service_end = server_core.cycles();
  ep.service().Release(service_end);

  // Reply IPI back to the caller.
  machine_->SendIpi(server_core_id, caller_core.id());
  caller_core.SyncClockTo(service_end + cm.ipi);
  SyscallExit(caller_core);
  return reply;
}

sb::StatusOr<Message> Kernel::IpcCall(Thread* caller, CapSlot cap_slot, const Message& msg) {
  SB_CHECK(caller != nullptr);
  Process* caller_proc = caller->process();
  const Capability* cap = caller_proc->LookupCap(cap_slot);
  if (cap == nullptr || cap->type != CapType::kEndpoint) {
    return sb::InvalidArgument("bad endpoint capability");
  }
  if ((cap->rights & kRightCall) == 0) {
    return sb::PermissionDenied("capability lacks call right");
  }
  Endpoint* ep = endpoint(cap->object);
  SB_CHECK(ep != nullptr);
  ep->count_call();
  metrics_.ipc_calls->Add();

  hw::Core& core = machine_->core(caller->core_id());
  // Local service if a server thread lives on the caller's core.
  const std::vector<int>& cores = ep->server_cores();
  const bool local = cores.empty() ||
                     std::find(cores.begin(), cores.end(), caller->core_id()) != cores.end();
  if (local) {
    return ServeLocal(core, *ep, caller_proc, msg);
  }
  const int server_core = cores[static_cast<size_t>(caller->core_id()) % cores.size()];
  return ServeCrossCore(core, *ep, server_core, caller_proc, msg);
}

}  // namespace mk
