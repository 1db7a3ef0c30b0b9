// The Subkernel: the microkernel the benchmarks run on.
//
// One framework, three personalities (KernelProfile). It owns guest physical
// memory, the kernel address space (shared into every process's upper half),
// process/thread/capability management, endpoints, and the synchronous IPC
// path whose direct costs reproduce Section 2.1:
//
//   one-way IPC = SYSCALL + SWAPGS            (mode switch in)
//               + [KPTI CR3 switch]
//               + IPC logic                   (fastpath checks, caps, drq...)
//               + message copies              (per personality)
//               + [scheduler]                 (personality/slowpath)
//               + CR3 switch to the target    (address space switch)
//               + SWAPGS + SYSRET             (mode switch out)
//
// Cross-core IPC degenerates to the slowpath: the request is IPI'd to the
// server's core, serialized on the endpoint (FIFO in virtual time), handled
// there, and IPI'd back.
//
// When `boot_rootkernel` is set the kernel self-virtualizes at boot (one
// call into the Rootkernel, Section 4.2) and process creation additionally
// creates a per-process EPT; context switches install the process's EPTP
// list via VMCALL.

#ifndef SRC_MK_KERNEL_H_
#define SRC_MK_KERNEL_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/base/status.h"
#include "src/hw/machine.h"
#include "src/mk/message.h"
#include "src/mk/process.h"
#include "src/mk/profile.h"
#include "src/sim/executor.h"
#include "src/vmm/rootkernel.h"

namespace mk {

class Kernel;

// Execution environment handed to an endpoint handler. The handler runs in
// the *server's* address space on `core`; all memory access goes through the
// charged translation path.
struct CallEnv {
  CallEnv(Kernel& k, hw::Core& c, Process& s, const Message& r)
      : kernel(k), core(c), server(s), request(r) {}

  Kernel& kernel;
  hw::Core& core;
  Process& server;
  const Message& request;
  // In-place reply support (SkyBridge zero-copy long-message path): when
  // non-empty, the handler may build its reply payload directly into this
  // host view of the connection's shared-buffer slice and return
  // Message::Borrowed over the bytes it wrote — the bridge then skips the
  // reply copy. `reply_buffer_va` is the same memory's guest VA (mapped at
  // the same address in client and server). Empty for classic kernel IPC.
  std::span<uint8_t> reply_buffer;
  hw::Gva reply_buffer_va = 0;
};

using Handler = std::function<Message(CallEnv&)>;

class Endpoint {
 public:
  Endpoint(uint64_t id, Process* owner, Handler handler)
      : id_(id), owner_(owner), handler_(std::move(handler)) {}

  uint64_t id() const { return id_; }
  Process* owner() const { return owner_; }
  Handler& handler() { return handler_; }

  // Cores running a server thread for this endpoint. A call from one of
  // these cores is served locally (direct process switch); anything else is
  // a cross-core call to cores[hash].
  void set_server_cores(std::vector<int> cores) { server_cores_ = std::move(cores); }
  const std::vector<int>& server_cores() const { return server_cores_; }

  sim::FifoResource& service() { return service_; }
  hw::Gva recv_buffer() const { return recv_buffer_; }
  void set_recv_buffer(hw::Gva va) { recv_buffer_ = va; }

  uint64_t calls() const { return calls_; }
  void count_call() { ++calls_; }

 private:
  uint64_t id_;
  Process* owner_;
  Handler handler_;
  std::vector<int> server_cores_;
  sim::FifoResource service_;
  hw::Gva recv_buffer_ = 0;
  uint64_t calls_ = 0;
};

struct KernelOptions {
  bool boot_rootkernel = true;
  vmm::RootkernelConfig rootkernel_config;
  uint64_t process_heap_bytes = 8ULL * 1024 * 1024;
};

class Kernel {
 public:
  Kernel(hw::Machine& machine, KernelProfile profile, KernelOptions options = {});
  ~Kernel();

  Kernel(const Kernel&) = delete;
  Kernel& operator=(const Kernel&) = delete;

  sb::Status Boot();

  // ---- Accessors ----
  hw::Machine& machine() { return *machine_; }
  const KernelProfile& profile() const { return profile_; }
  vmm::Rootkernel* rootkernel() { return rootkernel_.get(); }
  hw::FrameAllocator& guest_frames() { return guest_frames_; }
  hw::AddressSpace& kernel_as() { return *kernel_as_; }
  hw::Gpa identity_gpa() const { return identity_gpa_; }
  const KernelOptions& options() const { return options_; }

  // ---- Processes & threads ----
  sb::StatusOr<Process*> CreateProcess(const std::string& name);
  sb::StatusOr<Process*> CreateProcessWithImage(const std::string& name,
                                                std::vector<uint8_t> code_image);
  const std::vector<std::unique_ptr<Process>>& processes() const { return processes_; }

  // ---- Endpoints & capabilities ----
  sb::StatusOr<Endpoint*> CreateEndpoint(Process* owner, Handler handler,
                                         std::vector<int> server_cores);
  Endpoint* endpoint(uint64_t id);
  sb::StatusOr<CapSlot> GrantEndpointCap(Process* to, uint64_t endpoint_id, uint32_t rights);

  // ---- Context switching ----
  // Switches `core` to `process` (CR3 write + EPTP list install when
  // virtualized). This is the scheduler's dispatch tail.
  sb::Status ContextSwitchTo(hw::Core& core, Process* process);
  Process* current_process(int core_id) const { return current_[static_cast<size_t>(core_id)]; }

  // Why an EPTP list was (re)installed on a core: the ordinary dispatch
  // tail, or an eager re-install on a thread's new core after MigrateThread.
  enum class EptpInstallReason { kDispatch, kMigration };

  // Delegated EPTP install (DESIGN.md section 15): when set, the dispatch
  // tail hands the whole list-programming step to this installer instead of
  // resetting the list to the process's own EPT — SkyBridge plugs its
  // per-core slot working set in here, so a context switch only makes the
  // process's own view resident and points the active index at it. nullptr
  // restores the reset.
  using EptpInstaller = std::function<sb::Status(hw::Core&, Process*, EptpInstallReason)>;
  void SetEptpInstaller(EptpInstaller installer) { eptp_installer_ = std::move(installer); }

  // ---- Thread migration (per-core control plane, DESIGN.md section 11) ----
  // Moves `thread` to `dest_core`. With `eager_install` (the default) the
  // scheduler hook semantics apply: the thread's process is dispatched on
  // the destination core immediately, re-installing its EPTP list there so
  // the first post-migration call pays no stale-slot recovery. With it
  // false, only the thread's core id moves — the next call recovers lazily
  // through the dispatch switch / stale-slot retry fallback.
  sb::Status MigrateThread(Thread* thread, int dest_core, bool eager_install = true);

  // ---- Abort unwind (SkyBridge crash recovery, DESIGN.md section 10) ----
  // The Subkernel's half of the abort protocol: after the Rootkernel has
  // forced the core back to the caller's EPT view and the trampoline frame
  // has been popped, the kernel completes the unwind on the syscall path.
  void FinishAbortedCall(hw::Core& core);

  // Reads the identity page (Section 4.2): which process does the hardware
  // translation context say is running? Requires the identity VA mapping.
  sb::StatusOr<uint64_t> CurrentIdentity(hw::Core& core);

  // ---- Lazy registration exec faults (DESIGN.md section 17) ----
  // Delivers an EPT exec-violation VM exit for `gpa` on `core` (charging the
  // exit round trip and the PMU counter); the Rootkernel routes it into the
  // installed exec-fault handler — SkyBridge's rewrite-on-first-execute slow
  // path. Ok when the handler made the page executable; Unavailable when the
  // fault stays unresolved (no handler, or the handler failed).
  sb::Status RaiseExecFault(hw::Core& core, hw::Gpa gpa);

  // Installs (or, with nullptr, clears) the exec-fault slow path on the
  // booted Rootkernel. The handler returns ok once the faulting page has
  // been rewritten and re-enabled for execution.
  using ExecFaultHandler = std::function<sb::Status(hw::Core&, hw::Gpa)>;
  void SetExecFaultHandler(ExecFaultHandler handler);

  // ---- The synchronous IPC path ----
  // Caller must be the current process on the caller thread's core. A
  // message carrying a capability grant (msg.has_cap_grant) is delivered via
  // the slowpath and the capability is minted into the receiver's cap space
  // (the caller must hold the grant right on it).
  sb::StatusOr<Message> IpcCall(Thread* caller, CapSlot cap_slot, const Message& msg);

  // Slot the most recent IPC-transferred capability landed in (receiver's
  // cap space); kMaxUint32 if none.
  CapSlot last_granted_slot() const { return last_granted_slot_; }

  // ---- Syscall-path primitives (also used by the SkyBridge registration
  // syscalls and by the microbenchmarks) ----
  void SyscallEnter(hw::Core& core);
  void SyscallExit(hw::Core& core);
  // SyscallEnter on construction, SyscallExit on destruction: every return
  // from a kernel-mediated path leaves the core back in user mode.
  class SyscallScope {
   public:
    SyscallScope(Kernel& kernel, hw::Core& core) : kernel_(kernel), core_(core) {
      kernel_.SyscallEnter(core_);
    }
    ~SyscallScope() { kernel_.SyscallExit(core_); }
    SyscallScope(const SyscallScope&) = delete;
    SyscallScope& operator=(const SyscallScope&) = delete;

   private:
    Kernel& kernel_;
    hw::Core& core_;
  };
  // A no-op syscall round trip, as measured in Table 2.
  void NoOpSyscall(hw::Core& core);
  void SwitchAddressSpace(hw::Core& core, Process* to);

  // Charges the kernel IPC software logic and touches kernel structures.
  void ChargeIpcLogic(hw::Core& core, bool fastpath);

 private:
  sb::Status SetupKernelAddressSpace();
  sb::Status ContextSwitchInternal(hw::Core& core, Process* process, EptpInstallReason reason);
  void TouchKernelEntry(hw::Core& core);
  void ChargeCopies(hw::Core& core, const Message& msg, int copies);
  sb::StatusOr<Message> ServeLocal(hw::Core& core, Endpoint& ep, Process* caller_proc,
                                   const Message& msg);
  sb::StatusOr<Message> ServeCrossCore(hw::Core& caller_core, Endpoint& ep, int server_core,
                                       Process* caller_proc, const Message& msg);

  hw::Machine* machine_;
  KernelProfile profile_;
  KernelOptions options_;
  std::unique_ptr<vmm::Rootkernel> rootkernel_;
  hw::FrameAllocator guest_frames_;
  std::unique_ptr<hw::AddressSpace> kernel_as_;
  hw::Gpa identity_gpa_ = 0;
  uint64_t next_pid_ = 1;
  std::vector<std::unique_ptr<Process>> processes_;
  std::vector<std::unique_ptr<Endpoint>> endpoints_;
  std::vector<Process*> current_;
  // Pre-computed warm-cache cost of the kernel footprint touches, subtracted
  // from the calibrated logic constants to avoid double counting.
  uint64_t warm_footprint_cycles_ = 0;
  // Telemetry handles on the machine's registry (mk.*), bound at
  // construction; the call paths only add.
  struct Metrics {
    sb::telemetry::Counter* ipc_calls;
    sb::telemetry::Counter* cross_core_calls;
    sb::telemetry::Counter* fastpath_legs;
    sb::telemetry::Counter* slowpath_legs;
    sb::telemetry::Counter* syscall_entries;
    sb::telemetry::Counter* context_switches;
  };
  Metrics metrics_;
  EptpInstaller eptp_installer_;
  CapSlot last_granted_slot_ = ~0u;
  bool booted_ = false;
};

}  // namespace mk

#endif  // SRC_MK_KERNEL_H_
