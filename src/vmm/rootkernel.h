// The Rootkernel: SkyBridge's tiny hypervisor (paper Section 4.1).
//
// Design points reproduced from the paper:
//  * Booted *by* the Subkernel (dynamic self-virtualization, CloudVisor
//    style): Boot() reserves a small slice of host memory (100 MiB), builds
//    one base EPT that identity-maps all remaining physical memory with 1 GiB
//    huge pages, and downgrades every core to non-root mode. The guest never
//    takes an EPT violation in steady state and the 2-D walk stays short.
//  * VMCS configured so privileged instructions (CR3 writes) and external
//    interrupts do NOT cause VM exits. The only retained handlers are CPUID,
//    VMCALL (the Subkernel interface) and EPT violations.
//  * EPT management: per-process EPTs are shallow copies of the base EPT;
//    binding a client to a server copies the server EPT and remaps the GPA
//    of the client's CR3 page to the HPA of the server's CR3 page, and the
//    identity page's GPA to the server's identity frame.

#ifndef SRC_VMM_ROOTKERNEL_H_
#define SRC_VMM_ROOTKERNEL_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "src/base/status.h"
#include "src/hw/ept.h"
#include "src/hw/machine.h"

namespace vmm {

// Hypercall codes for the VMCALL interface.
enum class Hypercall : uint64_t {
  kCreateProcessEpt = 1,    // () -> ept_id
  kCreateBindingEpt = 2,    // (client_cr3_gpa, server_cr3_gpa) -> ept_id
  kRemapIdentityPage = 3,   // (ept_id, identity_gpa, target_hpa) -> 0
  kEptpListClear = 4,       // () -> 0                (current core)
  kEptpListAppend = 5,      // (ept_id) -> slot index (current core)
  kPing = 6,                // () -> kPingValue
  // Abort protocol (DESIGN.md section 10): after a server-thread crash the
  // client is stranded in the server's EPT view; the Subkernel asks the
  // Rootkernel to force the core back to the caller's entry view. The index
  // is validated against the live EPTP list exactly like a VMFUNC operand.
  kAbortToView = 7,         // (eptp index) -> 0      (current core)
  // Slot virtualization (DESIGN.md section 15): replace one EPTP-list slot
  // in place. Unlike erase+append this never reshuffles later slots, so the
  // guest's cached indices for every other slot stay valid. The active view
  // slot cannot be replaced (the guest would be translating through a view
  // that vanishes under it).
  kEptpListReplace = 8,     // (slot, ept_id) -> slot (current core)
  // Binding consolidation: remap one more client CR3 GPA inside an existing
  // binding EPT, so N clients of one server share a single EPT instead of N
  // shallow copies. Also used in reverse (target = the client's own CR3) to
  // restore the identity translation when a consolidated client is revoked.
  kAddCr3Remap = 9,         // (ept_id, cr3_gpa, target_cr3) -> 0
  // Lazy registration (DESIGN.md section 17): set or clear the execute
  // permission on one 4 KiB GPA page of an EPT. Registration leaves code
  // pages non-executable; the first instruction fetch takes an exec
  // violation and the page is scanned/rewritten on demand.
  kProtectGpaExec = 10,     // (ept_id, page_gpa, exec 0|1) -> 0
};

inline constexpr uint64_t kPingValue = 0x5b5b5b5bULL;
inline constexpr uint64_t kHypercallError = ~0ULL;

// Fault point (src/base/faultpoint.h): the Rootkernel refuses a binding-EPT
// creation, as a resource-exhausted hypervisor would. Recovery: registration
// fails cleanly with Internal and leaves no partial binding behind.
inline constexpr const char kFaultBindingEptRefused[] = "vmm.rootkernel.binding_ept_refused";

struct RootkernelConfig {
  uint64_t reserved_bytes = 100ULL * 1024 * 1024;  // Paper: 100 MB.
  // Base-EPT page size; 1 GiB per the paper. The ablation bench sets 4 KiB
  // to measure what the huge-page design buys.
  uint64_t base_ept_page_size = sb::kHugePage1G;
  // Map base-EPT pages lazily on EPT violations instead of eagerly at boot
  // (only sensible with 4 KiB pages; used by the ablation).
  bool lazy_base_ept = false;
};

class Rootkernel {
 public:
  // Self-virtualization: called (conceptually) by the Subkernel during boot.
  static sb::StatusOr<std::unique_ptr<Rootkernel>> Boot(hw::Machine& machine,
                                                        const RootkernelConfig& config = {});

  ~Rootkernel();
  Rootkernel(const Rootkernel&) = delete;
  Rootkernel& operator=(const Rootkernel&) = delete;

  hw::Machine& machine() { return *machine_; }
  hw::Ept* base_ept() { return base_ept_; }
  // The hypervisor's private frame pool (EPT pages etc.).
  hw::FrameAllocator& frames() { return frames_; }
  // First byte of host memory reserved for the Rootkernel; the Subkernel owns
  // [0, guest_limit).
  hw::Hpa guest_limit() const { return guest_limit_; }

  // ---- Direct C++ mirror of the hypercall interface (the mk layer calls
  // these through hw::Core::Vmcall so exits are charged and counted). ----
  sb::StatusOr<uint64_t> CreateProcessEpt();
  sb::StatusOr<uint64_t> CreateBindingEpt(hw::Gpa client_cr3, hw::Gpa server_cr3);
  sb::Status RemapIdentityPage(uint64_t ept_id, hw::Gpa identity_gpa, hw::Hpa target);
  sb::Status AddCr3Remap(uint64_t ept_id, hw::Gpa cr3_gpa, hw::Gpa target_cr3);
  sb::Status ProtectGpaExec(uint64_t ept_id, hw::Gpa page_gpa, bool exec);
  hw::Ept* ept(uint64_t ept_id);
  // Number of EPTs derived so far (ids are dense, 0 = base).
  size_t ept_count() const { return epts_.size(); }

  // ---- Exec-violation delegation (lazy registration slow path) ----
  // Invoked on every kEptExecViolation exit with the faulting GPA. Returns 0
  // when the handler resolved the fault (the page is now executable and the
  // guest retries the fetch) or kHypercallError to report an unresolvable
  // fault. Unset handler == every exec violation is fatal to the access.
  using ExecViolationHandler = std::function<uint64_t(hw::Core&, hw::Gpa)>;
  void SetExecViolationHandler(ExecViolationHandler handler) {
    exec_violation_handler_ = std::move(handler);
  }

  // Rough footprint accounting: the paper's Rootkernel is ~1.5 KLoC. Ours
  // reports the number of EPT table pages it holds.
  size_t ept_pages_allocated() const { return frames_.allocated_frames(); }

 private:
  Rootkernel(hw::Machine& machine, const RootkernelConfig& config, hw::Hpa guest_limit);

  uint64_t HandleExit(hw::Core& core, const hw::VmExitInfo& info);
  uint64_t HandleVmcall(hw::Core& core, const hw::VmExitInfo& info);
  uint64_t HandleEptViolation(hw::Core& core, const hw::VmExitInfo& info);

  hw::Machine* machine_;
  RootkernelConfig config_;
  hw::Hpa guest_limit_;
  hw::FrameAllocator frames_;
  hw::Ept* base_ept_ = nullptr;
  std::vector<std::unique_ptr<hw::Ept>> epts_;  // id -> EPT (0 is the base).
  ExecViolationHandler exec_violation_handler_;
  // Exit (Table 5) and abort counts live only on the machine's telemetry
  // (vmm.*); one vmm.exits.* counter per exit reason, so they sum to
  // hw.vmexit.total. Plain counters and a Set-at-update gauge, never
  // providers — the Rootkernel can die before the machine, and a provider
  // lambda would dangle.
  struct Metrics {
    sb::telemetry::Counter* cpuid_exits;
    sb::telemetry::Counter* vmcall_exits;
    sb::telemetry::Counter* ept_violation_exits;
    sb::telemetry::Counter* exec_violation_exits;
    sb::telemetry::Counter* vmfunc_invalid_exits;
    sb::telemetry::Counter* epts_created;
    sb::telemetry::Counter* identity_remaps;
    sb::telemetry::Counter* aborts;
    sb::telemetry::Gauge* ept_pages;
  };
  Metrics metrics_;
};

}  // namespace vmm

#endif  // SRC_VMM_ROOTKERNEL_H_
