// Crossing backends (DESIGN.md section 16).
//
// The domain-switch primitive is pluggable: a CrossingBackend owns the
// enter/return/abort legs of a call crossing plus the per-leg cost model and
// a capability descriptor the pipeline uses to gate backend-specific
// machinery (EPTP slot residency, trampoline legs, binary rewriting).
//
// Three implementations:
//   kEptp    — the paper's VMFUNC EPTP switch (~134 cycles/leg, hypervisor-
//              validated, full memory isolation).
//   kMpk     — Intel MPK protection-key switch (~20-cycle WRPKRU/leg).
//              Cheaper, but PKRU is unprivileged: any code can forge the
//              rights write, so cross-domain reads are not hardware-blocked
//              (see SkyBridge::ProbeCrossDomainRead and the security tests).
//   kSyscall — seL4-style kernel fastpath baseline: SYSCALL into the kernel,
//              CR3 address-space switch, SYSRET. No rewriting, no trampoline,
//              no EPTP slots; the kernel mediates every leg.
//
// Backends are stateless per call — all per-call state rides in CallContext —
// so one instance per kind is shared by every binding of that kind.

#ifndef SRC_SKYBRIDGE_BACKEND_H_
#define SRC_SKYBRIDGE_BACKEND_H_

#include <cstdint>
#include <memory>

#include "src/base/status.h"
#include "src/base/telemetry/metrics.h"
#include "src/mk/kernel.h"
#include "src/mk/process.h"
#include "src/skybridge/config.h"

namespace skybridge {

struct CallContext;

// What a backend's crossing primitive provides / requires. The pipeline keys
// off these instead of the kind, so a fourth backend is a new class, not a
// new special case.
struct BackendCaps {
  // Cross-domain memory is inaccessible without the hardware's cooperation.
  // True for EPTP (hypervisor-validated view switch) and syscall (separate
  // CR3); false for MPK, whose PKRU rights register is forgeable from user
  // mode — the documented weaker envelope.
  bool isolates_memory = true;
  // Crossings target per-core EPTP-list view slots: the binding must be
  // resident and slots are pinned for the life of the call.
  bool uses_view_slots = true;
  // Registration must scrub the backend's gate-instruction byte pattern from
  // the process image (Section 5 rewriting).
  bool needs_rewrite = true;
  // Crossings run through a user-mode trampoline page whose save/restore legs
  // are charged per direction.
  bool uses_trampoline = true;
  // A crashed handler is unwound by the Rootkernel's kAbortToView hypercall
  // (ticks the vmm abort counter). False when the microkernel itself unwinds.
  bool kernel_mediated_abort = true;
};

class CrossingBackend {
 public:
  CrossingBackend(CrossingBackendKind kind, mk::Kernel& kernel,
                  const SkyBridgeConfig& config);
  virtual ~CrossingBackend() = default;

  CrossingBackend(const CrossingBackend&) = delete;
  CrossingBackend& operator=(const CrossingBackend&) = delete;

  CrossingBackendKind kind() const { return kind_; }
  const char* name() const { return CrossingBackendName(kind_); }
  virtual const BackendCaps& caps() const = 0;

  // The trampoline page this backend's crossings fetch through (meaningful
  // only when caps().uses_trampoline).
  virtual hw::Gva trampoline_va() const { return mk::kTrampolineVa; }

  // Entry leg: cross from the armed client context into the server domain.
  virtual sb::Status Enter(CallContext& ctx) const = 0;
  // Return leg: cross back to the entry domain.
  virtual sb::Status Return(CallContext& ctx) const = 0;
  // Crash unwind: restore the entry domain after the handler died (the
  // view/address-space half only — frame pop and kernel unwind are common
  // and stay in the gate).
  virtual sb::Status Abort(CallContext& ctx) const = 0;

  // skybridge.crossing.<name>.* accounting, folded in by the gate wrappers.
  void RecordEnter(uint64_t cycles) const {
    enters_->Add();
    leg_cycles_->Record(cycles);
  }
  void RecordReturn(uint64_t cycles) const {
    returns_->Add();
    leg_cycles_->Record(cycles);
  }
  void RecordAbort() const { aborts_->Add(); }

 protected:
  CrossingBackendKind kind_;
  mk::Kernel* kernel_;
  const SkyBridgeConfig* config_;
  sb::telemetry::Counter* enters_;
  sb::telemetry::Counter* returns_;
  sb::telemetry::Counter* aborts_;
  sb::telemetry::LatencyHistogram* leg_cycles_;
};

// Builds the backend implementation for `kind`.
std::unique_ptr<CrossingBackend> MakeCrossingBackend(CrossingBackendKind kind,
                                                     mk::Kernel& kernel,
                                                     const SkyBridgeConfig& config);

// PKRU value granting access to `pkey`'s domain (plus key 0, the default
// domain): all other keys keep access-disable | write-disable set.
uint32_t PkruAllow(uint8_t pkey);
// The deny-everything-but-key-0 resting value client code runs under.
inline constexpr uint32_t kPkruDefault = 0xfffffffcu;

}  // namespace skybridge

#endif  // SRC_SKYBRIDGE_BACKEND_H_
