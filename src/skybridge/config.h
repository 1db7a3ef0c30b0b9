// SkyBridge library-wide types shared by the control-plane modules
// (routing, gate, buffers) and the public facade in skybridge.h.
//
// Kept free of any module dependency so routing.h / gate.h / buffers.h can
// include it without cycling back into skybridge.h.

#ifndef SRC_SKYBRIDGE_CONFIG_H_
#define SRC_SKYBRIDGE_CONFIG_H_

#include <cstddef>
#include <cstdint>

#include "src/hw/vmcs.h"

namespace skybridge {

using ServerId = uint64_t;

// ---- Crossing backends (DESIGN.md section 16) ----
// The domain-switch primitive a binding crosses on. Selected per binding at
// registration time; the default comes from config.crossing_backend.
enum class CrossingBackendKind : uint8_t {
  kEptp = 0,     // VMFUNC EPTP switch — the paper's design (~134 cycles/leg).
  kMpk = 1,      // WRPKRU protection-key switch (~20 cycles/leg, weaker
                 // isolation: PKRU is unprivileged and forgeable).
  kSyscall = 2,  // seL4-style kernel fastpath (syscall + CR3 switch + sysret).
};

inline constexpr int kNumCrossingBackends = 3;

inline constexpr const char* CrossingBackendName(CrossingBackendKind kind) {
  switch (kind) {
    case CrossingBackendKind::kEptp:
      return "eptp";
    case CrossingBackendKind::kMpk:
      return "mpk";
    case CrossingBackendKind::kSyscall:
      return "syscall";
  }
  return "unknown";
}

// ---- Registration modes (staged pipeline, DESIGN.md section 17) ----
// How a process's code pages get their gate-pattern scrub:
//   kEager    — scan/rewrite the whole image at registration (the paper's
//               Section 5 behaviour; the default).
//   kLazy     — leave code pages non-executable in the EPTs and rewrite one
//               page per exec-violation fault (rewrite-on-first-execute).
//   kSnapshot — restore post-rewrite state from a registration snapshot of
//               an identical template image; falls back to an eager prepare
//               (auto-captured into the snapshot library) on the first
//               sighting of an image.
enum class RegistrationMode : uint8_t {
  kEager = 0,
  kLazy = 1,
  kSnapshot = 2,
};

inline constexpr int kNumRegistrationModes = 3;

inline constexpr const char* RegistrationModeName(RegistrationMode mode) {
  switch (mode) {
    case RegistrationMode::kEager:
      return "eager";
    case RegistrationMode::kLazy:
      return "lazy";
    case RegistrationMode::kSnapshot:
      return "snapshot";
  }
  return "unknown";
}

// ---- Gate-frame layout constants (registration writes, the gate reads) ----
// Per-connection server stack size (Section 4.4).
inline constexpr uint64_t kServerStackBytes = 64 * 1024;
// Calling-key table entry: {key, client pid}.
inline constexpr uint64_t kKeySlotBytes = 16;

// ---- Call bounds ----
// DoS defence: a handler (sync call) or a batch drain that runs longer than
// this is forced back to the client.
inline constexpr uint64_t kHandlerTimeoutCycles = 1ULL << 32;
// Bounded backoff for re-arming a binding whose cached EPTP slot went stale
// between lookup and VMFUNC (concurrent eviction): after this many slowpath
// re-installs the call fails Unavailable. The lazy exec-fault scrub retries
// as often.
inline constexpr uint64_t kMaxStaleSlotRetries = 3;

// ---- Fault-point catalog (src/base/faultpoint.h, DESIGN.md section 10) ----
// Each point has a tested recovery path; arming one must never turn into an
// SB_CHECK death.
//
// The caller's cached EPTP slot is evicted between route lookup and VMFUNC
// (a concurrent registration LRU-evicted the binding). Recovery: detect the
// stale slot, re-arm via the slowpath with bounded backoff; the call retries
// transparently or fails Unavailable after kMaxStaleSlotRetries.
inline constexpr const char kFaultPreVmfunc[] = "skybridge.call.pre_vmfunc";
// The server thread crashes mid-handler, stranding the client in the
// server's address space. Recovery: Rootkernel-mediated abort (kAbortToView)
// restores the client's EPT view, the trampoline frame is popped, the kernel
// unblocks the caller and the call returns Status::Aborted.
inline constexpr const char kFaultHandlerCrash[] = "skybridge.handler.crash";
// The server scribbles the reply descriptor so the reply escapes the
// caller's shared-buffer slice. Recovery: the return gate rejects the reply
// — after the EPT view is restored — with a gate_rejections metric.
inline constexpr const char kFaultReplyCorrupt[] = "skybridge.gate.reply_corrupt";
// The caller's binding is revoked while its call is in flight. Recovery:
// the in-flight call drains normally; EPTP-list surgery is deferred to the
// drain and new calls are refused with PermissionDenied.
inline constexpr const char kFaultRevokeInflight[] = "skybridge.call.revoke_inflight";
// The Rootkernel refuses the kEptpListReplace/kEptpListAppend that would
// make a faulted binding resident (slot-virtualization install failure,
// DESIGN.md section 15). Recovery: the slot fault fails cleanly with
// Unavailable; residency state is untouched and the next call retries.
inline constexpr const char kFaultSlotInstall[] = "skybridge.eptp.slot_install_failed";
// The lazy-registration exec-fault slow path fails mid-rewrite (the scan or
// the EPT permission flip refuses). Recovery: bounded retry inside the
// handler; after that the fault reports clean Unavailable, the page stays
// non-executable, and the next call through it retries the whole slow path.
inline constexpr const char kFaultExecScan[] = "skybridge.registration.exec_scan_failed";

struct SkyBridgeConfig {
  // Crossing backend for bindings whose registration does not name one
  // explicitly (RegisterServer's backend parameter). See CrossingBackendKind.
  CrossingBackendKind crossing_backend = CrossingBackendKind::kEptp;
  // ---- EPTP slot virtualization (DESIGN.md section 15) ----
  // Per-core slot working set: how many EPTP-list slots each core may hold
  // resident at once, in [4, hw::kEptpListCapacity] (checked at startup).
  // Bindings beyond this fault in on demand, evicting the per-core LRU
  // victim via an in-place kEptpListReplace — the paper's Section 10 "more
  // servers than slots" future work, and the "millions of bindings from 512
  // slots" oversubscription story.
  size_t eptp_working_set = hw::kEptpListCapacity;
  // Binding consolidation: N clients of one server share a single binding
  // EPT (per-client CR3 remaps added with kAddCr3Remap; calling keys and
  // buffer slices stay per-client), collapsing slot pressure from
  // O(clients x servers) to O(servers). Off = one EPT per binding (the
  // pre-section-15 shape; the mesh bench's >=10k-EPT ablation).
  bool consolidate_bindings = true;
  // Ablation switch: pick slot-fault victims by LRU (true) or naive
  // round-robin over evictable slots (false). Exists to measure what
  // recency tracking buys under zipfian routing.
  bool lru_slot_eviction = true;
  // Per-(binding, connection) shared buffer for long messages.
  uint64_t shared_buffer_bytes = 64 * 1024;
  // Connection slices carved out of each binding's buffer region (paper
  // Section 6.3 per-thread buffers): each connection (thread) is handed its
  // own shared_buffer_bytes slice by the binding's free-list allocator, with
  // explicit ResourceExhausted once more live connections than slices exist.
  uint64_t buffer_slices = 4;
  // Ablation switch: model the legacy two-copy long path (client WriteVirt
  // in, server WriteVirt reply, client ReadVirt out into the returned
  // message). Off by default — the handler gets a borrowed view over the
  // slice and the client consumes the reply straight from the buffer, which
  // is the paper's one-copy claim; pair with the in-place API for zero-copy.
  bool legacy_two_copy = false;
  // Enforce calling-key checks (ablation switch).
  bool calling_keys = true;
  // Rewrite process binaries at registration (ablation switch; disabling is
  // insecure and exists only to measure the cost).
  bool rewrite_binaries = true;
  // Staged registration pipeline mode (DESIGN.md section 17): eager scan at
  // registration, rewrite-on-first-execute, or snapshot/restore.
  RegistrationMode registration_mode = RegistrationMode::kEager;
  // Budget for the content-hashed rewrite cache (entries ≈ distinct
  // (page, backend) contents across live images; each entry also keeps the
  // ~4 KiB page-plus-context bytes its hits are confirmed against). 0
  // disables caching — every page scan runs from scratch (the cold-start
  // ablation baseline).
  size_t rewrite_cache_entries = 4096;
};

}  // namespace skybridge

#endif  // SRC_SKYBRIDGE_CONFIG_H_
