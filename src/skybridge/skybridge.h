// SkyBridge: kernel-less synchronous IPC via VMFUNC EPTP switching.
//
// Public programming model (paper Figure 4):
//
//   // server process
//   ServerId sid = sky.RegisterServer(server, /*connections=*/8, handler);
//   // client process
//   sky.RegisterClient(client, sid);
//   Message reply = sky.DirectServerCall(client_thread, sid, request);
//
// Registration is a (slow, kernel-mediated) syscall path: the Subkernel scans
// and rewrites the process's code pages (Section 5), maps the trampoline,
// server stacks and shared buffers, and asks the Rootkernel for a binding
// EPT whose CR3-GPA remap points the client's CR3 at the server's page
// tables. The call itself never enters the kernel: the trampoline saves
// registers, executes VMFUNC, installs a server stack, checks the calling
// key and jumps to the registered handler — 2 x (134 + 64) = 396 cycles of
// direct cost per roundtrip.
//
// The control plane is decomposed into per-concern modules, and this class
// is the facade that drives one typed CallContext through them:
//
//   routing.h  — binding records, (client, server) hash index, per-thread
//                last-route cache, intrusive LRU, EPTP-slot caches; the
//                read-mostly route table (epoch-versioned for revocation).
//   gate.h     — VMFUNC entry/return legs, trampoline cost model, calling
//                keys, abort/unwind, return-gate reply validation, phases.
//   buffers.h  — shared-buffer regions and per-connection slice carving.
//
// A SkyBridge, like the machine it runs on, belongs to one host thread
// (DESIGN.md section 11); simulated cores are stepped on that thread.

#ifndef SRC_SKYBRIDGE_SKYBRIDGE_H_
#define SRC_SKYBRIDGE_SKYBRIDGE_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <span>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/base/rng.h"
#include "src/base/status.h"
#include "src/base/telemetry/metrics.h"
#include "src/mk/kernel.h"
#include "src/skybridge/buffers.h"
#include "src/skybridge/config.h"
#include "src/skybridge/gate.h"
#include "src/skybridge/routing.h"
#include "src/skybridge/trampoline.h"
#include "src/x86/rewrite_cache.h"

namespace skybridge {

class SkyBridge {
 public:
  // Requires a kernel booted with the Rootkernel.
  explicit SkyBridge(mk::Kernel& kernel, SkyBridgeConfig config = {});
  ~SkyBridge();

  // ---- Registration (paper Figure 4) ----
  // `backend` fixes the crossing backend for every binding of this server
  // (DESIGN.md section 16); by default the config's crossing_backend. The
  // kSyscall backend skips rewriting and trampoline mapping entirely.
  sb::StatusOr<ServerId> RegisterServer(mk::Process* server, int max_connections,
                                        mk::Handler handler);
  sb::StatusOr<ServerId> RegisterServer(mk::Process* server, int max_connections,
                                        mk::Handler handler, CrossingBackendKind backend);
  sb::Status RegisterClient(mk::Process* client, ServerId server_id);

  // ---- Dynamic code (paper Section 9, W^X) ----
  // Replaces a registered process's code image, as a JIT or live-update
  // would: the pages are treated as writable+non-executable during the
  // update, then this call remaps them executable and *rescans/rewrites*
  // them so no new VMFUNC gate can appear.
  sb::Status UpdateProcessCode(mk::Process* process, std::vector<uint8_t> new_image);

  // ---- Registration snapshot / restore (DESIGN.md section 17) ----
  // Everything a fully-prepared registration derived from the code image:
  // the post-rewrite code bytes, the populated snippet sub-window pages, and
  // the pattern set they were scrubbed for. Keyed by the hash of the
  // PRISTINE (pre-rewrite) image so a spawned worker cloned from the same
  // template can restore without scanning a single page.
  struct RegistrationSnapshot {
    uint64_t pristine_hash = 0;           // x86::HashBytes of pristine_image.
    std::vector<uint8_t> pristine_image;  // Pre-rewrite image a restore must match.
    uint8_t prepared_mask = 0;  // Pattern bits scrubbed (1=VMFUNC, 2=WRPKRU).
    std::vector<uint8_t> code;  // Post-rewrite image.
    // Snippet sub-window pages (va -> bytes), mapped read-only on restore.
    std::vector<std::pair<hw::Gva, std::vector<uint8_t>>> window_pages;
  };

  // Captures the registration state of a fully-rewritten process.
  // FailedPrecondition if the process was never prepared or still has
  // non-executable pages awaiting their lazy rewrite (execute them, or
  // register eagerly, before capturing).
  sb::StatusOr<RegistrationSnapshot> SnapshotRegistration(mk::Process* process);

  // Applies a snapshot to an unprepared process whose current image equals
  // the snapshot's pristine_image byte for byte (an identical clone of the
  // template). Charges only the bulk page copies — no scanning.
  // FailedPrecondition on an already-prepared process or any image mismatch.
  sb::Status RestoreRegistration(mk::Process* process,
                                 const RegistrationSnapshot& snapshot);

  // ---- The IPC itself ----
  // Executes the requested procedure in the server's address space on the
  // caller's core without entering the kernel.
  sb::StatusOr<mk::Message> DirectServerCall(mk::Thread* caller, ServerId server_id,
                                             const mk::Message& msg);

  // ---- In-place long-message API (zero-copy path) ----
  // Returns a host-writable view of the caller's per-connection slice of the
  // binding's shared buffer. The client builds its payload directly in the
  // span — no staging vector — then issues DirectServerCallInPlace with the
  // number of bytes written. The span stays valid until the next call or
  // acquire on the same connection reuses the slice; there is no explicit
  // release.
  sb::StatusOr<std::span<uint8_t>> AcquireSendBuffer(mk::Thread* caller, ServerId server_id);

  // Calls `server_id` with the `len` payload bytes previously written into
  // the acquired slice. No request copy is charged (the bytes are already in
  // the shared buffer); the handler receives a borrowed view, may build its
  // reply in env.reply_buffer (same slice) and return Message::Borrowed —
  // then no reply copy is charged either and the roundtrip moves zero bytes.
  sb::StatusOr<mk::Message> DirectServerCallInPlace(mk::Thread* caller, ServerId server_id,
                                                    uint64_t tag, uint64_t len);

  // ---- Batched + asynchronous IPC (DESIGN.md section 13) ----
  // A submission/completion ring carved from the caller's per-connection
  // slice amortizes the VMFUNC crossing: the client enqueues N requests,
  // one FlushBatch crossing drains them all server-side, and completions
  // post back into the ring without per-call return crossings.
  //
  // SubmitCall enqueues one request and returns its token (no crossing).
  // Errors: ResourceExhausted when the ring is full (slot of the next token
  // still holds an uncollected completion), OutOfRange when the payload
  // exceeds the ring's per-entry capacity, PermissionDenied for
  // unregistered/revoked pairs.
  sb::StatusOr<uint64_t> SubmitCall(mk::Thread* caller, ServerId server_id,
                                    const mk::Message& msg);

  // Non-blocking completion check for `token`. Unavailable while the entry
  // is still pending (submit not yet flushed, or left untouched by a
  // crashed crossing); the entry's own error (Aborted for a handler crash,
  // OutOfRange for a reply rejected at the per-entry return gate (corrupt,
  // or too large for the entry's payload span),
  // PermissionDenied for a revoked-binding flush) once posted. A successful
  // poll frees the entry's slot; like the in-place API, the returned reply
  // is a borrowed view of the entry's payload span, valid until the slot is
  // resubmitted.
  sb::StatusOr<mk::Message> PollCompletion(mk::Thread* caller, ServerId server_id,
                                           uint64_t token);

  // Blocking completion wait: flushes the connection's pending submissions
  // if `token` is not yet complete, and otherwise parks on the kernel
  // notification path (mk::Notification) until a concurrent flush posts the
  // completion.
  sb::StatusOr<mk::Message> WaitCompletion(mk::Thread* caller, ServerId server_id,
                                           uint64_t token);

  // Drains every pending submission of the caller's connection in ONE
  // VMFUNC crossing (the batch-dispatch leg). With submissions arriving
  // during the drain (SetBatchRefill), the server keeps draining up to
  // kMaxDrainRounds rounds, and at most kHandlerTimeoutCycles,
  // before returning; entries it did not reach complete on a later flush.
  // No-op when nothing is pending. Aborted when the handler crashed
  // mid-drain — completions already posted stay posted, untouched entries
  // complete on the next flush. OutOfRange when a ring index is corrupt: a
  // header head outside [drain head, tail] (no crossing), or a tail more
  // than one ring past the drain's head (the drain stops there). On a
  // revoked binding, posts PermissionDenied completions client-side without
  // crossing.
  sb::Status FlushBatch(mk::Thread* caller, ServerId server_id);

  // Synchronous convenience: submit all of `msgs` (flushing in ring-sized
  // chunks when needed), flush, and collect every completion. Per-entry
  // outcomes come back in order; replies are owned (detached from the ring,
  // which CallBatch recycles across chunks).
  struct BatchEntryResult {
    sb::Status status;
    mk::Message reply;  // Valid when status.ok().
    // Set with OutOfRange when the reply was well formed but did not fit the
    // entry's payload span; a corrupt reply leaves it false.
    bool reply_too_large = false;
  };
  sb::StatusOr<std::vector<BatchEntryResult>> CallBatch(mk::Thread* caller, ServerId server_id,
                                                        std::span<const mk::Message> msgs);

  // Hook invoked between server drain rounds — models the client core
  // producing new submissions while the server drains (the adaptive-drain
  // experiment). Null disables (the default: one round drains what was
  // pending at entry).
  void SetBatchRefill(std::function<void()> refill) { batch_refill_ = std::move(refill); }

  // Simulates a malicious caller that skips registration / forges a key;
  // returns the error the legitimate path produces (for the security tests).
  sb::StatusOr<mk::Message> CallWithForgedKey(mk::Thread* caller, ServerId server_id,
                                              const mk::Message& msg, uint64_t forged_key);

  // Simulates a malicious client trying to read server memory at `va`
  // WITHOUT authorization: forge the crossing primitive by hand (no
  // trampoline, no calling key) and dereference through the server's
  // tables. On the MPK backend this SUCCEEDS — WRPKRU is unprivileged and
  // the shared mapping is reachable once PKRU is forged — returning the
  // stolen word; that is the backend's documented weaker isolation envelope,
  // pinned by the security tests. On EPTP the hypervisor validates the view
  // switch and on syscall the kernel validates the capability, so both
  // return PermissionDenied.
  sb::StatusOr<uint64_t> ProbeCrossDomainRead(mk::Thread* caller, ServerId server_id,
                                              hw::Gva va);

  const SkyBridgeConfig& config() const { return config_; }
  mk::Kernel& kernel() { return *kernel_; }

  // ---- Revocation (fault model, DESIGN.md section 10) ----
  // Revokes the (client, server) binding: new calls and buffer acquisitions
  // are refused with PermissionDenied, every thread's cached route drops,
  // and the binding is scrubbed and its EPT's slot residency dropped —
  // immediately if the client has no calls in flight, otherwise deferred
  // until the client drains (never under a live call). Re-registering the
  // pair later revives the binding with a fresh calling key.
  sb::Status RevokeBinding(mk::Process* client, ServerId server_id);

  // Revokes every live client binding of `server_id` (chain origins
  // included): under consolidation this drains the whole shared-EPT sibling
  // set, and the last drained sibling drops the EPT's residency on every
  // core. NotFound for an unknown server id; ok (no-op) when the server has
  // no live clients.
  sb::Status RevokeServer(ServerId server_id);

  // Structural invariants the stress runner asserts between events: every
  // binding recorded under its own client, revoked bindings swept once
  // drained, in-flight accounting, the per-core slot caches, the
  // Rootkernel's per-core EPTP mirrors, and cycle conservation (every core's
  // ledger sums to its clock). Returns the first violation.
  sb::Status CheckInvariants() const;

  // Calls currently between entry and return across all bindings. Zero at
  // quiesce; a nonzero value with no call on the stack is a leaked slice.
  uint64_t InFlightCalls() const;

  // The per-core EPTP slot currently holding the (client, server) binding's
  // EPT, or kNoEptpSlot when the binding is unknown or not resident on that
  // core (tests/benches: slot indices are virtualized, never architectural).
  uint32_t ResidentBindingSlot(mk::Process* client, ServerId server_id,
                               uint32_t core_id) const;

 private:
  friend class SkyBridgeTestPeer;  // Inspects pristine-image sharing in unit tests.

  // ---- Staged registration pipeline state (DESIGN.md section 17) ----
  // Per prepared process (slow path only: registration, code update,
  // snapshot, exec-fault resolution).
  // Read-only image bytes shared by content (see pristine_images_).
  using SharedImage = std::shared_ptr<const std::vector<uint8_t>>;

  // The one registration record of a prepared process.
  struct RegState {
    uint64_t pristine_hash = 0;  // x86::HashBytes(*pristine_image).
    SharedImage pristine_image;  // Pre-rewrite bytes, interned.
    size_t image_pages = 0;
    // Guest-physical base of the code frames: page p sits at
    // code_gpa + p * kPageSize (the code window is contiguous).
    hw::Gpa code_gpa = 0;
    // Gate patterns scrubbed (eager, restored) or armed (lazy), a bit per
    // pattern id: bit 0 = VMFUNC (EPTP backend), bit 1 = WRPKRU (MPK
    // backend). A process serving/calling both backends gets both passes;
    // UpdateProcessCode re-runs every prepared pass on the new image.
    uint8_t prepared = 0;
    uint64_t nonexec_mask = 0;  // Bit p set: page p awaits its lazy rewrite.
    // EPTs mirroring the non-exec bits: the process's own EPT plus every
    // binding/chain EPT created while pages were still pending. A page's
    // rewrite flips it executable in all of them.
    std::vector<uint64_t> protect_epts;
    // Snippet sub-window pages written so far (va -> bytes), accumulated for
    // snapshot capture.
    std::map<hw::Gva, std::vector<uint8_t>> window_pages;
    // Cache key inserted per (pattern, page) by the last scrub — compared on
    // UpdateProcessCode so only dirtied pages invalidate their entries.
    std::map<uint32_t, std::vector<x86::RewriteCacheKey>> page_keys;
  };

  // Prepares `process` for `backend`: scrubs (eager), arms (lazy) or
  // restores (snapshot) the gate patterns it needs, then maps the
  // trampoline and calling-key table.
  sb::Status EnsureProcessPrepared(mk::Process* process, CrossingBackendKind backend);
  // The process's RegState, or null when it was never prepared.
  RegState* FindRegState(const mk::Process* process);
  // Finds-or-creates the process's RegState (pristine capture, code GPA,
  // code_ranges_ entry).
  sb::StatusOr<RegState*> EnsureRegState(mk::Process* process);
  // The shared buffer holding `image` (hash `hash`): an interned one with the
  // same bytes, else a new one, interned unless another live image already
  // holds the hash (a collision keeps a private copy). Prunes entries whose
  // buffer nothing references any more.
  SharedImage InternPristine(std::vector<uint8_t> image, uint64_t hash);
  // Scrubs every code page for gate pattern `pattern_id` now, unless already
  // prepared for it; a no-op when rewrite_binaries is off.
  sb::Status EagerPass(mk::Process* process, uint32_t pattern_id);
  // Lazy mode: records `pattern_id` as prepared and drops exec from every
  // code page in the enrolled EPTs instead of scanning.
  sb::Status ArmLazy(mk::Process* process, uint32_t pattern_id);
  // The per-page scrub engine: runs every page in `page_mask` through the
  // content-hashed rewrite cache for gate pattern `pattern_id`, applies
  // patches, fills the per-page snippet sub-windows and writes the image
  // back. Charges rewrite_scan_page or rewrite_cache_replay per page on
  // `core`.
  sb::Status ScrubPages(mk::Process* process, RegState& st, uint32_t pattern_id,
                        uint64_t page_mask, hw::Core& core);
  // Maps snippet sub-window page `wva` read-only on first use, writes the
  // whole page (`bytes`, at most one page, then zeros) through
  // HostPhysMem::WriteShared and records `bytes` for snapshot capture.
  sb::Status WriteWindowPage(mk::Process* process, RegState& st, hw::Gva wva,
                             const std::vector<uint8_t>& bytes);
  // Sets the exec permission of the code pages in `page_mask` in every EPT
  // of `epts`, by hypercall.
  sb::Status SetCodeExec(hw::Core& core, const RegState& st, uint64_t page_mask,
                         std::span<const uint64_t> epts, bool exec);
  // Drops exec on the server's still-pending pages in a freshly created
  // binding/chain EPT and enrolls it in protect_epts. No-op when the server
  // has no pending pages.
  sb::Status ProtectServerPagesInEpt(hw::Core& core, mk::Process* server,
                                     uint64_t ept_id);
  // A new binding record for `client` -> `server_id` with the server's
  // backend, view_slots and pkey filled in. Its EPT is `shared_ept_id`, or
  // when that is 0 a freshly created one: the client's CR3 GPA remapped to
  // the server's page-table root and the identity GPA to the server's
  // identity frame. Either way the server's pending lazy pages are made
  // non-executable in it.
  sb::StatusOr<std::unique_ptr<Binding>> NewBinding(hw::Core& core, mk::Process* client,
                                                    ServerId server_id, uint64_t shared_ept_id);
  // Writes (key, pid) into calling-key table slot `slot` of `server`.
  void WriteKeySlot(const ServerEntry& server, uint64_t slot, uint64_t key, uint64_t pid);
  // Hot-path guard: when any process still has non-executable pages, touch
  // the pages this call is about to execute (client call site, server
  // handler entry, the tag-dispatched code path) and deliver exec faults.
  sb::Status EnsureCallExecutable(CallContext& ctx);
  // The exec-violation exit handler (Rootkernel -> mk -> here): rewrites the
  // faulting page through the cache and flips it executable everywhere.
  sb::Status HandleExecFault(hw::Core& core, hw::Gpa gpa);
  // Lazily creates the chain binding (origin's CR3 -> target server) used by
  // nested calls; kernel- and Rootkernel-mediated. Creation pays a kernel
  // entry/exit pair on view-slot backends.
  sb::StatusOr<Binding*> GetOrCreateChainBinding(hw::Core& core, mk::Process* origin,
                                                 ServerId server_id);

  // ---- The call pipeline (shared by DirectServerCall / ...InPlace) ----
  // CallCommon builds a CallContext and drives it through the stages below;
  // the fault-recovery and gate logic lives once, in the shared pipeline.
  sb::StatusOr<mk::Message> CallCommon(mk::Thread* caller, ServerId server_id,
                                       const mk::Message* msg_in, uint64_t inplace_tag,
                                       uint64_t inplace_len, bool in_place);
  // Stage 1 — authorization: resolve the caller's binding through the
  // per-thread cache / hash index; reject unregistered or revoked pairs.
  sb::Status ResolveRoute(CallContext& ctx);
  // Stage 2 — request staging: slice resolution and (for the in-place API)
  // the borrowed request view over bytes already in the slice.
  sb::Status PrepareRequest(CallContext& ctx, const mk::Message* msg_in,
                            uint64_t inplace_tag, uint64_t inplace_len, bool in_place);
  // Stage 3 — origin binding: detect nested calls (chain binding) or
  // dispatch the caller onto its core.
  sb::Status BindOrigin(CallContext& ctx);
  // Stage 4 — arm the gate: entry-EPT capture, reinstall-if-evicted, LRU
  // touch, client trampoline leg + request copy, per-call key, stale-slot
  // retry loop. Leaves the route armed for the entry VMFUNC.
  sb::Status ArmGate(CallContext& ctx);
  // Stage 5 — server side + return gate: key check, handler, reply
  // validation and materialization, return VMFUNC.
  sb::StatusOr<mk::Message> ServeAndReturn(CallContext& ctx);

  // Handles on the machine's telemetry registry (skybridge.*), the only
  // store of these counts: registered once in the constructor, the hot path
  // only adds, and readers use Registry::Value. The
  // routing/gate modules register and bump the lookup, revocation and abort
  // counters themselves.
  struct Metrics {
    sb::telemetry::Counter* direct_calls;
    sb::telemetry::Counter* long_calls;
    sb::telemetry::Counter* inplace_calls;
    sb::telemetry::Counter* inplace_replies;
    sb::telemetry::Counter* rejected_calls;
    sb::telemetry::Counter* timeouts;
    sb::telemetry::Counter* rewritten_vmfuncs;
    sb::telemetry::Counter* processes_rewritten;
    sb::telemetry::Counter* scan_pages;
    // Fault model & recovery.
    sb::telemetry::Counter* gate_rejections;
    sb::telemetry::Counter* stale_slot_retries;
    sb::telemetry::Counter* revoked_rejections;
    // EPTP slot virtualization.
    sb::telemetry::Counter* slot_faults;
    // Per-core control plane.
    sb::telemetry::Counter* migration_installs;
    // Batched + async IPC.
    sb::telemetry::Counter* batched_calls;
    sb::telemetry::Counter* batch_flushes;
    sb::telemetry::Counter* drain_rounds;
    sb::telemetry::Gauge* ring_depth;  // High-water pending depth at flush.
    // Staged registration pipeline.
    sb::telemetry::Counter* exec_faults;
    sb::telemetry::Counter* lazy_rewrites;
    sb::telemetry::Counter* cache_hits;
    sb::telemetry::Counter* cache_misses;
    sb::telemetry::Counter* snapshot_restores;
    sb::telemetry::Counter* pages_rescanned;
  };

  // ---- Batch-ring connection state (host-side bookkeeping) ----
  static constexpr uint64_t kFreeSlot = ~0ULL;  // BatchConn::slot_token value.
  // One per (binding, thread) connection that uses the batch API; the ring
  // itself lives in the connection's shared-buffer slice, this records the
  // host mirrors that never cross the EPT boundary.
  struct BatchConn {
    SliceRef slice;
    BatchRingView ring;
    // Client side: next token to submit; the shared header mirrors it.
    uint64_t sq_tail = 0;
    // Client side: the token submitted into each slot and not yet reaped,
    // kFreeSlot when free. The one record of slot ownership — nothing in
    // the shared ring can free or leak a slot.
    std::vector<uint64_t> slot_token;
    // Server side: the next token the drain runs. The shared header mirrors
    // it; the drain never reads it back, and the client reads the header
    // copy only to check it.
    uint64_t drain_head = 0;
    mk::Notification* notify = nullptr;  // Completion parking (WaitCompletion).
    bool wait_armed = false;        // A waiter parked; flush signals it.
  };
  // Resolves (and on first use creates, carving the ring) the caller's
  // batch connection to `server_id`. Refuses revoked bindings — used on the
  // submit path only.
  sb::StatusOr<BatchConn*> GetBatchConn(mk::Thread* caller, ServerId server_id);
  // Lookup without the revoked check (completions already in the ring stay
  // readable after revocation; the revoked flush posts through this too).
  BatchConn* FindBatchConn(const Binding* perm, int tid);
  // Posts `code` completions client-side for every entry in
  // [conn.drain_head, conn.sq_tail) (revoked-binding flush: no crossing).
  void FailPendingClientSide(BatchConn& conn, sb::ErrorCode code);
  // PollCompletion, which also reports through `reply_too_large` (when not
  // null) whether an OutOfRange entry's reply only outgrew its span.
  sb::StatusOr<mk::Message> ReapCompletion(mk::Thread* caller, ServerId server_id,
                                           uint64_t token, bool* reply_too_large);

  mk::Kernel* kernel_;
  SkyBridgeConfig config_;
  Metrics metrics_;
  // Registration-time key stream (calling keys). Slow path only: per-call
  // keys come from Gate::PerCallKey so the hot path shares no RNG state.
  sb::Rng key_rng_;
  TrampolineLayout trampoline_;
  hw::Gpa trampoline_gpa_ = 0;  // Shared trampoline code frame.
  // MPK-backend trampoline variant (WRPKRU gates), mapped at
  // mk::kMpkTrampolineVa alongside the VMFUNC one.
  TrampolineLayout mpk_trampoline_;
  hw::Gpa mpk_trampoline_gpa_ = 0;
  // ---- Staged registration pipeline (DESIGN.md section 17) ----
  std::unordered_map<const mk::Process*, RegState> reg_states_;
  // Pristine-image intern table, keyed by x86::HashBytes of the bytes:
  // clones of one template share one pristine buffer. Holds weak references
  // only, so an image lives exactly as long as some RegState uses it.
  std::unordered_map<uint64_t, std::weak_ptr<const std::vector<uint8_t>>> pristine_images_;
  // Code GPA base -> process, one entry per prepared process, for exec-fault
  // routing: a fault's owner is the greatest base at or below its GPA,
  // bounded by that process's image_pages.
  std::map<hw::Gpa, mk::Process*> code_ranges_;
  // Processes that still have >= 1 non-executable code page. Zero in eager /
  // snapshot / drained-lazy steady state, making EnsureCallExecutable one
  // compare.
  uint64_t lazy_pending_ = 0;
  x86::RewriteCache rewrite_cache_;
  // Latency of the exec-fault slow path (fault delivery through rewrite).
  sb::telemetry::LatencyHistogram* phase_exec_fault_ = nullptr;
  // Snapshot library for kSnapshot mode, keyed by pristine image hash.
  std::unordered_map<uint64_t, RegistrationSnapshot> snapshot_library_;
  // Round-robin MPK protection-key allocator (keys 1..15; key 0 is the
  // default domain).
  uint8_t next_pkey_ = 0;
  std::vector<ServerEntry> servers_;
  RouteTable routes_;
  BufferPool buffers_;
  Gate gate_;
  // Batch connections, keyed by (binding, tid). std::map keeps BatchConn
  // addresses stable across inserts.
  std::map<std::pair<const Binding*, int>, BatchConn> batch_conns_;
  std::function<void()> batch_refill_;
};

}  // namespace skybridge

#endif  // SRC_SKYBRIDGE_SKYBRIDGE_H_
