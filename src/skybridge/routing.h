// Route control plane: binding records, the (client, server) hash index,
// the per-thread last-route cache front end, per-client binding lists and
// the per-core EPTP slot caches — everything DirectServerCall consults to
// turn a ServerId into an armed EPTP slot.
//
// Like the rest of a machine, the route table belongs to one host thread
// (DESIGN.md section 11). Revocation publishes through `generation()`, an
// epoch every per-thread cache entry is stamped with: bumping it drops every
// thread's cached Binding* at once without touching the threads.
//
// Slot virtualization (DESIGN.md section 15): the hardware EPTP list holds
// at most hw::kEptpListCapacity views per core, but the table may carry tens
// of thousands of bindings. Each core runs a bounded slot working set
// (CoreSlotCache): slot 0 permanently holds the base EPT, every other slot
// is an LRU-managed cache entry over EPT ids. A call whose binding is not
// resident takes the slot-fault slow path in ArmGate, which calls
// EnsureResident to evict the per-core LRU victim via an in-place
// kEptpListReplace (freed slots never reshuffle their neighbours, so every
// other cached index stays valid). The per-core slot cache is the only
// residency mechanism: there is no client-level working set on top of it.

#ifndef SRC_SKYBRIDGE_ROUTING_H_
#define SRC_SKYBRIDGE_ROUTING_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "src/base/status.h"
#include "src/base/telemetry/metrics.h"
#include "src/mk/kernel.h"
#include "src/skybridge/config.h"

namespace skybridge {

// Sentinel for "EPT not resident in a core's EPTP slot cache".
inline constexpr uint32_t kNoEptpSlot = 0xffffffffu;

struct ServerEntry {
  ServerId id;
  mk::Process* process;
  mk::Handler handler;
  int max_connections;
  hw::Gva handler_va;  // "function address" in the server's function list.
  // The crossing backend every binding of this server uses (DESIGN.md
  // section 16). Fixed at RegisterServer; clients and chain bindings
  // inherit it.
  CrossingBackendKind backend = CrossingBackendKind::kEptp;
  uint64_t next_connection = 0;
  // Binding consolidation (config.consolidate_bindings): the one binding EPT
  // every client of this server shares — later clients add their own CR3
  // remap via kAddCr3Remap instead of shallow-copying a fresh EPT. 0 until
  // the first client registers.
  uint64_t shared_ept_id = 0;
};

struct ClientState;

struct Binding {
  mk::Process* client = nullptr;  // The process whose CR3 is live when used.
  ServerId server = 0;
  uint64_t ept_id = 0;      // Rootkernel EPT id (shared under consolidation).
  uint64_t server_key = 0;  // Client -> server calling key (0 on chain bindings).
  // Crossing backend, inherited from the server entry at registration.
  CrossingBackendKind backend = CrossingBackendKind::kEptp;
  // The backend's caps().uses_view_slots: crossings go through a per-core
  // EPTP slot. False for kSyscall, whose bindings are never made resident.
  bool view_slots = true;
  // MPK backend only: the protection key guarding the server domain this
  // binding crosses into (1..15, round-robin allocated; 0 = unset).
  uint8_t pkey = 0;
  hw::Gva shared_buf = 0;   // Region base, mapped at the same VA in both.
  uint64_t key_slot = 0;    // Index in the server's calling-key table.
  // ---- Buffer carving (long-message path) ----
  // The region is num_slices page-aligned slices of slice_stride bytes,
  // each with shared_buffer_bytes of capacity. host_base is the
  // host-contiguous view of the whole region (nullptr for chain bindings,
  // which carry no buffer), enabling borrowed message views without
  // simulated copies. Slices are handed to connections by a free-list
  // allocator (BufferPool::AcquireSlice): thread t gets the next free
  // slice on first use and keeps it, so two threads never silently share
  // one slice (the old t % num_slices mapping aliased them).
  uint64_t slice_stride = 0;
  uint32_t num_slices = 0;
  uint8_t* host_base = nullptr;
  std::unordered_map<int, uint32_t> slice_of_tid;  // tid -> owned slice.
  std::vector<uint32_t> free_slices;               // LIFO free list.
  bool slices_carved = false;                      // free_slices populated.
  // Revoked bindings refuse new calls; their residency is dropped when the
  // client drains. The record itself persists ("bindings are never
  // destroyed") and re-registration revives it.
  bool revoked = false;
  // Revocation scrub done (key slot zeroed, consolidation remap restored,
  // residency dropped where no sibling holds the EPT). Runs at sweep time —
  // after the client drains — never at Revoke time, so an in-flight call's
  // reply still translates through the binding EPT. Cleared on revival.
  bool swept = false;
  // Calls currently between entry and return on this binding. Revocation
  // never scrubs while the owning client has calls in flight.
  uint64_t in_flight = 0;
  // Chain bindings support nested calls (A -> B -> C): the EPT maps A's
  // CR3 to C's page tables, while authorization/keys come from the B -> C
  // registration (Section 4.2: "the Rootkernel also writes all processes'
  // EPTPs that the server depends on into the client's EPTP list"). Chain
  // EPTs are never consolidated (their CR3 remap pairs are per-chain).
  bool chain = false;
  ClientState* owner = nullptr;  // The client's ClientState (stable node).
};

// Per-client state: every binding the client originates, in registration
// order, plus the drain accounting revocation sweeps wait on.
struct ClientState {
  std::vector<Binding*> bindings;
  uint64_t inflight = 0;             // Sum of in_flight over `bindings`.
  bool pending_revocations = false;  // Sweep deferred until inflight drains.
};

// Per-core EPTP slot working set (DESIGN.md section 15). Slot 0 permanently
// holds the base EPT and is never evicted, pinned or LRU-linked; slots
// [1, eptp_working_set) cache EPT ids with intrusive slot-index LRU links (head =
// most recently used). Freed slots are kEptpListReplace'd back to the base
// EPT (id 0) and parked on the free list, so the list never shrinks or
// reshuffles and every cached index for a *different* slot stays valid.
struct CoreSlotCache {
  std::vector<uint64_t> ids;  // slot -> EPT id; 0 = base EPT / freed slot.
  std::unordered_map<uint64_t, uint32_t> slot_of;  // EPT id -> slot.
  // Intrusive LRU over slot indices (kNoEptpSlot = null link). Maintained
  // in both eviction modes; only victim *choice* differs under the naive
  // ablation.
  std::vector<uint32_t> lru_prev;
  std::vector<uint32_t> lru_next;
  uint32_t lru_head = kNoEptpSlot;  // Most recently used.
  uint32_t lru_tail = kNoEptpSlot;  // Eviction candidate end.
  // Slots a live call depends on (entry view + routed view). Pinned slots
  // are never evicted: eviction ordering rule "a slot with a call between
  // entry and return keeps its translation".
  std::vector<uint32_t> pins;
  std::vector<uint32_t> free_slots;  // Freed slots holding the base EPT.
  uint32_t rr_cursor = 1;  // Naive-ablation round-robin victim cursor.
};

// Open-addressed hash index over (client, server) -> Binding*: linear
// probing, power-of-two capacity. Bindings are never destroyed, so there
// are no tombstones and lookups stop at the first empty slot.
class BindingIndex {
 public:
  BindingIndex() : slots_(kInitialSlots, nullptr) {}
  Binding* Find(const mk::Process* client, ServerId server) const;
  void Insert(Binding* binding);

 private:
  static constexpr size_t kInitialSlots = 64;
  static size_t Hash(const mk::Process* client, ServerId server);
  void Grow();
  std::vector<Binding*> slots_;
  size_t size_ = 0;
};

class RouteTable {
 public:
  // Per-binding teardown hook SweepRevoked invokes once per revoked binding
  // when the client drains (the facade zeroes the calling-key slot and
  // restores the consolidation CR3 remap).
  using RevokeScrub = std::function<void(Binding&)>;

  RouteTable(mk::Kernel& kernel, const SkyBridgeConfig& config);

  // O(1) index lookup (slow path of the lookup; no linear scans).
  Binding* Find(const mk::Process* client, ServerId server) const;
  // Per-thread last-route cache in front of Find; maintains the
  // binding_lookup_hits/misses counters.
  Binding* Lookup(mk::Thread* caller, ServerId server);
  // Registers a freshly created binding: index insert + client list append.
  Binding* Adopt(std::unique_ptr<Binding> binding);
  // Call drain accounting: decrements the in-flight counts taken at call
  // entry and runs any revocation sweep the drain unblocked.
  void FinishCall(Binding& binding);
  // Marks the (client, server) binding revoked (idempotent), bumps the
  // route epoch so every thread's cached route drops, and sweeps. NotFound
  // when the pair was never registered.
  sb::Status Revoke(mk::Process* client, ServerId server);
  // Scrubs every drained revoked binding of `client`: the facade's
  // RevokeScrub (key zeroing + consolidation remap restore) and residency
  // teardown on every core once no sibling binding still holds the shared
  // EPT. Defers itself while the client has calls in flight.
  void SweepRevoked(mk::Process* client);
  // Fault-injection helper: drops `binding`'s residency on this core exactly
  // as a concurrent eviction would, leaving the caller's armed route stale.
  void FaultEvict(hw::Core& core, Binding& binding);

  // ---- Per-core slot residency (DESIGN.md section 15) ----
  // Returns the slot `ept_id` occupies on this core, making it resident if
  // needed: free slot reuse, then append while under the working set, then LRU (or
  // round-robin under the ablation) victim eviction via kEptpListReplace.
  // Touches the slot to the LRU head on hit. `faultable` arms the
  // kFaultSlotInstall point (the ArmGate slot-fault leg); dispatch-driven
  // installs pass false so a context switch can't be fault-injected.
  sb::StatusOr<uint32_t> EnsureResident(hw::Core& core, uint64_t ept_id, bool faultable);
  // Context-switch hook body: makes `process`'s own EPT resident and points
  // the core's active view at it. Eager (migration) additionally prefetches
  // the client's live bindings, in registration order, into *free* capacity
  // — prefetch never evicts a warmer core's working set.
  sb::Status InstallProcessView(hw::Core& core, mk::Process* process, bool eager);
  // Drops `ept_id`'s residency on one core / every core. Skips pinned and
  // active slots (an in-flight call keeps its views; the eviction ordering
  // rule again) — callers treat residual residency as benign.
  void EvictResidency(hw::Core& core, uint64_t ept_id);
  void EvictResidencyEverywhere(uint64_t ept_id);
  // Slot `ept_id` occupies on `core_id`, or kNoEptpSlot (no LRU touch).
  uint32_t ResidentSlot(int core_id, uint64_t ept_id) const;
  // Pin accounting for slots a live call depends on (see SlotPinGuard).
  void PinSlot(int core_id, uint32_t slot);
  void UnpinSlot(int core_id, uint32_t slot);

  // Registers the facade's per-binding revocation scrub (see RevokeScrub).
  void SetRevokeScrub(RevokeScrub scrub) { revoke_scrub_ = std::move(scrub); }
  // Every client with a live (non-revoked) binding to `server`, chain
  // origins included. Drives SkyBridge::RevokeServer.
  std::vector<mk::Process*> ClientsOfServer(ServerId server) const;

  // Structural invariants the stress runner asserts between events: every
  // binding recorded under its own client, revoked bindings swept once
  // drained, in-flight accounting, and the per-core residency cross-check
  // against each core's VMCS EPTP list (every cached slot holds the EPT the
  // VMCS slot points at, and the active view lies inside the list).
  sb::Status CheckInvariants() const;
  uint64_t InFlightCalls() const;

  // The route-cache invalidation epoch (see the header comment).
  uint64_t generation() const { return generation_; }

 private:
  // Slot-index LRU surgery over a core's cache (slot must be linked /
  // unlinked respectively).
  static void LruUnlink(CoreSlotCache& cache, uint32_t slot);
  static void LruPushFront(CoreSlotCache& cache, uint32_t slot);
  static void LruTouch(CoreSlotCache& cache, uint32_t slot);
  // Victim slot for an eviction on `core`, or kNoEptpSlot when every
  // candidate is pinned or active: LRU tail walk, or round-robin under the
  // naive ablation (config.lru_slot_eviction = false).
  uint32_t PickVictim(const hw::Core& core, CoreSlotCache& cache) const;

  mk::Kernel* kernel_;
  const SkyBridgeConfig* config_;
  std::vector<std::unique_ptr<Binding>> bindings_;  // Ownership only.
  BindingIndex index_;                              // (client, server) -> binding.
  std::unordered_map<mk::Process*, ClientState> clients_;  // Stable nodes.
  // EPT id -> every binding translating through it. Singleton lists without
  // consolidation; the shared-EPT sibling set with it. Drives the "last
  // holder drops residency" rule in SweepRevoked and the invariant sweep.
  std::unordered_map<uint64_t, std::vector<Binding*>> by_ept_;
  // Per-process own-EPT ids seen by InstallProcessView — resident ids in
  // this set are process views, not bindings, for the invariant cross-check.
  std::unordered_set<uint64_t> process_ept_ids_;
  std::vector<CoreSlotCache> core_cache_;  // Indexed by core id.
  RevokeScrub revoke_scrub_;
  // Epoch for the per-thread route caches. Bindings are never destroyed, so
  // this only moves on revocation (and any future removal path); bumping it
  // invalidates every thread's cached Binding* at once.
  uint64_t generation_ = 1;
  sb::telemetry::Counter* lookup_hits_;
  sb::telemetry::Counter* lookup_misses_;
  sb::telemetry::Counter* bindings_revoked_;
  sb::telemetry::Counter* slot_installs_;
  sb::telemetry::Counter* slot_evictions_;
};

// In-flight accounting bracketing a call on every exit path (both the
// authorizing binding and the routed one when they differ). Revocation
// never scrubs a binding under a live call — it defers to this guard's
// drain.
class InFlightGuard {
 public:
  InFlightGuard() = default;
  InFlightGuard(const InFlightGuard&) = delete;
  InFlightGuard& operator=(const InFlightGuard&) = delete;
  void Begin(RouteTable* table, Binding* perm, Binding* route) {
    table_ = table;
    a_ = perm;
    b_ = route != perm ? route : nullptr;
    ++a_->in_flight;
    ++a_->owner->inflight;
    if (b_ != nullptr) {
      ++b_->in_flight;
      ++b_->owner->inflight;
    }
  }
  ~InFlightGuard() {
    if (table_ == nullptr) {
      return;
    }
    if (b_ != nullptr) {
      table_->FinishCall(*b_);
    }
    table_->FinishCall(*a_);
  }

 private:
  RouteTable* table_ = nullptr;
  Binding* a_ = nullptr;
  Binding* b_ = nullptr;
};

// Pins the two slots a live call translates through (entry view + routed
// view) on the call's core, so no slot fault or eviction sweep can replace
// them mid-call. Declared *after* the InFlightGuard in call scope: the
// destructor order releases pins first, so the drain-triggered revocation
// sweep the guard runs sees the slots unpinned.
class SlotPinGuard {
 public:
  SlotPinGuard() = default;
  SlotPinGuard(const SlotPinGuard&) = delete;
  SlotPinGuard& operator=(const SlotPinGuard&) = delete;
  void Pin(RouteTable* table, int core_id, uint32_t entry_slot, uint32_t route_slot) {
    table_ = table;
    core_id_ = core_id;
    entry_ = entry_slot;
    route_ = route_slot;
    // Symmetric increments even when the slots coincide (nested-call legs
    // re-enter the same view); Release mirrors them exactly.
    table_->PinSlot(core_id_, entry_);
    table_->PinSlot(core_id_, route_);
  }
  void Release() {
    if (table_ == nullptr) {
      return;
    }
    table_->UnpinSlot(core_id_, route_);
    table_->UnpinSlot(core_id_, entry_);
    table_ = nullptr;
  }
  ~SlotPinGuard() { Release(); }

 private:
  RouteTable* table_ = nullptr;
  int core_id_ = 0;
  uint32_t entry_ = kNoEptpSlot;
  uint32_t route_ = kNoEptpSlot;
};

}  // namespace skybridge

#endif  // SRC_SKYBRIDGE_ROUTING_H_
