#include "src/skybridge/routing.h"

#include <algorithm>

#include "src/base/faultpoint.h"
#include "src/base/logging.h"
#include "src/base/telemetry/trace.h"
#include "src/vmm/rootkernel.h"

namespace skybridge {

using sb::telemetry::TraceEventType;

size_t BindingIndex::Hash(const mk::Process* client, ServerId server) {
  // splitmix64 finalizer over the pointer/id mix: cheap and well spread for
  // linear probing.
  uint64_t x = reinterpret_cast<uintptr_t>(client) ^ (server * 0x9e3779b97f4a7c15ULL);
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ULL;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebULL;
  x ^= x >> 31;
  return static_cast<size_t>(x);
}

Binding* BindingIndex::Find(const mk::Process* client, ServerId server) const {
  const size_t mask = slots_.size() - 1;
  for (size_t i = Hash(client, server) & mask;; i = (i + 1) & mask) {
    Binding* b = slots_[i];
    if (b == nullptr) {
      return nullptr;
    }
    if (b->client == client && b->server == server) {
      return b;
    }
  }
}

void BindingIndex::Insert(Binding* binding) {
  if ((size_ + 1) * 4 > slots_.size() * 3) {  // Keep load factor under 3/4.
    Grow();
  }
  const size_t mask = slots_.size() - 1;
  size_t i = Hash(binding->client, binding->server) & mask;
  while (slots_[i] != nullptr) {
    i = (i + 1) & mask;
  }
  slots_[i] = binding;
  ++size_;
}

void BindingIndex::Grow() {
  std::vector<Binding*> old = std::move(slots_);
  slots_.assign(old.size() * 2, nullptr);
  const size_t mask = slots_.size() - 1;
  for (Binding* b : old) {
    if (b == nullptr) {
      continue;
    }
    size_t i = Hash(b->client, b->server) & mask;
    while (slots_[i] != nullptr) {
      i = (i + 1) & mask;
    }
    slots_[i] = b;
  }
}

RouteTable::RouteTable(mk::Kernel& kernel, const SkyBridgeConfig& config)
    : kernel_(&kernel), config_(&config) {
  sb::telemetry::Registry& reg = kernel.machine().telemetry();
  lookup_hits_ = &reg.GetCounter("skybridge.lookup.hits");
  lookup_misses_ = &reg.GetCounter("skybridge.lookup.misses");
  bindings_revoked_ = &reg.GetCounter("skybridge.bindings.revoked");
  slot_installs_ = &reg.GetCounter("skybridge.eptp.slot_installs");
  slot_evictions_ = &reg.GetCounter("skybridge.eptp.slot_evictions");
  SB_CHECK(config.eptp_working_set >= 4 && config.eptp_working_set <= hw::kEptpListCapacity)
      << "eptp_working_set must fit the hardware EPTP list";
  core_cache_.resize(static_cast<size_t>(kernel.machine().num_cores()));
  if (kernel.rootkernel() == nullptr) {
    return;
  }
  // Normalize every core to the known boot shape: slot 0 = base EPT, active
  // view = base. From here on, residency only ever appends or replaces in
  // place — the list never reshuffles.
  for (int i = 0; i < kernel.machine().num_cores(); ++i) {
    hw::Core& core = kernel.machine().core(i);
    SB_CHECK(core.Vmcall(static_cast<uint64_t>(vmm::Hypercall::kEptpListClear)) == 0)
        << "EPTP list clear failed during route-table init";
    SB_CHECK(core.Vmcall(static_cast<uint64_t>(vmm::Hypercall::kEptpListAppend), 0) !=
             vmm::kHypercallError)
        << "base-EPT append failed during route-table init";
    CoreSlotCache& cache = core_cache_[static_cast<size_t>(i)];
    cache.ids.assign(1, 0);
    cache.stamp.assign(1, 0);
    cache.pins.assign(1, 0);
  }
}

Binding* RouteTable::Find(const mk::Process* client, ServerId server) const {
  return index_.Find(client, server);
}

Binding* RouteTable::Lookup(mk::Thread* caller, ServerId server) {
  hw::Core& core = kernel_->machine().core(caller->core_id());
  mk::Thread::RouteCache& cache = caller->route_cache();
  if (cache.generation == generation() && cache.key == server && cache.route != nullptr) {
    Binding* cached = static_cast<Binding*>(cache.route);
    if (cached->client == caller->process()) {
      lookup_hits_->Add();
      SB_TRACE_EVENT(core, TraceEventType::kLookupHit, caller->process()->pid(), server);
      return cached;
    }
  }
  lookup_misses_->Add();
  Binding* binding = index_.Find(caller->process(), server);
  SB_TRACE_EVENT(core,
                 binding != nullptr ? TraceEventType::kLookupHit : TraceEventType::kLookupMiss,
                 caller->process()->pid(), server);
  if (binding != nullptr) {
    cache.key = server;
    cache.route = binding;
    cache.generation = generation();
  }
  return binding;
}

Binding* RouteTable::Adopt(std::unique_ptr<Binding> binding) {
  Binding* b = binding.get();
  ClientState& state = clients_[b->client];  // Node pointers are stable.
  b->owner = &state;
  state.bindings.push_back(b);
  index_.Insert(b);
  by_ept_[b->ept_id].push_back(b);
  bindings_.push_back(std::move(binding));
  return b;
}

uint32_t RouteTable::PickVictim(const hw::Core& core, CoreSlotCache& cache) const {
  const uint32_t active = static_cast<uint32_t>(core.vmcs().active_index);
  const uint32_t n = static_cast<uint32_t>(cache.ids.size());
  auto evictable = [&](uint32_t s) {
    return s != 0 && cache.ids[s] != 0 && s != active && cache.pins[s] == 0;
  };
  if (config_->lru_slot_eviction) {
    uint32_t victim = kNoEptpSlot;
    for (uint32_t s = 1; s < n; ++s) {
      if (evictable(s) && (victim == kNoEptpSlot || cache.stamp[s] < cache.stamp[victim])) {
        victim = s;
      }
    }
    return victim;
  }
  // Naive ablation: round-robin over occupied slots >= 1, recency-blind.
  for (uint32_t i = 0; i < n; ++i) {
    const uint32_t s = cache.rr_cursor;
    cache.rr_cursor = (cache.rr_cursor + 1 >= n) ? 1 : cache.rr_cursor + 1;
    if (s < n && evictable(s)) {
      return s;
    }
  }
  return kNoEptpSlot;
}

sb::StatusOr<uint32_t> RouteTable::EnsureResident(hw::Core& core, uint64_t ept_id,
                                                  bool faultable) {
  const uint32_t hit = TouchResident(core.id(), ept_id);
  if (hit != kNoEptpSlot) {
    return hit;
  }
  if (faultable && SB_FAULT_POINT(kFaultSlotInstall)) {
    return sb::Unavailable("rootkernel refused the slot install");
  }
  CoreSlotCache& cache = core_cache_[static_cast<size_t>(core.id())];
  uint32_t slot = cache.FreeSlot();
  if (slot != kNoEptpSlot) {
    // Reuse a freed slot in place; nothing else moves.
    if (core.Vmcall(static_cast<uint64_t>(vmm::Hypercall::kEptpListReplace), slot, ept_id) ==
        vmm::kHypercallError) {
      return sb::Internal("EPTP slot replace refused on a free slot");
    }
  } else if (cache.ids.size() < config_->eptp_working_set) {
    // Grow the list while under the working set.
    const uint64_t appended =
        core.Vmcall(static_cast<uint64_t>(vmm::Hypercall::kEptpListAppend), ept_id);
    if (appended == vmm::kHypercallError) {
      return sb::Internal("EPTP list append refused");
    }
    slot = static_cast<uint32_t>(appended);
    SB_CHECK(slot == cache.ids.size()) << "rootkernel append slot disagrees with the cache";
    cache.ids.push_back(0);
    cache.stamp.push_back(0);
    cache.pins.push_back(0);
  } else {
    // Working set full: evict a victim and take its slot in place.
    const uint32_t victim = PickVictim(core, cache);
    if (victim == kNoEptpSlot) {
      return sb::ResourceExhausted("every EPTP slot is pinned or active");
    }
    SB_TRACE_EVENT(core, TraceEventType::kEptEvict, cache.ids[victim], victim);
    if (core.Vmcall(static_cast<uint64_t>(vmm::Hypercall::kEptpListReplace), victim, ept_id) ==
        vmm::kHypercallError) {
      return sb::Internal("EPTP slot replace refused");
    }
    slot_evictions_->Add();
    slot = victim;
  }
  cache.ids[slot] = ept_id;
  cache.Stamp(slot);
  slot_installs_->Add();
  SB_TRACE_EVENT(core, TraceEventType::kEptInstall, ept_id, slot);
  return slot;
}

sb::Status RouteTable::InstallProcessView(hw::Core& core, mk::Process* process, bool eager) {
  process_ept_ids_.insert(process->ept_id());
  SB_ASSIGN_OR_RETURN(const uint32_t slot, EnsureResident(core, process->ept_id(), false));
  core.vmcs().active_index = slot;
  if (!eager) {
    return sb::OkStatus();
  }
  // Migration prefetch: warm the destination core with the client's live
  // bindings, in registration order, but only into spare capacity —
  // prefetch never evicts what the core already runs hot.
  CoreSlotCache& cache = core_cache_[static_cast<size_t>(core.id())];
  auto it = clients_.find(process);
  if (it == clients_.end()) {
    return sb::OkStatus();
  }
  for (const Binding* b : it->second.bindings) {
    if (b->revoked || !b->view_slots) {
      continue;
    }
    if (cache.SlotOf(b->ept_id) != kNoEptpSlot) {
      continue;
    }
    if (cache.FreeSlot() == kNoEptpSlot && cache.ids.size() >= config_->eptp_working_set) {
      break;
    }
    SB_RETURN_IF_ERROR(EnsureResident(core, b->ept_id, false).status());
  }
  return sb::OkStatus();
}

void RouteTable::EvictResidency(hw::Core& core, uint64_t ept_id) {
  CoreSlotCache& cache = core_cache_[static_cast<size_t>(core.id())];
  const uint32_t slot = cache.SlotOf(ept_id);
  if (slot == kNoEptpSlot || slot == 0) {
    return;
  }
  if (cache.pins[slot] > 0 || slot == core.vmcs().active_index) {
    // Eviction ordering rule: a slot a live call depends on (or the active
    // view) keeps its translation; callers treat residual residency as
    // benign and retry later.
    return;
  }
  if (core.Vmcall(static_cast<uint64_t>(vmm::Hypercall::kEptpListReplace), slot, 0) ==
      vmm::kHypercallError) {
    return;
  }
  SB_TRACE_EVENT(core, TraceEventType::kEptEvict, ept_id, slot);
  slot_evictions_->Add();
  cache.ids[slot] = 0;
  cache.Stamp(slot);
}

void RouteTable::EvictResidencyEverywhere(uint64_t ept_id) {
  for (int i = 0; i < kernel_->machine().num_cores(); ++i) {
    EvictResidency(kernel_->machine().core(i), ept_id);
  }
}

uint32_t RouteTable::ResidentSlot(int core_id, uint64_t ept_id) const {
  return core_cache_[static_cast<size_t>(core_id)].SlotOf(ept_id);
}

uint32_t RouteTable::TouchResident(int core_id, uint64_t ept_id) {
  CoreSlotCache& cache = core_cache_[static_cast<size_t>(core_id)];
  const uint32_t slot = cache.SlotOf(ept_id);
  if (slot != kNoEptpSlot) {
    cache.Stamp(slot);
  }
  return slot;
}

void RouteTable::PinSlot(int core_id, uint32_t slot) {
  CoreSlotCache& cache = core_cache_[static_cast<size_t>(core_id)];
  if (slot < cache.pins.size()) {
    ++cache.pins[slot];
  }
}

void RouteTable::UnpinSlot(int core_id, uint32_t slot) {
  CoreSlotCache& cache = core_cache_[static_cast<size_t>(core_id)];
  if (slot < cache.pins.size() && cache.pins[slot] > 0) {
    --cache.pins[slot];
  }
}

sb::Status RouteTable::Revoke(mk::Process* client, ServerId server) {
  Binding* binding = Find(client, server);
  if (binding == nullptr) {
    return sb::NotFound("client not registered to server");
  }
  if (!binding->revoked) {
    binding->revoked = true;
    binding->swept = false;
    ++generation_;  // Drop cached routes.
    bindings_revoked_->Add();
    hw::Core& core = kernel_->machine().core(0);
    SB_TRACE_EVENT(core, TraceEventType::kBindingRevoked, client->pid(), server);
    SB_LOG(kDebug) << "binding revoked " << sb::kv("client", client->pid())
                   << " " << sb::kv("server", server);
  }
  SweepRevoked(client);
  return sb::OkStatus();
}

void RouteTable::FinishCall(Binding& binding) {
  if (binding.in_flight > 0) {
    --binding.in_flight;
  }
  ClientState* state = binding.owner;
  if (state->inflight > 0) {
    --state->inflight;
  }
  if (state->inflight == 0 && state->pending_revocations) {
    SweepRevoked(binding.client);
  }
}

void RouteTable::SweepRevoked(mk::Process* client) {
  auto it = clients_.find(client);
  if (it == clients_.end()) {
    return;
  }
  ClientState& state = it->second;
  if (state.inflight > 0) {
    // Never scrub under a live call: the server-side reply still translates
    // through the binding EPT. The last drain of this client re-runs the
    // sweep.
    state.pending_revocations = true;
    return;
  }
  state.pending_revocations = false;
  for (Binding* b : state.bindings) {
    if (!b->revoked || b->swept) {
      continue;
    }
    if (revoke_scrub_) {
      // Facade teardown: zero the calling-key slot; under consolidation,
      // restore the client's CR3 translation inside the shared EPT.
      revoke_scrub_(*b);
    }
    b->swept = true;
    // Drop residency everywhere once no sibling still translates through
    // the EPT (consolidated siblings of other clients keep it resident).
    bool sibling_holds = false;
    auto siblings = by_ept_.find(b->ept_id);
    if (siblings != by_ept_.end()) {
      for (Binding* s : siblings->second) {
        if (s != b && !(s->revoked && s->swept)) {
          sibling_holds = true;
          break;
        }
      }
    }
    if (!sibling_holds) {
      EvictResidencyEverywhere(b->ept_id);
    }
  }
}

void RouteTable::FaultEvict(hw::Core& core, Binding& binding) {
  SB_TRACE_EVENT(core, TraceEventType::kEptEvict, binding.server,
                 ResidentSlot(core.id(), binding.ept_id));
  // Skips pinned/active slots, exactly like a concurrent eviction would
  // have to.
  EvictResidency(core, binding.ept_id);
}

std::vector<mk::Process*> RouteTable::ClientsOfServer(ServerId server) const {
  std::vector<mk::Process*> out;
  for (const auto& binding : bindings_) {
    if (binding->server == server && !binding->revoked) {
      out.push_back(binding->client);
    }
  }
  return out;
}

sb::Status RouteTable::CheckInvariants() const {
  for (const auto& [client, state] : clients_) {
    uint64_t inflight_sum = 0;
    for (const Binding* b : state.bindings) {
      inflight_sum += b->in_flight;
      if (b->client != client || b->owner != &state) {
        return sb::Internal("binding recorded under the wrong client");
      }
      if (b->revoked && !b->swept && state.inflight == 0) {
        return sb::Internal("drained revoked binding left unswept");
      }
      // Slice owners: at most one slice per connection, and no more
      // owners than slices.
      const std::vector<int>& owners = b->slice_owners;
      if (owners.size() > b->num_slices) {
        return sb::Internal("more slice owners than slices");
      }
      for (size_t i = 0; i < owners.size(); ++i) {
        if (std::find(owners.begin(), owners.begin() + i, owners[i]) != owners.begin() + i) {
          return sb::Internal("one connection owns two buffer slices");
        }
      }
    }
    if (inflight_sum != state.inflight) {
      return sb::Internal("per-client in-flight sum out of sync");
    }
  }
  // ---- Per-core residency cross-check (DESIGN.md section 15) ----
  if (kernel_->rootkernel() == nullptr) {
    return sb::OkStatus();
  }
  for (int c = 0; c < kernel_->machine().num_cores(); ++c) {
    const CoreSlotCache& cache = core_cache_[static_cast<size_t>(c)];
    if (cache.ids.empty()) {
      continue;  // Core never initialized (no rootkernel at table birth).
    }
    // The cache against what the Rootkernel programmed into the VMCS.
    const hw::Vmcs& vmcs = kernel_->machine().core(c).vmcs();
    if (cache.ids.size() != vmcs.eptp_list.size()) {
      return sb::Internal("per-core slot cache length disagrees with the VMCS EPTP list");
    }
    for (size_t s = 0; s < cache.ids.size(); ++s) {
      if (vmcs.eptp_list[s] != kernel_->rootkernel()->ept(cache.ids[s])) {
        return sb::Internal("per-core slot cache disagrees with the VMCS EPTP list");
      }
    }
    if (vmcs.active_index >= vmcs.eptp_list.size()) {
      return sb::Internal("active EPTP view index outside the installed list");
    }
    if (cache.ids[0] != 0) {
      return sb::Internal("slot 0 no longer holds the base EPT");
    }
    if (cache.ids.size() > config_->eptp_working_set || cache.stamp.size() != cache.ids.size() ||
        cache.pins.size() != cache.ids.size()) {
      return sb::Internal("slot cache shape out of bounds");
    }
    std::vector<uint64_t> resident;
    for (uint32_t s = 1; s < cache.ids.size(); ++s) {
      if (cache.ids[s] != 0) {
        resident.push_back(cache.ids[s]);
      } else if (cache.pins[s] != 0) {
        return sb::Internal("free slot still pinned");
      }
    }
    std::sort(resident.begin(), resident.end());
    if (std::adjacent_find(resident.begin(), resident.end()) != resident.end()) {
      return sb::Internal("one EPT occupies two slots");
    }
    // Every resident non-process EPT maps back to at least one live binding
    // (satellite: resident slot <-> live, non-revoked binding).
    for (uint32_t s = 1; s < cache.ids.size(); ++s) {
      const uint64_t id = cache.ids[s];
      if (id == 0 || process_ept_ids_.count(id) != 0) {
        continue;
      }
      auto holders = by_ept_.find(id);
      bool live = false;
      if (holders != by_ept_.end()) {
        for (const Binding* b : holders->second) {
          if (!(b->revoked && b->swept)) {
            live = true;
            break;
          }
        }
      }
      if (!live) {
        return sb::Internal("resident slot maps to no live binding");
      }
    }
  }
  return sb::OkStatus();
}

uint64_t RouteTable::InFlightCalls() const {
  uint64_t total = 0;
  for (const auto& entry : clients_) {
    total += entry.second.inflight;
  }
  return total;
}

}  // namespace skybridge
