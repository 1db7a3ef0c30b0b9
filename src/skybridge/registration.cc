// SkyBridge registration: the kernel- and Rootkernel-mediated slow path.
// Code-page scanning/rewriting (Section 5), trampoline/key-table/stack/
// buffer mapping, binding-EPT creation and the lazy chain bindings nested
// calls use. Nothing here runs on the call fast path (skybridge.cc).
//
// The scrub itself is a staged pipeline (DESIGN.md section 17): every page
// flows through the content-hashed rewrite cache, and the registration mode
// picks when pages flow — eagerly at registration, one page per
// exec-violation fault (rewrite-on-first-execute), or never (restored from a
// snapshot of an identical template).

#include <algorithm>
#include <utility>

#include "src/base/faultpoint.h"
#include "src/base/logging.h"
#include "src/base/units.h"
#include "src/skybridge/skybridge.h"
#include "src/vmm/rootkernel.h"
#include "src/x86/rewrite_cache.h"
#include "src/x86/rewriter.h"
#include "src/x86/scanner.h"

namespace skybridge {

namespace {

// Gate pattern ids, also RegState::prepared bit indices and cache pattern
// ids: 0 = VMFUNC (EPTP backend), 1 = WRPKRU (MPK backend).
constexpr uint32_t kVmfuncPattern = 0;
constexpr uint32_t kWrpkruPattern = 1;
constexpr uint32_t kPatternCount = 2;

uint32_t PatternId(CrossingBackendKind backend) {
  return backend == CrossingBackendKind::kMpk ? kWrpkruPattern : kVmfuncPattern;
}

// Each pattern owns a fixed 16-page snippet window — VMFUNC at window 0,
// WRPKRU at window 1 — and within a window code page p's snippets live in
// their own sub-window page, so a page's rewrite is position-independent of
// every other page's (the property the content-hashed cache and the lazy
// per-page scrub rely on). Page 0's sub-window is the historical rewrite
// page address.
hw::Gva WindowVa(uint32_t pattern_id, size_t page_index) {
  return mk::kRewritePageVa + (16 * pattern_id + page_index) * sb::kPageSize;
}

size_t ImagePages(size_t image_bytes) {
  const size_t pages = sb::PageUp(image_bytes) / sb::kPageSize;
  return pages == 0 ? 1 : pages;
}

uint64_t AllPagesMask(size_t pages) {
  return pages >= 64 ? ~0ULL : (1ULL << pages) - 1;
}

}  // namespace

SkyBridge::RegState* SkyBridge::FindRegState(const mk::Process* process) {
  auto it = reg_states_.find(process);
  return it == reg_states_.end() ? nullptr : &it->second;
}

sb::StatusOr<SkyBridge::RegState*> SkyBridge::EnsureRegState(mk::Process* process) {
  if (RegState* st = FindRegState(process); st != nullptr) {
    return st;
  }
  const hw::GuestWalk code_walk = process->address_space().WalkVa(mk::kCodeVa);
  if (!code_walk.ok) {
    return sb::FailedPrecondition("process has no code mapping");
  }
  RegState st;
  std::vector<uint8_t> image = process->code_image();
  st.pristine_hash = x86::HashBytes(image);
  st.image_pages = ImagePages(image.size());
  st.pristine_image = InternPristine(std::move(image), st.pristine_hash);
  st.code_gpa = code_walk.gpa;
  code_ranges_[st.code_gpa] = process;
  return &reg_states_.emplace(process, std::move(st)).first->second;
}

SkyBridge::SharedImage SkyBridge::InternPristine(std::vector<uint8_t> image, uint64_t hash) {
  std::erase_if(pristine_images_, [](const auto& entry) { return entry.second.expired(); });
  std::weak_ptr<const std::vector<uint8_t>>& slot = pristine_images_[hash];
  SharedImage live = slot.lock();
  if (live != nullptr && *live == image) {
    return live;
  }
  SharedImage fresh = std::make_shared<const std::vector<uint8_t>>(std::move(image));
  if (live == nullptr) {
    slot = fresh;
  }  // Else another live image holds the hash: the collision keeps a private copy.
  return fresh;
}

sb::Status SkyBridge::ScrubPages(mk::Process* process, RegState& st, uint32_t pattern_id,
                                 uint64_t page_mask, hw::Core& core) {
  const hw::CostModel& costs = core.costs();
  const bool cached = config_.rewrite_cache_entries > 0;
  // The scrub reads the bytes the process executes — its code frames — and
  // writes edits back only there.
  std::vector<uint8_t> image = process->code_image();
  // Instruction starts of `image`, carried from page to page (empty = not
  // swept yet). A fresh page rewrite hands back the starts of the image it
  // leaves behind; a replayed patch invalidates them.
  std::vector<size_t> starts;
  auto& keys = st.page_keys[pattern_id];
  if (keys.size() < st.image_pages) {
    keys.resize(st.image_pages);
  }
  for (size_t p = 0; p < st.image_pages; ++p) {
    if (((page_mask >> p) & 1) == 0) {
      continue;
    }
    const std::span<const uint8_t> context = x86::CodePageContext(image, p);
    x86::RewriteCacheKey key;
    key.content_hash = x86::HashBytes(context);
    key.page_index = static_cast<uint32_t>(p);
    key.pattern_id = pattern_id;
    x86::PageRewrite pr;
    bool replayed = false;
    if (cached) {
      if (std::optional<x86::PageRewrite> hit = rewrite_cache_.Lookup(key, context)) {
        pr = *std::move(hit);
        replayed = true;
        metrics_.cache_hits->Add();
        core.AdvanceCycles(costs.rewrite_cache_replay);
      } else {
        metrics_.cache_misses->Add();
      }
    }
    if (!replayed) {
      x86::RewriteConfig rw;
      rw.code_base = mk::kCodeVa;
      rw.rewrite_page_base = WindowVa(pattern_id, p);
      rw.rewrite_page_capacity = sb::kPageSize;
      rw.pattern = pattern_id == kVmfuncPattern ? x86::kVmfuncBytes : x86::kWrpkruBytes;
      SB_ASSIGN_OR_RETURN(pr, x86::RewriteVmfuncPage(image, p, rw, starts));
      core.AdvanceCycles(costs.rewrite_scan_page);
      metrics_.pages_rescanned->Add();
      metrics_.scan_pages->Add(pr.stats.scan_pages);
      if (cached) {
        rewrite_cache_.Insert(key, context, pr);
      }
    } else if (!pr.patches.empty()) {
      starts.clear();
    }
    // Only a page whose content actually changed retires its old entry —
    // UpdateProcessCode re-runs this path and clean pages replay instead.
    if (keys[p].content_hash != 0 && !(keys[p] == key)) {
      rewrite_cache_.Invalidate(keys[p]);
    }
    keys[p] = key;
    metrics_.rewritten_vmfuncs->Add(
        static_cast<uint64_t>(pr.stats.nop_replaced + pr.stats.windows_relocated));
    for (const x86::PagePatch& patch : pr.patches) {
      if (patch.code_off + patch.bytes.size() > image.size()) {
        return sb::Internal("page rewrite patch outside the image");
      }
      std::copy(patch.bytes.begin(), patch.bytes.end(), image.begin() + patch.code_off);
    }
    if (!pr.snippets.empty()) {
      SB_RETURN_IF_ERROR(WriteWindowPage(process, st, WindowVa(pattern_id, p), pr.snippets));
    }
  }
  // Write the (partially) rewritten image back over the code pages.
  process->WriteCode(image);
  return sb::OkStatus();
}

sb::Status SkyBridge::WriteWindowPage(mk::Process* process, RegState& st, hw::Gva wva,
                                      const std::vector<uint8_t>& bytes) {
  hw::Gpa wgpa = 0;
  if (const hw::GuestWalk ww = process->address_space().WalkVa(wva); ww.ok) {
    wgpa = ww.gpa;
  } else {
    hw::PageFlags flags;
    flags.writable = false;
    SB_ASSIGN_OR_RETURN(wgpa,
                        process->address_space().MapAnonymous(wva, sb::kPageSize, flags));
  }
  kernel_->machine().mem().WriteShared(wgpa, bytes);
  st.window_pages[wva] = bytes;
  return sb::OkStatus();
}

sb::Status SkyBridge::SetCodeExec(hw::Core& core, const RegState& st, uint64_t page_mask,
                                  std::span<const uint64_t> epts, bool exec) {
  for (size_t p = 0; p < st.image_pages; ++p) {
    if (((page_mask >> p) & 1) == 0) {
      continue;
    }
    for (uint64_t ept : epts) {
      if (core.Vmcall(static_cast<uint64_t>(vmm::Hypercall::kProtectGpaExec), ept,
                      st.code_gpa + p * sb::kPageSize, exec ? 1 : 0) != 0) {
        return sb::Internal("rootkernel refused exec protection");
      }
    }
  }
  return sb::OkStatus();
}

sb::Status SkyBridge::EagerPass(mk::Process* process, uint32_t pattern_id) {
  if (!config_.rewrite_binaries) {
    return sb::OkStatus();
  }
  SB_ASSIGN_OR_RETURN(RegState * st, EnsureRegState(process));
  const uint8_t bit = static_cast<uint8_t>(1u << pattern_id);
  if ((st->prepared & bit) != 0) {
    return sb::OkStatus();
  }
  hw::Core& core = kernel_->machine().core(0);
  SB_RETURN_IF_ERROR(ScrubPages(process, *st, pattern_id, AllPagesMask(st->image_pages), core));
  st->prepared |= bit;
  SB_LOG(kDebug) << "rewrite " << sb::kv("pid", process->pid()) << " "
                 << sb::kv("pattern", pattern_id) << " " << sb::kv("pages", st->image_pages);
  if (st->nonexec_mask == 0 && !process->code_rewritten()) {
    process->set_code_rewritten(true);
    metrics_.processes_rewritten->Add();
  }
  return sb::OkStatus();
}

sb::Status SkyBridge::ArmLazy(mk::Process* process, uint32_t pattern_id) {
  SB_ASSIGN_OR_RETURN(RegState * st, EnsureRegState(process));
  const uint8_t bit = static_cast<uint8_t>(1u << pattern_id);
  if ((st->prepared & bit) != 0) {
    return sb::OkStatus();
  }
  if (st->protect_epts.empty()) {
    st->protect_epts.push_back(process->ept_id());
  }
  // Every code page goes (back to) non-executable in every enrolled EPT; the
  // exec-fault slow path scrubs pages one by one as they first run. Arming a
  // second pattern re-protects already-scrubbed pages so the fault re-scrubs
  // them for the union of prepared patterns.
  const bool was_pending = st->nonexec_mask != 0;
  SB_RETURN_IF_ERROR(SetCodeExec(kernel_->machine().core(0), *st, ~st->nonexec_mask,
                                 st->protect_epts, false));
  st->nonexec_mask = AllPagesMask(st->image_pages);
  if (!was_pending && st->nonexec_mask != 0) {
    ++lazy_pending_;
  }
  st->prepared |= bit;
  SB_LOG(kDebug) << "lazy-arm " << sb::kv("pid", process->pid()) << " "
                 << sb::kv("pattern", pattern_id) << " " << sb::kv("pages", st->image_pages);
  return sb::OkStatus();
}

sb::Status SkyBridge::UpdateProcessCode(mk::Process* process, std::vector<uint8_t> new_image) {
  if (new_image.size() > mk::kCodeSize) {
    return sb::InvalidArgument("code image larger than the code window");
  }
  // The generation phase: code pages are writable and non-executable; the
  // new bytes land in place.
  if (!process->address_space().WalkVa(mk::kCodeVa).ok) {
    return sb::FailedPrecondition("process has no code mapping");
  }
  // A shorter image's write zeroes the old image's tail, so no stale bytes
  // (half of a gate pattern, say) survive past the new end for the rescan
  // to miss.
  process->WriteCode(new_image);
  // Remap executable: the Subkernel rescans before the pages may run again.
  process->set_code_rewritten(false);

  uint8_t prepared = 0;
  if (RegState* st = FindRegState(process); st != nullptr) {
    // Updates are always eager (the new code must be scrub-verified before
    // it may run), so a lazy registration mid-flight lifts its exec
    // protection here and the rescan below covers everything.
    if (st->nonexec_mask != 0) {
      SB_RETURN_IF_ERROR(SetCodeExec(kernel_->machine().core(0), *st, st->nonexec_mask,
                                     st->protect_epts, true));
      st->nonexec_mask = 0;
      --lazy_pending_;
    }
    // Re-pristine against the new image; the code GPA is position-stable and
    // image_pages bounds the exec-fault range lookup. st->page_keys is
    // deliberately retained: ScrubPages diffs each page's fresh key
    // against it and invalidates exactly the dirtied pages' cache entries —
    // clean pages replay from the cache.
    st->image_pages = ImagePages(new_image.size());
    st->pristine_hash = x86::HashBytes(new_image);
    st->pristine_image = InternPristine(std::move(new_image), st->pristine_hash);
    st->window_pages.clear();
    prepared = std::exchange(st->prepared, 0);
  }
  // Drop any previous rewrite pages so the rescan can lay out fresh
  // snippets. Sweep both fixed windows (VMFUNC at 0, WRPKRU at 1) — either
  // may be sparsely mapped depending on which patterns the old image hit.
  for (hw::Gva va = mk::kRewritePageVa; va < WindowVa(kPatternCount, 0); va += sb::kPageSize) {
    if (process->address_space().WalkVa(va).ok) {
      SB_RETURN_IF_ERROR(process->address_space().Unmap(va));
    }
  }
  // Re-run every pattern pass the process had been prepared with; a process
  // never prepared (or prepared for kSyscall only) gets the VMFUNC pass, the
  // historical W^X contract. Always eager, whatever the registration mode.
  if (prepared == 0) {
    prepared = 1u << kVmfuncPattern;
  }
  for (uint32_t id = 0; id < kPatternCount; ++id) {
    if (((prepared >> id) & 1) != 0) {
      SB_RETURN_IF_ERROR(EagerPass(process, id));
    }
  }
  return sb::OkStatus();
}

sb::Status SkyBridge::EnsureProcessPrepared(mk::Process* process, CrossingBackendKind backend) {
  const CrossingBackend& be = gate_.backend(backend);
  if (be.caps().needs_rewrite && config_.rewrite_binaries) {
    // Every view-slot process gets the VMFUNC scrub (its EPTP list entries
    // are reachable by a planted 0f 01 d4 regardless of backend); MPK
    // additionally scrubs WRPKRU so only its trampoline can switch keys.
    const uint8_t needed = static_cast<uint8_t>(
        (be.caps().uses_view_slots ? 1u << kVmfuncPattern : 0u) | 1u << PatternId(backend));
    const RegState* st = FindRegState(process);
    const uint8_t have = st == nullptr ? 0 : st->prepared;
    if ((needed & ~have) != 0) {
      bool restored = false;
      if (config_.registration_mode == RegistrationMode::kSnapshot && have == 0) {
        // Near-instant cold start: an identical template was registered
        // before — restore its post-rewrite state instead of scanning.
        // A hash collision with another template falls through to a scan.
        const std::vector<uint8_t> image = process->code_image();
        if (auto lib = snapshot_library_.find(x86::HashBytes(image));
            lib != snapshot_library_.end() && (lib->second.prepared_mask & needed) == needed &&
            lib->second.pristine_image == image) {
          SB_RETURN_IF_ERROR(RestoreRegistration(process, lib->second));
          restored = true;
        }
      }
      if (!restored) {
        for (uint32_t id = 0; id < kPatternCount; ++id) {
          if (((needed >> id) & 1) != 0) {
            SB_RETURN_IF_ERROR(config_.registration_mode == RegistrationMode::kLazy
                                   ? ArmLazy(process, id)
                                   : EagerPass(process, id));
          }
        }
        if (config_.registration_mode == RegistrationMode::kSnapshot) {
          // First sighting of this template: auto-capture so the next clone
          // restores.
          sb::StatusOr<RegistrationSnapshot> snap = SnapshotRegistration(process);
          if (snap.ok()) {
            snapshot_library_[snap->pristine_hash] = *std::move(snap);
          }
        }
      }
    }
  }
  // Trampoline page (exec-only for users, shared frame). Each view-switch
  // backend maps its own variant; kSyscall maps none.
  if (be.caps().uses_trampoline &&
      !process->address_space().WalkVa(be.trampoline_va()).ok) {
    hw::PageFlags flags;
    flags.writable = false;
    const hw::Gpa tramp_gpa =
        backend == CrossingBackendKind::kMpk ? mpk_trampoline_gpa_ : trampoline_gpa_;
    SB_RETURN_IF_ERROR(process->address_space().MapRange(
        be.trampoline_va(), tramp_gpa, sb::kPageSize, flags));
  }
  // Per-process calling-key table page (all backends check calling keys).
  if (!process->address_space().WalkVa(mk::kCallingKeyTableVa).ok) {
    SB_RETURN_IF_ERROR(
        process->address_space()
            .MapAnonymous(mk::kCallingKeyTableVa, sb::kPageSize, hw::PageFlags{})
            .status());
  }
  return sb::OkStatus();
}

// ---- Registration snapshot / restore (DESIGN.md section 17) ----

sb::StatusOr<SkyBridge::RegistrationSnapshot> SkyBridge::SnapshotRegistration(
    mk::Process* process) {
  const RegState* st = FindRegState(process);
  if (st == nullptr || st->prepared == 0) {
    return sb::FailedPrecondition("process is not a prepared registration");
  }
  if (st->nonexec_mask != 0) {
    return sb::FailedPrecondition(
        "lazy rewrite incomplete: execute the image (or register eagerly) before capturing");
  }
  RegistrationSnapshot snap;
  snap.pristine_hash = st->pristine_hash;
  snap.pristine_image = *st->pristine_image;
  snap.prepared_mask = st->prepared;
  snap.code = process->code_image();
  snap.window_pages.assign(st->window_pages.begin(), st->window_pages.end());
  return snap;
}

sb::Status SkyBridge::RestoreRegistration(mk::Process* process,
                                          const RegistrationSnapshot& snapshot) {
  if (const RegState* prior = FindRegState(process);
      prior != nullptr && prior->prepared != 0) {
    return sb::FailedPrecondition("process already prepared; restore targets fresh clones");
  }
  if (snapshot.prepared_mask == 0 || snapshot.code.empty()) {
    return sb::InvalidArgument("empty registration snapshot");
  }
  if (process->code_image() != snapshot.pristine_image) {
    return sb::FailedPrecondition("process image does not match the snapshot's template");
  }
  if (snapshot.code.size() != snapshot.pristine_image.size()) {
    return sb::InvalidArgument("snapshot code and pristine image differ in length");
  }
  // Every window page must be one page of the snippet window: a longer page
  // would spill into the next frame, and any other VA names a page the
  // restore must not overwrite (the code, say).
  for (const auto& [wva, page] : snapshot.window_pages) {
    if (!sb::IsPageAligned(wva) || wva < mk::kRewritePageVa ||
        wva >= WindowVa(kPatternCount, 0) || page.size() > sb::kPageSize) {
      return sb::InvalidArgument("snapshot window page outside the snippet window");
    }
  }
  SB_ASSIGN_OR_RETURN(RegState * st, EnsureRegState(process));
  // A restore is bulk page copies — no scanning, no decoding.
  uint64_t bytes = snapshot.code.size();
  process->WriteCode(snapshot.code);
  for (const auto& [wva, page] : snapshot.window_pages) {
    SB_RETURN_IF_ERROR(WriteWindowPage(process, *st, wva, page));
    bytes += page.size();
  }
  hw::Core& core = kernel_->machine().core(0);
  const hw::CostModel& costs = core.costs();
  core.AdvanceCycles(costs.bulk_startup + (bytes / 64) * costs.bulk_line);
  st->prepared = snapshot.prepared_mask;
  metrics_.snapshot_restores->Add();
  if (!process->code_rewritten()) {
    process->set_code_rewritten(true);
    metrics_.processes_rewritten->Add();
  }
  return sb::OkStatus();
}

// ---- Rewrite-on-first-execute (DESIGN.md section 17) ----

sb::Status SkyBridge::ProtectServerPagesInEpt(hw::Core& core, mk::Process* server,
                                              uint64_t ept_id) {
  RegState* st = FindRegState(server);
  if (st == nullptr || st->nonexec_mask == 0 ||
      std::find(st->protect_epts.begin(), st->protect_epts.end(), ept_id) !=
          st->protect_epts.end()) {
    return sb::OkStatus();
  }
  SB_RETURN_IF_ERROR(SetCodeExec(core, *st, st->nonexec_mask, std::span(&ept_id, 1), false));
  st->protect_epts.push_back(ept_id);
  return sb::OkStatus();
}

sb::Status SkyBridge::EnsureCallExecutable(CallContext& ctx) {
  if (lazy_pending_ == 0) {
    return sb::OkStatus();  // Steady state: one compare, zero cycles.
  }
  // The client executes its call site; the server executes the handler entry
  // plus the tag-dispatched code path of this request. Each page still
  // awaiting its rewrite takes an exec-violation exit, whose handler
  // (HandleExecFault) rewrites it and clears its nonexec bit.
  const RegState* client = FindRegState(ctx.proc);
  const RegState* server = FindRegState(ctx.server->process);
  const size_t handler_page =
      static_cast<size_t>((ctx.server->handler_va - mk::kCodeVa) / sb::kPageSize);
  const size_t tag_page = server != nullptr ? ctx.request->tag % server->image_pages : 0;
  const std::pair<const RegState*, size_t> touches[] = {
      {client, 0}, {server, handler_page}, {server, tag_page}};
  for (const auto& [st, page] : touches) {
    if (st != nullptr && page < st->image_pages && ((st->nonexec_mask >> page) & 1) != 0) {
      SB_RETURN_IF_ERROR(
          kernel_->RaiseExecFault(*ctx.core, st->code_gpa + page * sb::kPageSize));
    }
  }
  return sb::OkStatus();
}

sb::Status SkyBridge::HandleExecFault(hw::Core& core, hw::Gpa gpa) {
  const uint64_t t0 = core.cycles();
  metrics_.exec_faults->Add();
  // The owner is the process with the greatest code base at or below `gpa`,
  // if `gpa` falls inside its image.
  auto it = code_ranges_.upper_bound(gpa);
  if (it == code_ranges_.begin()) {
    return sb::NotFound("exec fault on an untracked page");
  }
  mk::Process* process = std::prev(it)->second;
  RegState& st = *FindRegState(process);
  const size_t page = static_cast<size_t>((gpa - st.code_gpa) / sb::kPageSize);
  if (page >= st.image_pages) {
    return sb::NotFound("exec fault on an untracked page");
  }
  if (((st.nonexec_mask >> page) & 1) == 0) {
    return sb::OkStatus();  // Already rewritten: nothing to do.
  }
  // Bounded retry around the scrub (the kFaultExecScan recovery contract):
  // a failed attempt leaves the page non-executable and the next execution
  // re-enters this slow path.
  sb::Status status = sb::Unavailable("exec-fault rewrite not attempted");
  for (uint64_t attempt = 0; attempt <= kMaxStaleSlotRetries; ++attempt) {
    if (SB_FAULT_POINT(kFaultExecScan)) {
      status = sb::Unavailable("exec-fault page scan failed");
      continue;
    }
    status = sb::OkStatus();
    for (uint32_t id = 0; id < kPatternCount && status.ok(); ++id) {
      if (((st.prepared >> id) & 1) != 0) {
        status = ScrubPages(process, st, id, 1ULL << page, core);
      }
    }
    if (status.ok()) {
      break;
    }
  }
  if (!status.ok()) {
    return status;
  }
  st.nonexec_mask &= ~(1ULL << page);
  // We are already inside the Rootkernel's exit context: flip the permission
  // directly, no nested hypercall.
  vmm::Rootkernel* rk = kernel_->rootkernel();
  for (uint64_t ept : st.protect_epts) {
    SB_RETURN_IF_ERROR(rk->ProtectGpaExec(ept, st.code_gpa + page * sb::kPageSize, true));
  }
  metrics_.lazy_rewrites->Add();
  if (st.nonexec_mask == 0) {
    --lazy_pending_;
    if (!process->code_rewritten()) {
      process->set_code_rewritten(true);
      metrics_.processes_rewritten->Add();
    }
  }
  phase_exec_fault_->Record(core.cycles() - t0);
  return sb::OkStatus();
}

sb::StatusOr<ServerId> SkyBridge::RegisterServer(mk::Process* server, int max_connections,
                                                 mk::Handler handler) {
  return RegisterServer(server, max_connections, std::move(handler), config_.crossing_backend);
}

sb::StatusOr<ServerId> SkyBridge::RegisterServer(mk::Process* server, int max_connections,
                                                 mk::Handler handler,
                                                 CrossingBackendKind backend) {
  if (max_connections <= 0 || max_connections > 256) {
    return sb::InvalidArgument("connection count out of range");
  }
  SB_RETURN_IF_ERROR(EnsureProcessPrepared(server, backend));

  const ServerId id = servers_.size();
  // Per-connection server stacks (Section 4.4: the stack count bounds the
  // concurrency the server supports).
  const hw::Gva stacks_va = mk::kServerStacksVa + id * 256 * kServerStackBytes;
  SB_RETURN_IF_ERROR(server->address_space()
                         .MapAnonymous(stacks_va,
                                       static_cast<uint64_t>(max_connections) * kServerStackBytes,
                                       hw::PageFlags{})
                         .status());

  ServerEntry entry;
  entry.id = id;
  entry.process = server;
  entry.handler = std::move(handler);
  entry.max_connections = max_connections;
  entry.handler_va = mk::kCodeVa + 0x100;
  entry.backend = backend;
  servers_.push_back(std::move(entry));
  return id;
}

sb::Status SkyBridge::RegisterClient(mk::Process* client, ServerId server_id) {
  if (server_id >= servers_.size()) {
    return sb::NotFound("no such server");
  }
  ServerEntry& server = servers_[server_id];
  if (Binding* existing = routes_.Find(client, server_id); existing != nullptr) {
    if (!existing->revoked) {
      return sb::AlreadyExists("client already registered to this server");
    }
    // Revival: the record persisted through revocation (bindings are never
    // destroyed). Re-registration issues a fresh calling key; the buffer
    // region and EPT id are reused as-is, and the next call faults the EPT
    // back into a slot.
    hw::Core& core = kernel_->machine().core(0);
    mk::Kernel::SyscallScope kernel_entry(*kernel_, core);
    // A swept consolidated binding had its CR3 translation restored to
    // identity by the revocation scrub: re-add the remap into the shared EPT
    // before the binding goes live again.
    if (config_.consolidate_bindings && !existing->chain &&
        existing->ept_id == server.shared_ept_id &&
        core.Vmcall(static_cast<uint64_t>(vmm::Hypercall::kAddCr3Remap), existing->ept_id,
                    client->cr3(), server.process->cr3()) != 0) {
      return sb::Internal("rootkernel refused CR3 remap into the shared EPT");
    }
    existing->server_key = key_rng_.Next();
    WriteKeySlot(server, existing->key_slot, existing->server_key, client->pid());
    existing->revoked = false;
    existing->swept = false;
    return sb::OkStatus();
  }
  if (server.next_connection >= static_cast<uint64_t>(server.max_connections)) {
    return sb::ResourceExhausted("server connection limit reached");
  }
  SB_RETURN_IF_ERROR(EnsureProcessPrepared(client, server.backend));

  hw::Core& core = kernel_->machine().core(0);
  // Registration is a syscall: charge the kernel path.
  mk::Kernel::SyscallScope kernel_entry(*kernel_, core);

  // Shared buffer region for long messages, carved into per-connection
  // slices (buffers.cc owns the geometry). It is made before any EPT work,
  // so a refused region leaves the Rootkernel untouched, and an EPT step
  // that fails below undoes it.
  SB_ASSIGN_OR_RETURN(BufferPool::Region region, buffers_.CreateRegion(client, server.process));
  const auto undo_region = [&](const sb::Status& failed) {
    buffers_.DestroyRegion(client, server.process, region);
    return failed;
  };

  // Binding-EPT consolidation (DESIGN.md section 15): all direct clients of
  // one server share a single binding EPT — each client only adds its own
  // CR3 remap to it — collapsing O(clients x servers) EPTs to O(servers).
  // Without consolidation every pair gets its own shallow copy of the base
  // EPT.
  uint64_t shared_ept_id = 0;
  if (config_.consolidate_bindings && server.shared_ept_id != 0) {
    shared_ept_id = server.shared_ept_id;
    if (core.Vmcall(static_cast<uint64_t>(vmm::Hypercall::kAddCr3Remap), shared_ept_id,
                    client->cr3(), server.process->cr3()) != 0) {
      return undo_region(sb::Internal("rootkernel refused CR3 remap into the shared EPT"));
    }
  }
  sb::StatusOr<std::unique_ptr<Binding>> made = NewBinding(core, client, server_id, shared_ept_id);
  if (!made.ok()) {
    return undo_region(made.status());
  }
  std::unique_ptr<Binding> binding = std::move(*made);
  if (config_.consolidate_bindings) {
    server.shared_ept_id = binding->ept_id;
  }
  buffers_.BackRegion(region);

  // Calling key: random 8 bytes, written into the server's key table.
  binding->server_key = key_rng_.Next();
  binding->key_slot = server.next_connection++;
  WriteKeySlot(server, binding->key_slot, binding->server_key, client->pid());
  binding->shared_buf = region.va;
  binding->slice_stride = region.slice_stride;
  binding->num_slices = region.num_slices;
  binding->host_base = region.host_base;
  routes_.Adopt(std::move(binding));
  return sb::OkStatus();
}

sb::StatusOr<std::unique_ptr<Binding>> SkyBridge::NewBinding(hw::Core& core, mk::Process* client,
                                                             ServerId server_id,
                                                             uint64_t shared_ept_id) {
  const ServerEntry& server = servers_[server_id];
  uint64_t ept_id = shared_ept_id;
  if (ept_id == 0) {
    ept_id = core.Vmcall(static_cast<uint64_t>(vmm::Hypercall::kCreateBindingEpt),
                         client->cr3(), server.process->cr3());
    if (ept_id == vmm::kHypercallError) {
      return sb::Internal("rootkernel refused binding EPT");
    }
    if (core.Vmcall(static_cast<uint64_t>(vmm::Hypercall::kRemapIdentityPage), ept_id,
                    kernel_->identity_gpa(), server.process->identity_frame()) != 0) {
      return sb::Internal("rootkernel refused identity remap");
    }
  }
  // Lazy registration: the server's still-unscrubbed pages must be
  // non-executable through this EPT too, so the first call through it
  // faults into the rewrite slow path instead of running unscanned code.
  SB_RETURN_IF_ERROR(ProtectServerPagesInEpt(core, server.process, ept_id));
  auto binding = std::make_unique<Binding>();
  binding->client = client;
  binding->server = server_id;
  binding->ept_id = ept_id;
  binding->backend = server.backend;
  binding->view_slots = gate_.backend(server.backend).caps().uses_view_slots;
  if (server.backend == CrossingBackendKind::kMpk) {
    binding->pkey = static_cast<uint8_t>(1 + (next_pkey_++ % 15));
  }
  return binding;
}

void SkyBridge::WriteKeySlot(const ServerEntry& server, uint64_t slot, uint64_t key,
                             uint64_t pid) {
  const hw::GuestWalk table = server.process->address_space().WalkVa(mk::kCallingKeyTableVa);
  SB_CHECK(table.ok);
  hw::HostPhysMem& mem = kernel_->machine().mem();
  mem.WriteU64(table.gpa + slot * kKeySlotBytes, key);
  mem.WriteU64(table.gpa + slot * kKeySlotBytes + 8, pid);
}

sb::StatusOr<Binding*> SkyBridge::GetOrCreateChainBinding(hw::Core& core, mk::Process* origin,
                                                          ServerId server_id) {
  Binding* existing = routes_.Find(origin, server_id);
  if (existing != nullptr) {
    return existing;
  }
  // Lazy chain setup: kernel + Rootkernel mediated (slow path).
  SB_ASSIGN_OR_RETURN(std::unique_ptr<Binding> binding, NewBinding(core, origin, server_id, 0));
  binding->chain = true;
  Binding* b = routes_.Adopt(std::move(binding));
  if (b->view_slots) {
    // The kernel entry that admits a new view onto the caller's EPTP list.
    mk::Kernel::SyscallScope admit(*kernel_, core);
  }
  return b;
}

}  // namespace skybridge
