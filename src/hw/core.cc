#include "src/hw/core.h"

#include <algorithm>

#include "src/base/logging.h"
#include "src/base/units.h"
#include "src/hw/ept.h"
#include "src/hw/machine.h"
#include "src/hw/paging.h"

namespace hw {

namespace {

// Skylake-class TLB reach per core.
constexpr size_t kItlbEntries = 128;
constexpr size_t kDtlbEntries = 1536;  // dTLB + STLB combined.

}  // namespace

Core::Core(int id, Machine* machine)
    : id_(id),
      machine_(machine),
      l1i_(L1iConfig()),
      l1d_(L1dConfig()),
      l2_(L2Config()),
      itlb_(kItlbEntries),
      dtlb_(kDtlbEntries) {}

const CostModel& Core::costs() const { return machine_->costs(); }

void Core::EnterNonRoot(Ept* base_ept, uint16_t vpid) {
  SB_CHECK(!nonroot_) << "already in non-root mode";
  nonroot_ = true;
  vmcs_ = Vmcs{};
  vmcs_.vpid = vpid;
  vmcs_.eptp_list.assign(1, base_ept);
  vmcs_.active_index = 0;
  // The translation context changes (EP4TA tag appears); cached native
  // translations no longer match, which is the architecturally visible
  // behaviour of VM entry with a fresh EP4TA.
}

void Core::LeaveNonRoot() {
  nonroot_ = false;
  vmcs_ = Vmcs{};
}

Hpa Core::ep4ta() const {
  if (!nonroot_) {
    return 0;
  }
  const Ept* active = vmcs_.active_ept();
  return active == nullptr ? 0 : active->root();
}

void Core::WriteCr3(Gpa root, uint16_t new_pcid, bool noflush) {
  AdvanceCycles(costs().cr3_write, Bucket::kCtxSwitch);
  ++pmu_.cr3_writes;
  cr3_ = root;
  pcid_ = new_pcid;
  if (!noflush) {
    itlb_.FlushPcid(vmcs_.vpid, new_pcid);
    dtlb_.FlushPcid(vmcs_.vpid, new_pcid);
  }
}

sb::Status Core::Vmfunc(uint32_t leaf, uint32_t index) {
  if (!nonroot_) {
    // #UD on bare metal; surfaced as an error the caller must not ignore.
    return sb::FailedPrecondition("VMFUNC executed outside non-root mode");
  }
  AdvanceCycles(costs().vmfunc);
  ++pmu_.vmfuncs;
  if (leaf != 0 || index >= vmcs_.eptp_list.size() || vmcs_.eptp_list[index] == nullptr) {
    VmExitInfo info{VmExitReason::kVmfuncInvalid, leaf, index, 0, 0};
    machine_->DeliverVmExit(*this, info);
    return sb::InvalidArgument("invalid VMFUNC leaf/index");
  }
  vmcs_.active_index = index;
  // With VPID enabled VMFUNC does not flush the TLB (Table 2); entries are
  // naturally separated by their EP4TA tag.
  return sb::OkStatus();
}

void Core::Wrpkru(uint32_t pkru) {
  // WRPKRU is unprivileged and works identically in root and non-root mode:
  // no VM exit, no TLB flush, no pipeline drain beyond the charged cost.
  AdvanceCycles(costs().wrpkru);
  ++pmu_.wrpkrus;
  pkru_ = pkru;
}

uint64_t Core::Vmcall(uint64_t code, uint64_t arg0, uint64_t arg1, uint64_t arg2) {
  VmExitInfo info{VmExitReason::kVmcall, code, arg0, arg1, arg2};
  return machine_->DeliverVmExit(*this, info);
}

void Core::Cpuid() {
  if (nonroot_) {
    VmExitInfo info{VmExitReason::kCpuid, 0, 0, 0, 0};
    machine_->DeliverVmExit(*this, info);
  } else {
    AdvanceCycles(100);  // Bare-metal CPUID serialization cost.
  }
}

uint64_t Core::ProbeAccess(Hpa hpa, bool ifetch) {
  const CostModel& cm = costs();
  ++pmu_.mem_accesses;
  Cache& l1 = ifetch ? l1i_ : l1d_;
  if (l1.Access(hpa)) {
    return cm.l1_hit;
  }
  if (ifetch) {
    ++pmu_.icache_miss;
  } else {
    ++pmu_.dcache_miss;
  }
  if (l2_.Access(hpa)) {
    return cm.l2_hit;
  }
  ++pmu_.l2_miss;
  if (machine_->l3().Access(hpa)) {
    return cm.l3_hit;
  }
  ++pmu_.l3_miss;
  return cm.dram;
}

uint64_t Core::ChargeAccess(Hpa hpa, bool ifetch) {
  const uint64_t latency = ProbeAccess(hpa, ifetch);
  AdvanceCycles(latency);
  return latency;
}

void Core::ChargeLines(Hpa hpa, uint64_t len, bool streaming) {
  if (!streaming) {
    for (Hpa line = hpa & ~(kCacheLineBytes - 1); line < hpa + len; line += kCacheLineBytes) {
      ChargeAccess(line, /*ifetch=*/false);
    }
    return;
  }
  const CostModel& cm = costs();
  for (Hpa line = hpa & ~(kCacheLineBytes - 1); line < hpa + len; line += kCacheLineBytes) {
    const uint64_t latency = ProbeAccess(line, /*ifetch=*/false);
    uint64_t charge = cm.bulk_line;
    if (latency > cm.l1_hit) {
      // The prefetcher overlaps outstanding fills: only a fraction of the
      // miss latency is exposed to the streaming copy.
      charge += (latency - cm.l1_hit) / cm.bulk_miss_overlap;
    }
    AdvanceCycles(charge);
  }
}

sb::StatusOr<Hpa> Core::EptTranslateCharged(Gpa gpa, uint8_t need) {
  if (!nonroot_) {
    if (!machine_->mem().Contains(gpa)) {
      return sb::OutOfRange("physical address outside RAM");
    }
    return gpa;
  }
  Ept* ept = vmcs_.active_ept();
  SB_CHECK(ept != nullptr) << "non-root mode with no active EPT";
  for (int attempt = 0; attempt < 2; ++attempt) {
    const EptWalk walk = ept->Walk(gpa, need);
    for (int i = 0; i < walk.num_table_reads; ++i) {
      ChargeAccess(walk.table_reads[i], /*ifetch=*/false);
    }
    if (walk.ok) {
      return walk.hpa;
    }
    if (attempt == 0) {
      // EPT violation: exit to the Rootkernel, which may establish the
      // mapping and resume.
      VmExitInfo info{VmExitReason::kEptViolation, walk.fault_gpa, need, 0, 0};
      machine_->DeliverVmExit(*this, info);
    }
  }
  return sb::Internal("unresolvable EPT violation");
}

sb::StatusOr<Hpa> Core::Translate(Gva va, bool ifetch, bool write) {
  Tlb& tlb = ifetch ? itlb_ : dtlb_;
  const Hpa tag = ep4ta();
  uint8_t page_shift = 12;
  const TlbEntry* hit = tlb.Lookup(va, vmcs_.vpid, pcid_, tag, &page_shift);
  if (hit != nullptr) {
    if (write && !hit->writable) {
      return sb::PermissionDenied("write to read-only page");
    }
    const uint64_t page_size = 1ULL << page_shift;
    return (hit->frame & ~(page_size - 1)) | (va & (page_size - 1));
  }
  if (ifetch) {
    ++pmu_.itlb_miss;
  } else {
    ++pmu_.dtlb_miss;
  }

  // Hardware page walk. Guest table fetches are translated through the EPT
  // (each EPT table fetch itself is a charged memory access): the 2-D walk.
  Gpa table_gpa = cr3_;
  uint64_t entry = 0;
  int level = 4;
  for (; level >= 1; --level) {
    const int index = static_cast<int>((va >> (12 + 9 * (level - 1))) & 0x1ff);
    const Gpa entry_gpa = table_gpa + static_cast<uint64_t>(index) * 8;
    SB_ASSIGN_OR_RETURN(const Hpa entry_hpa, EptTranslateCharged(entry_gpa, kEptRead));
    ChargeAccess(entry_hpa, /*ifetch=*/false);
    entry = machine_->mem().ReadU64(entry_hpa);
    if ((entry & kPtePresent) == 0) {
      return sb::NotFound("guest page fault");
    }
    if (level == 1 || (entry & kPteLarge) != 0) {
      break;
    }
    table_gpa = entry & kPteFrameMask;
  }
  if (write && (entry & kPteWrite) == 0) {
    return sb::PermissionDenied("write to read-only page");
  }
  if (mode_ == CpuMode::kUser && (entry & kPteUser) == 0) {
    return sb::PermissionDenied("user access to supervisor page");
  }

  const uint8_t page_shift_out = static_cast<uint8_t>(12 + 9 * (level - 1));
  const uint64_t page_size = 1ULL << page_shift_out;
  const Gpa gpa = (entry & kPteFrameMask & ~(page_size - 1)) | (va & (page_size - 1));
  SB_ASSIGN_OR_RETURN(const Hpa hpa, EptTranslateCharged(gpa, ifetch ? kEptExec : kEptRead));

  TlbEntry new_entry;
  new_entry.frame = hpa & ~(page_size - 1);
  new_entry.global = (entry & kPteGlobal) != 0;
  new_entry.writable = (entry & kPteWrite) != 0;
  tlb.Insert(va, page_shift_out, vmcs_.vpid, pcid_, tag, new_entry);
  return hpa;
}

sb::Status Core::ReadVirt(Gva va, std::span<uint8_t> out) {
  const bool streaming = out.size() >= costs().bulk_min_bytes;
  if (streaming) {
    AdvanceCycles(costs().bulk_startup);
  }
  size_t done = 0;
  while (done < out.size()) {
    const Gva cur = va + done;
    const uint64_t page_off = cur & (sb::kPageSize - 1);
    const size_t chunk = std::min<size_t>(out.size() - done, sb::kPageSize - page_off);
    SB_ASSIGN_OR_RETURN(const Hpa hpa, Translate(cur, /*ifetch=*/false, /*write=*/false));
    ChargeLines(hpa, chunk, streaming);
    machine_->mem().Read(hpa, out.subspan(done, chunk));
    done += chunk;
  }
  return sb::OkStatus();
}

sb::Status Core::WriteVirt(Gva va, std::span<const uint8_t> in) {
  const bool streaming = in.size() >= costs().bulk_min_bytes;
  if (streaming) {
    AdvanceCycles(costs().bulk_startup);
  }
  size_t done = 0;
  while (done < in.size()) {
    const Gva cur = va + done;
    const uint64_t page_off = cur & (sb::kPageSize - 1);
    const size_t chunk = std::min<size_t>(in.size() - done, sb::kPageSize - page_off);
    SB_ASSIGN_OR_RETURN(const Hpa hpa, Translate(cur, /*ifetch=*/false, /*write=*/true));
    ChargeLines(hpa, chunk, streaming);
    machine_->mem().Write(hpa, in.subspan(done, chunk));
    done += chunk;
  }
  return sb::OkStatus();
}

sb::Status Core::CopyVirt(Gva dst_va, Gva src_va, uint64_t len) {
  if (len == 0) {
    return sb::OkStatus();
  }
  const bool streaming = len >= costs().bulk_min_bytes;
  if (streaming) {
    AdvanceCycles(costs().bulk_startup);
  }
  uint8_t bounce[sb::kPageSize];
  uint64_t done = 0;
  while (done < len) {
    const Gva src = src_va + done;
    const Gva dst = dst_va + done;
    const uint64_t src_room = sb::kPageSize - (src & (sb::kPageSize - 1));
    const uint64_t dst_room = sb::kPageSize - (dst & (sb::kPageSize - 1));
    const size_t chunk =
        static_cast<size_t>(std::min({len - done, src_room, dst_room}));
    SB_ASSIGN_OR_RETURN(const Hpa src_hpa, Translate(src, /*ifetch=*/false, /*write=*/false));
    SB_ASSIGN_OR_RETURN(const Hpa dst_hpa, Translate(dst, /*ifetch=*/false, /*write=*/true));
    ChargeLines(src_hpa, chunk, streaming);
    ChargeLines(dst_hpa, chunk, streaming);
    machine_->mem().Read(src_hpa, std::span<uint8_t>(bounce, chunk));
    machine_->mem().Write(dst_hpa, std::span<const uint8_t>(bounce, chunk));
    done += chunk;
  }
  return sb::OkStatus();
}

sb::Status Core::CopyVirtSg(std::span<const CopySeg> segs) {
  uint64_t total = 0;
  for (const CopySeg& seg : segs) {
    total += seg.len;
  }
  if (total == 0) {
    return sb::OkStatus();
  }
  const bool streaming = total >= costs().bulk_min_bytes;
  if (streaming) {
    AdvanceCycles(costs().bulk_startup);
  }
  uint8_t bounce[sb::kPageSize];
  for (const CopySeg& seg : segs) {
    uint64_t done = 0;
    while (done < seg.len) {
      const Gva src = seg.src + done;
      const Gva dst = seg.dst + done;
      const uint64_t src_room = sb::kPageSize - (src & (sb::kPageSize - 1));
      const uint64_t dst_room = sb::kPageSize - (dst & (sb::kPageSize - 1));
      const size_t chunk =
          static_cast<size_t>(std::min({seg.len - done, src_room, dst_room}));
      SB_ASSIGN_OR_RETURN(const Hpa src_hpa, Translate(src, /*ifetch=*/false, /*write=*/false));
      SB_ASSIGN_OR_RETURN(const Hpa dst_hpa, Translate(dst, /*ifetch=*/false, /*write=*/true));
      ChargeLines(src_hpa, chunk, streaming);
      ChargeLines(dst_hpa, chunk, streaming);
      machine_->mem().Read(src_hpa, std::span<uint8_t>(bounce, chunk));
      machine_->mem().Write(dst_hpa, std::span<const uint8_t>(bounce, chunk));
      done += chunk;
    }
  }
  return sb::OkStatus();
}

sb::StatusOr<uint64_t> Core::ReadVirtU64(Gva va) {
  uint64_t v = 0;
  SB_RETURN_IF_ERROR(ReadVirt(va, std::span<uint8_t>(reinterpret_cast<uint8_t*>(&v), sizeof(v))));
  return v;
}

sb::Status Core::WriteVirtU64(Gva va, uint64_t value) {
  return WriteVirt(
      va, std::span<const uint8_t>(reinterpret_cast<const uint8_t*>(&value), sizeof(value)));
}

sb::Status Core::TouchData(Gva va, uint64_t len, bool write) {
  for (Gva page = sb::PageDown(va); page < va + len; page += sb::kPageSize) {
    SB_ASSIGN_OR_RETURN(const Hpa hpa_base, Translate(page, /*ifetch=*/false, write));
    const Gva lo = std::max(va, page);
    const Gva hi = std::min(va + len, page + sb::kPageSize);
    for (Gva line = lo & ~(kCacheLineBytes - 1); line < hi; line += kCacheLineBytes) {
      ChargeAccess(hpa_base + (line - page), /*ifetch=*/false);
    }
  }
  return sb::OkStatus();
}

sb::Status Core::FetchCode(Gva va, uint64_t len) {
  for (Gva page = sb::PageDown(va); page < va + len; page += sb::kPageSize) {
    SB_ASSIGN_OR_RETURN(const Hpa hpa_base, Translate(page, /*ifetch=*/true, /*write=*/false));
    const Gva lo = std::max(va, page);
    const Gva hi = std::min(va + len, page + sb::kPageSize);
    for (Gva line = lo & ~(kCacheLineBytes - 1); line < hi; line += kCacheLineBytes) {
      ChargeAccess(hpa_base + (line - page), /*ifetch=*/true);
    }
  }
  return sb::OkStatus();
}

}  // namespace hw
