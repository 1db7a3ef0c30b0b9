#include "src/hw/paging.h"

#include "src/base/logging.h"
#include "src/base/units.h"

namespace hw {
namespace {

int IndexAt(Gva va, int level) {
  return static_cast<int>((va >> (12 + 9 * (level - 1))) & 0x1ff);
}

uint64_t FlagsToPte(const PageFlags& flags) {
  uint64_t pte = kPtePresent;
  if (flags.writable) {
    pte |= kPteWrite;
  }
  if (flags.user) {
    pte |= kPteUser;
  }
  if (flags.global) {
    pte |= kPteGlobal;
  }
  if (!flags.executable) {
    pte |= kPteNoExec;
  }
  return pte;
}

}  // namespace

sb::StatusOr<std::unique_ptr<AddressSpace>> AddressSpace::Create(HostPhysMem& mem,
                                                                 FrameAllocator& frames,
                                                                 uint16_t pcid) {
  SB_ASSIGN_OR_RETURN(Hpa root, frames.Alloc(mem));
  return std::unique_ptr<AddressSpace>(new AddressSpace(mem, frames, root, pcid));
}

sb::StatusOr<Gpa> AddressSpace::EnsureTable(Gpa table, int index, bool user) {
  const Gpa entry_addr = table + static_cast<uint64_t>(index) * 8;
  uint64_t entry = mem_->ReadU64(entry_addr);
  if ((entry & kPtePresent) == 0) {
    SB_ASSIGN_OR_RETURN(Gpa child, frames_->Alloc(*mem_));
    entry = (child & kPteFrameMask) | kPtePresent | kPteWrite | (user ? kPteUser : 0);
    mem_->WriteU64(entry_addr, entry);
  } else if ((entry & kPteLarge) != 0) {
    return sb::AlreadyExists("large page in the way");
  }
  return entry & kPteFrameMask;
}

void AddressSpace::UnmapRange(Gva va, uint64_t len) {
  for (uint64_t off = 0; off < len; off += sb::kPageSize) {
    SB_CHECK(Unmap(va + off).ok()) << "page not mapped";
  }
  // Every table the range used lies on the walk to one of its 2 MiB chunks.
  for (Gva chunk = va & ~(sb::kHugePage2M - 1); chunk < va + len; chunk += sb::kHugePage2M) {
    FreeEmptyTables(chunk);
  }
}

void AddressSpace::FreeEmptyTables(Gva va) {
  if (IndexAt(va, 4) >= 256) {
    return;
  }
  Gpa tables[5] = {};  // By level: tables[4] is the PML4.
  tables[4] = root_;
  int level = 4;
  while (level > 1) {
    const uint64_t entry =
        mem_->ReadU64(tables[level] + static_cast<uint64_t>(IndexAt(va, level)) * 8);
    if ((entry & kPtePresent) == 0 || (entry & kPteLarge) != 0) {
      break;
    }
    --level;
    tables[level] = entry & kPteFrameMask;
  }
  const auto empty = [this](Gpa table) {
    for (uint64_t index = 0; index < 512; ++index) {
      if ((mem_->ReadU64(table + index * 8) & kPtePresent) != 0) {
        return false;
      }
    }
    return true;
  };
  for (; level < 4 && empty(tables[level]); ++level) {
    mem_->WriteU64(tables[level + 1] + static_cast<uint64_t>(IndexAt(va, level + 1)) * 8, 0);
    frames_->Free(tables[level]);
  }
}

sb::Status AddressSpace::Map(Gva va, Gpa pa, uint64_t page_size, const PageFlags& flags) {
  int leaf_level;
  switch (page_size) {
    case sb::kPageSize:
      leaf_level = 1;
      break;
    case sb::kHugePage2M:
      leaf_level = 2;
      break;
    default:
      return sb::InvalidArgument("unsupported guest page size");
  }
  if ((va & (page_size - 1)) != 0 || (pa & (page_size - 1)) != 0) {
    return sb::InvalidArgument("guest mapping not aligned");
  }

  Gpa table = root_;
  for (int level = 4; level > leaf_level; --level) {
    SB_ASSIGN_OR_RETURN(table, EnsureTable(table, IndexAt(va, level), flags.user));
  }
  const Gpa leaf_addr = table + static_cast<uint64_t>(IndexAt(va, leaf_level)) * 8;
  if ((mem_->ReadU64(leaf_addr) & kPtePresent) != 0) {
    return sb::AlreadyExists("guest VA already mapped");
  }
  uint64_t pte = (pa & kPteFrameMask) | FlagsToPte(flags);
  if (leaf_level > 1) {
    pte |= kPteLarge;
  }
  mem_->WriteU64(leaf_addr, pte);
  return sb::OkStatus();
}

sb::StatusOr<Gpa> AddressSpace::MapAnonymous(Gva va, uint64_t len, const PageFlags& flags) {
  if (!sb::IsPageAligned(va) || len == 0) {
    return sb::InvalidArgument("MapAnonymous requires aligned va and nonzero len");
  }
  const uint64_t pages = sb::PageUp(len) / sb::kPageSize;
  SB_ASSIGN_OR_RETURN(Gpa first, frames_->AllocContiguous(*mem_, pages));
  if (const sb::Status mapped = MapRange(va, first, pages * sb::kPageSize, flags); !mapped.ok()) {
    frames_->FreeContiguous(first, pages);
    return mapped;
  }
  return first;
}

void AddressSpace::UnmapAnonymous(Gva va, Gpa first, uint64_t len) {
  UnmapRange(va, sb::PageUp(len));
  frames_->FreeContiguous(first, sb::PageUp(len) / sb::kPageSize);
}

sb::Status AddressSpace::MapRange(Gva va, Gpa pa, uint64_t len, const PageFlags& flags) {
  if (!sb::IsPageAligned(va) || !sb::IsPageAligned(pa)) {
    return sb::InvalidArgument("MapRange requires aligned addresses");
  }
  for (uint64_t off = 0; off < len; off += sb::kPageSize) {
    if (const sb::Status mapped = Map(va + off, pa + off, sb::kPageSize, flags); !mapped.ok()) {
      UnmapRange(va, off);
      FreeEmptyTables(va + off);  // The failed page may have made tables too.
      return mapped;
    }
  }
  return sb::OkStatus();
}

sb::Status AddressSpace::Unmap(Gva va) {
  Gpa table = root_;
  for (int level = 4; level > 1; --level) {
    const Gpa entry_addr = table + static_cast<uint64_t>(IndexAt(va, level)) * 8;
    const uint64_t entry = mem_->ReadU64(entry_addr);
    if ((entry & kPtePresent) == 0) {
      return sb::NotFound("VA not mapped");
    }
    if ((entry & kPteLarge) != 0) {
      mem_->WriteU64(entry_addr, 0);
      return sb::OkStatus();
    }
    table = entry & kPteFrameMask;
  }
  const Gpa leaf_addr = table + static_cast<uint64_t>(IndexAt(va, 1)) * 8;
  if ((mem_->ReadU64(leaf_addr) & kPtePresent) == 0) {
    return sb::NotFound("VA not mapped");
  }
  mem_->WriteU64(leaf_addr, 0);
  return sb::OkStatus();
}

sb::Status AddressSpace::ShareUpperHalf(const AddressSpace& other) {
  for (int index = 256; index < 512; ++index) {
    const uint64_t entry = mem_->ReadU64(other.root_ + static_cast<uint64_t>(index) * 8);
    if ((entry & kPtePresent) != 0) {
      mem_->WriteU64(root_ + static_cast<uint64_t>(index) * 8, entry);
    }
  }
  return sb::OkStatus();
}

GuestWalk AddressSpace::WalkVa(Gva va) const {
  GuestWalk result;
  Gpa table = root_;
  for (int level = 4; level >= 1; --level) {
    const uint64_t entry = mem_->ReadU64(table + static_cast<uint64_t>(IndexAt(va, level)) * 8);
    if ((entry & kPtePresent) == 0) {
      return result;
    }
    const bool leaf = level == 1 || (entry & kPteLarge) != 0;
    if (leaf) {
      const uint64_t page_size = level == 1 ? sb::kPageSize : (level == 2 ? sb::kHugePage2M : sb::kHugePage1G);
      result.ok = true;
      result.pte = entry;
      result.page_shift = static_cast<uint8_t>(12 + 9 * (level - 1));
      result.gpa = (entry & kPteFrameMask & ~(page_size - 1)) | (va & (page_size - 1));
      return result;
    }
    table = entry & kPteFrameMask;
  }
  return result;
}

}  // namespace hw
