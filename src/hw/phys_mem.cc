#include "src/hw/phys_mem.h"

#include <sanitizer/asan_interface.h>
#include <sys/mman.h>

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstring>
#include <iterator>
#include <mutex>

#include "src/base/faultpoint.h"
#include "src/base/logging.h"

namespace hw {
namespace {

constexpr uint64_t kPageOffsetMask = sb::kPageSize - 1;
constexpr uint8_t kZeroPage[sb::kPageSize] = {};
// The arena's mapping unit: one host huge page.
constexpr uint64_t kChunkBytes = 2 * sb::kMiB;

// Buckets a page by one word of each cache line, at a different offset in
// each, so hashing costs far less than the memcmp that confirms every
// candidate. Pages that differ only between the sampled words share a bucket
// and memcmp tells them apart.
uint64_t HashPage(const uint8_t* page) {
  constexpr uint64_t kLine = 64;
  constexpr uint64_t kMul = 0x9e3779b97f4a7c15ULL;
  uint64_t lanes[4] = {1, 2, 3, 4};
  for (uint64_t line = 0; line < sb::kPageSize / kLine; line += 4) {
    for (uint64_t l = 0; l < 4; ++l) {
      uint64_t word;
      std::memcpy(&word, page + (line + l) * kLine + (line + l) % 8 * sizeof(word), sizeof(word));
      lanes[l] = (lanes[l] ^ word) * kMul;
      lanes[l] ^= lanes[l] >> 32;
    }
  }
  return lanes[0] ^ std::rotl(lanes[1], 16) ^ std::rotl(lanes[2], 32) ^ std::rotl(lanes[3], 48);
}

// Sparse-frame chunks of destroyed machines, kept for the next machine the
// process builds (set-up repeats, test suites), which then writes into pages
// the host has already faulted in instead of faulting in fresh ones, as the
// malloc heap let per-frame allocations do. Pooled chunks are poisoned and
// hold stale bytes. Machines on separate host threads share the pool under
// its mutex.
struct ChunkPool {
  std::mutex mu;
  std::vector<uint8_t*> chunks;
};

ChunkPool& GetChunkPool() {
  static ChunkPool* pool = new ChunkPool;  // Leaked: machines may outlive statics.
  return *pool;
}

}  // namespace

HostPhysMem::HostPhysMem(uint64_t size_bytes)
    : size_(size_bytes),
      leaves_(((size_bytes >> sb::kPageShift) + kLeafSlots - 1) >> kLeafShift) {
  SB_CHECK(sb::IsPageAligned(size_bytes)) << "RAM size must be page aligned";
  SB_CHECK_LE(size_bytes >> sb::kPageShift, uint64_t{UINT32_MAX}) << "RAM too large";
}

HostPhysMem::~HostPhysMem() {
  for (const auto& [hash, page] : shared_) {
    delete page;
  }
}

HostPhysMem::Arena::~Arena() {
  ChunkPool& pool = GetChunkPool();
  {
    std::lock_guard<std::mutex> lock(pool.mu);
    for (uint8_t* chunk : chunks_) {
      ASAN_POISON_MEMORY_REGION(chunk, kChunkBytes);
      pool.chunks.push_back(chunk);
    }
  }
  for (const Mapping& region : regions_) {
    ASAN_UNPOISON_MEMORY_REGION(region.base, region.bytes);
    munmap(region.base, region.bytes);
  }
}

uint8_t* HostPhysMem::Arena::Map(uint64_t bytes, uint64_t align, int advice) {
  // Over-map by the alignment, then trim both ends.
  const uint64_t span = bytes + align - sb::kPageSize;
  void* raw = mmap(nullptr, span, PROT_READ | PROT_WRITE, MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  SB_CHECK(raw != MAP_FAILED) << "out of host memory for guest RAM";
  uint8_t* start = static_cast<uint8_t*>(raw);
  uint8_t* base = start + (-reinterpret_cast<uintptr_t>(start) & (align - 1));
  if (base != start) {
    munmap(start, base - start);
  }
  if (base + bytes != start + span) {
    munmap(base + bytes, start + span - (base + bytes));
  }
  // A failed madvise (no transparent huge pages) leaves 4 KiB pages.
  madvise(base, bytes, advice);
  ASAN_POISON_MEMORY_REGION(base, bytes);
  return base;
}

void HostPhysMem::Arena::NextChunk() {
  ChunkPool& pool = GetChunkPool();
  {
    std::lock_guard<std::mutex> lock(pool.mu);
    recycled_ = !pool.chunks.empty();
    if (recycled_) {
      page_next_ = pool.chunks.back();
      pool.chunks.pop_back();
    }
  }
  if (!recycled_) {
    // The first chunk keeps 4 KiB pages, so a machine whose frames fit in
    // it faults in only the pages it writes.
    page_next_ = Map(kChunkBytes, kChunkBytes, chunks_.empty() ? MADV_NORMAL : MADV_HUGEPAGE);
  }
  page_end_ = page_next_ + kChunkBytes;
  chunks_.push_back(page_next_);
}

uint8_t* HostPhysMem::Arena::TakePage() {
  if (!free_pages_.empty()) {
    uint8_t* page = free_pages_.back();
    free_pages_.pop_back();
    ASAN_UNPOISON_MEMORY_REGION(page, sb::kPageSize);
    std::memset(page, 0, sb::kPageSize);
    return page;
  }
  if (page_next_ == page_end_) {
    NextChunk();
  }
  uint8_t* page = page_next_;
  page_next_ += sb::kPageSize;
  ASAN_UNPOISON_MEMORY_REGION(page, sb::kPageSize);
  if (recycled_) {
    std::memset(page, 0, sb::kPageSize);
  }
  return page;  // A fresh chunk reads as zero; a recycled page was just zeroed.
}

void HostPhysMem::Arena::ReleasePage(uint8_t* page) {
  ASAN_POISON_MEMORY_REGION(page, sb::kPageSize);
  free_pages_.push_back(page);
}

uint8_t* HostPhysMem::Arena::TakeRegion(uint64_t pages) {
  const uint64_t bytes = pages * sb::kPageSize;
  uint8_t* region;
  if (bytes > kChunkBytes) {
    region = Map(bytes, sb::kPageSize, MADV_NOHUGEPAGE);
    regions_.push_back({region, bytes});
  } else {
    if (static_cast<uint64_t>(region_end_ - region_next_) < bytes) {
      region_next_ = Map(kChunkBytes, sb::kPageSize, MADV_NOHUGEPAGE);
      region_end_ = region_next_ + kChunkBytes;
      regions_.push_back({region_next_, kChunkBytes});
    }
    region = region_next_;
    region_next_ += bytes;
  }
  ASAN_UNPOISON_MEMORY_REGION(region, bytes);
  return region;
}

const HostPhysMem::Slot* HostPhysMem::FindSlot(uint64_t frame) const {
  const Leaf* leaf = leaves_[frame >> kLeafShift].get();
  return leaf != nullptr ? &leaf->slots[frame & (kLeafSlots - 1)] : nullptr;
}

HostPhysMem::Slot& HostPhysMem::SlotFor(uint64_t frame) {
  std::unique_ptr<Leaf>& leaf = leaves_[frame >> kLeafShift];
  if (leaf == nullptr) {
    leaf = std::make_unique<Leaf>();
  }
  return leaf->slots[frame & (kLeafSlots - 1)];
}

uint8_t* HostPhysMem::FrameFor(Hpa addr) {
  SB_CHECK(Contains(addr)) << "HPA out of RAM: 0x" << std::hex << addr;
  Slot& slot = SlotFor(addr >> sb::kPageShift);
  NoteWrite(slot);
  if (slot.shared) [[unlikely]] {
    uint8_t* copy = arena_.TakePage();
    std::memcpy(copy, slot.host, sb::kPageSize);
    DropShared(slot);
    slot.host = copy;
    ++resident_;
  } else if (slot.host == nullptr) {
    slot.host = arena_.TakePage();
    ++resident_;
  }
  return slot.host;
}

void HostPhysMem::DropShared(Slot& slot) {
  SharedPage* page = reinterpret_cast<SharedPage*>(slot.host);
  slot = Slot{};
  --shared_frames_;
  --resident_;
  if (--page->refs != 0) {
    return;
  }
  auto [it, end] = shared_.equal_range(page->hash);
  while (it->second != page) {
    ++it;
  }
  shared_.erase(it);
  delete page;
}

void HostPhysMem::WriteShared(Hpa frame_base, std::span<const uint8_t> bytes) {
  SB_CHECK(sb::IsPageAligned(frame_base) && bytes.size() <= sb::kPageSize)
      << "WriteShared writes within one aligned page";
  SB_CHECK(Contains(frame_base, sb::kPageSize)) << "HPA out of RAM: 0x" << std::hex << frame_base;
  const uint8_t* page = bytes.data();
  uint8_t padded[sb::kPageSize];
  if (bytes.size() < sb::kPageSize) {
    std::copy(bytes.begin(), bytes.end(), padded);
    std::fill(padded + bytes.size(), std::end(padded), 0);
    page = padded;
  }
  Slot& slot = SlotFor(frame_base >> sb::kPageShift);
  if (std::memcmp(slot.host != nullptr ? slot.host : kZeroPage, page, sb::kPageSize) == 0) {
    return;  // Already this content: the common case for rewrite write-backs.
  }
  NoteWrite(slot);
  if (slot.contig_end != 0) {
    std::memcpy(slot.host, page, sb::kPageSize);  // A region stays contiguous.
    return;
  }
  const uint64_t hash = HashPage(page);
  SharedPage* shared = nullptr;
  for (auto [it, end] = shared_.equal_range(hash); it != end; ++it) {
    if (std::memcmp(it->second->bytes, page, sb::kPageSize) == 0) {
      shared = it->second;
      break;
    }
  }
  if (shared == nullptr) {
    shared = new SharedPage;
    std::memcpy(shared->bytes, page, sb::kPageSize);
    shared->hash = hash;
    shared->refs = 0;
    shared_.emplace(hash, shared);
  }
  ++shared->refs;
  // Retire the frame's old backing (the memcmp above rules out `shared`).
  if (slot.shared) {
    DropShared(slot);
  } else if (slot.host != nullptr) {
    arena_.ReleasePage(slot.host);
    --resident_;
  }
  static_assert(offsetof(SharedPage, bytes) == 0);
  slot.host = reinterpret_cast<uint8_t*>(shared);
  slot.shared = true;
  ++shared_frames_;
  ++resident_;
}

uint8_t* HostPhysMem::BackingOf(Hpa addr) const {
  SB_CHECK(Contains(addr)) << "HPA out of RAM: 0x" << std::hex << addr;
  const Slot* slot = FindSlot(addr >> sb::kPageShift);
  return slot != nullptr ? slot->host : nullptr;
}

void HostPhysMem::BackContiguous(Hpa base, uint64_t len) {
  SB_CHECK(sb::IsPageAligned(base)) << "BackContiguous base must be page aligned";
  SB_CHECK(Contains(base, len));
  if (len == 0 || ContiguousSpan(base, len) != nullptr) {
    return;  // Nothing to back, or already inside one region.
  }
  const uint64_t first = base >> sb::kPageShift;
  const uint64_t end = first + (sb::PageUp(len) >> sb::kPageShift);
  for (uint64_t frame = first; frame < end; ++frame) {
    const Slot* slot = FindSlot(frame);
    SB_CHECK(slot == nullptr || slot->contig_end == 0)
        << "BackContiguous range [0x" << std::hex << base << ", 0x" << base + len
        << ") overlaps an existing region without lying inside it";
  }
  uint8_t* storage = arena_.TakeRegion(end - first);
  for (uint64_t frame = first; frame < end; ++frame) {
    Slot& slot = SlotFor(frame);
    NoteWrite(slot);
    uint8_t* dst = storage + (frame - first) * sb::kPageSize;
    // Preserve whatever was already written to this frame, then retire the
    // old backing so the region's storage is authoritative.
    if (slot.shared) {
      std::memcpy(dst, slot.host, sb::kPageSize);
      DropShared(slot);
      ++resident_;
    } else if (slot.host != nullptr) {
      std::memcpy(dst, slot.host, sb::kPageSize);
      arena_.ReleasePage(slot.host);
    } else {
      ++resident_;
    }
    slot.host = dst;
    slot.contig_end = static_cast<uint32_t>(end);
  }
}

uint8_t* HostPhysMem::ContiguousSpan(Hpa addr, uint64_t len) {
  if (len == 0 || !Contains(addr, len)) {
    return nullptr;
  }
  const Slot* slot = FindSlot(addr >> sb::kPageShift);
  if (slot == nullptr) {
    return nullptr;
  }
  // Sparse and shared frames have contig_end 0, so the compare rejects them.
  if (addr + len > uint64_t{slot->contig_end} << sb::kPageShift) {
    return nullptr;
  }
  return slot->host + (addr & kPageOffsetMask);
}

void HostPhysMem::Read(Hpa addr, std::span<uint8_t> out) const {
  SB_CHECK(Contains(addr, out.size()));
  size_t done = 0;
  while (done < out.size()) {
    const Hpa cur = addr + done;
    const uint64_t offset = cur & kPageOffsetMask;
    const size_t chunk = std::min<size_t>(out.size() - done, sb::kPageSize - offset);
    const uint8_t* frame = BackingOf(cur);
    if (frame == nullptr) {
      std::memset(out.data() + done, 0, chunk);
    } else {
      std::memcpy(out.data() + done, frame + offset, chunk);
    }
    done += chunk;
  }
}

void HostPhysMem::Write(Hpa addr, std::span<const uint8_t> in) {
  SB_CHECK(Contains(addr, in.size()));
  size_t done = 0;
  while (done < in.size()) {
    const Hpa cur = addr + done;
    const uint64_t offset = cur & kPageOffsetMask;
    const size_t chunk = std::min<size_t>(in.size() - done, sb::kPageSize - offset);
    std::memcpy(FrameFor(cur) + offset, in.data() + done, chunk);
    done += chunk;
  }
}

template <typename T>
T HostPhysMem::Load(Hpa addr) const {
  T value = 0;
  const uint64_t offset = addr & kPageOffsetMask;
  if (offset > sb::kPageSize - sizeof(T)) {
    Read(addr, std::span<uint8_t>(reinterpret_cast<uint8_t*>(&value), sizeof(value)));
    return value;
  }
  // RAM is a whole number of frames, so an in-frame access fits when its
  // first byte does (BackingOf checks that).
  if (const uint8_t* frame = BackingOf(addr)) {
    std::memcpy(&value, frame + offset, sizeof(value));
  }
  return value;
}

template <typename T>
void HostPhysMem::Store(Hpa addr, T value) {
  const uint64_t offset = addr & kPageOffsetMask;
  if (offset > sb::kPageSize - sizeof(T)) {
    Write(addr, std::span<const uint8_t>(reinterpret_cast<const uint8_t*>(&value), sizeof(value)));
    return;
  }
  std::memcpy(FrameFor(addr) + offset, &value, sizeof(value));
}

uint64_t HostPhysMem::ReadU64(Hpa addr) const { return Load<uint64_t>(addr); }

void HostPhysMem::WriteU64(Hpa addr, uint64_t value) { Store(addr, value); }

uint32_t HostPhysMem::ReadU32(Hpa addr) const { return Load<uint32_t>(addr); }

void HostPhysMem::WriteU32(Hpa addr, uint32_t value) { Store(addr, value); }

uint8_t HostPhysMem::ReadU8(Hpa addr) const { return Load<uint8_t>(addr); }

void HostPhysMem::WriteU8(Hpa addr, uint8_t value) { Store(addr, value); }

void HostPhysMem::ZeroFrame(Hpa frame_base) {
  SB_CHECK(sb::IsPageAligned(frame_base));
  uint8_t* host = BackingOf(frame_base);
  if (host == nullptr) {
    return;
  }
  Slot& slot = SlotFor(frame_base >> sb::kPageShift);
  NoteWrite(slot);
  if (slot.shared) {
    DropShared(slot);
  } else {
    std::memset(host, 0, sb::kPageSize);
  }
}

bool HostPhysMem::MarkWalked(Hpa addr) {
  SB_CHECK(Contains(addr)) << "HPA out of RAM: 0x" << std::hex << addr;
  Slot& slot = SlotFor(addr >> sb::kPageShift);
  if (slot.shared || slot.contig_end != 0) {
    return false;
  }
  slot.walked = true;
  return true;
}

FrameAllocator::FrameAllocator(Hpa base, uint64_t size_bytes)
    : base_(base), size_(size_bytes), next_(base) {
  SB_CHECK(sb::IsPageAligned(base));
  SB_CHECK(sb::IsPageAligned(size_bytes));
}

sb::StatusOr<Hpa> FrameAllocator::Alloc(HostPhysMem& mem) {
  if (!free_list_.empty()) {
    const Hpa frame = free_list_.back();
    free_list_.pop_back();
    mem.ZeroFrame(frame);
    ++allocated_;
    return frame;
  }
  if (next_ + sb::kPageSize > base_ + size_) {
    return sb::ResourceExhausted("frame allocator exhausted");
  }
  const Hpa frame = next_;
  next_ += sb::kPageSize;
  mem.ZeroFrame(frame);
  ++allocated_;
  return frame;
}

sb::StatusOr<Hpa> FrameAllocator::AllocContiguous(HostPhysMem& mem, uint64_t count) {
  if (SB_FAULT_POINT(kFaultFrameAlloc)) {
    return sb::ResourceExhausted("frame allocator exhausted (contiguous)");
  }
  std::optional<Hpa> first = TakeFreeRun(count);
  if (!first.has_value()) {
    if (next_ + count * sb::kPageSize > base_ + size_) {
      return sb::ResourceExhausted("frame allocator exhausted (contiguous)");
    }
    first = next_;
    next_ += count * sb::kPageSize;
  }
  for (uint64_t i = 0; i < count; ++i) {
    mem.ZeroFrame(*first + i * sb::kPageSize);
  }
  allocated_ += count;
  return *first;
}

std::optional<Hpa> FrameAllocator::TakeFreeRun(uint64_t count) {
  // Walk back from the most recently freed frame; [i, end) is the ascending
  // run of consecutive frames that ends at free_list_[end - 1].
  size_t end = free_list_.size();
  for (size_t i = end; i-- > 0;) {
    if (i + 1 < end && free_list_[i] + sb::kPageSize != free_list_[i + 1]) {
      end = i + 1;
    }
    if (end - i == count) {
      const Hpa first = free_list_[i];
      free_list_.erase(free_list_.begin() + static_cast<std::ptrdiff_t>(i),
                       free_list_.begin() + static_cast<std::ptrdiff_t>(end));
      return first;
    }
  }
  return std::nullopt;
}

void FrameAllocator::Free(Hpa frame) {
  SB_CHECK(sb::IsPageAligned(frame));
  SB_CHECK(frame >= base_ && frame < base_ + size_);
  SB_CHECK(allocated_ > 0);
  --allocated_;
  free_list_.push_back(frame);
}

void FrameAllocator::FreeContiguous(Hpa first, uint64_t count) {
  for (uint64_t i = 0; i < count; ++i) {
    Free(first + i * sb::kPageSize);
  }
}

}  // namespace hw
