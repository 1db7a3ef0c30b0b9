// Host physical memory and frame allocation.
//
// HostPhysMem is the machine's RAM: a sparse array of 4 KiB frames that get
// host backing on first write. Frames are found through a two-level radix
// table (one slot per frame, one 512-slot leaf per 2 MiB chunk, leaves
// allocated on first touch), so lookups are O(1) and the table's memory
// scales with the RAM actually touched.
//
// Host storage: every private host page comes from one arena. Sparse frames
// are carved from 2 MiB-aligned mmap chunks; every chunk after the first is
// madvised for transparent huge pages, so the page tables the 2-D walker
// reads sit under few host TLB entries (the paper's huge-page base EPT, on
// the host side), while a machine whose frames fit in one chunk pays no
// huge-page tail. Pages released by WriteShared and BackContiguous go on a
// free list and are zeroed on reuse. A destroyed machine gives its chunks to
// a process-wide pool, and the next machine carves them before it maps fresh
// ones, zeroing each page as it takes it: a rebuilt machine writes into
// pages the host has already faulted in. BackContiguous regions come from
// separate mappings without huge pages, faulted on first touch and unmapped
// with the machine, so a message buffer the guest never writes costs the
// host nothing. Free-list pages, pooled chunks and uncarved chunk tails are
// poisoned for ASan.
//
// FrameAllocator hands out frames from a host-physical range; the Rootkernel
// and the Subkernel each own one (disjoint) range, which is exactly the
// paper's split of "a small portion of physical memory (100 MB) reserved for
// the Rootkernel" with the rest owned by the microkernel.
//
// Content-shared pages: WriteShared writes a whole page and backs it with
// a refcounted host page that every frame of byte-identical content shares
// (KSM-style, host side only). Clones of one template thus hold one host copy
// of their rewritten code. Every other writer (Write, the scalar stores,
// BackContiguous, ZeroFrame) first makes the frame private again, so sharing
// is invisible to the guest: simulated HPAs stay distinct and no cycle moves.
//
// Walk epoch (for walk_cache.h): a frame a cached walk read is flagged, and
// the first write to it through any writer clears the flag and bumps the
// epoch. ContiguousSpan writes bypass the writers, so no region frame is
// flagged; neither is a shared frame.

#ifndef SRC_HW_PHYS_MEM_H_
#define SRC_HW_PHYS_MEM_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <unordered_map>
#include <vector>

#include "src/base/status.h"
#include "src/base/units.h"
#include "src/hw/addr.h"

namespace hw {

class HostPhysMem {
 public:
  explicit HostPhysMem(uint64_t size_bytes);
  ~HostPhysMem();
  HostPhysMem(const HostPhysMem&) = delete;
  HostPhysMem& operator=(const HostPhysMem&) = delete;

  uint64_t size() const { return size_; }
  bool Contains(Hpa addr, uint64_t len = 1) const { return addr + len <= size_ && addr + len >= addr; }

  // Raw byte access. Crossing frame boundaries is handled. Out-of-bounds
  // access is a CHECK failure: the simulator never lets a guest form an HPA
  // outside RAM (the EPT walker rejects it first). Reads never allocate;
  // a frame without host backing reads as zero.
  void Read(Hpa addr, std::span<uint8_t> out) const;
  void Write(Hpa addr, std::span<const uint8_t> in);

  uint64_t ReadU64(Hpa addr) const;
  void WriteU64(Hpa addr, uint64_t value);
  uint32_t ReadU32(Hpa addr) const;
  void WriteU32(Hpa addr, uint32_t value);
  uint8_t ReadU8(Hpa addr) const;
  void WriteU8(Hpa addr, uint8_t value);

  // Makes the frame at the page-aligned `frame_base` hold `bytes` (at most
  // one page) followed by zeros, backed by the shared host page of that
  // content (one per distinct content). A page equal to the frame's current
  // content is a no-op. A frame inside a BackContiguous region is written in
  // place instead. Meant for kernel-installed pages that many processes hold
  // identically (code, snippet windows); the per-call data path uses Write.
  void WriteShared(Hpa frame_base, std::span<const uint8_t> bytes);

  // Makes the frame read as zero. Only a frame with host backing is cleared;
  // an untouched frame already reads as zero and stays without backing. A
  // shared frame drops its reference and is left without backing.
  void ZeroFrame(Hpa frame_base);

  // Backs the page-aligned range [base, base + len) with one host-contiguous
  // allocation so the guest range can be exposed to host code as a single
  // std::span (zero-copy message views). Contents of frames that already
  // have backing are preserved; the range reads back unchanged. Idempotent
  // when the range lies inside one backing region; a range that overlaps a
  // region without lying inside it is a CHECK failure (the region's span
  // would go stale).
  void BackContiguous(Hpa base, uint64_t len);

  // Host pointer for [addr, addr + len) when the whole range lies inside one
  // BackContiguous region; nullptr otherwise (sparse frames are never
  // host-contiguous across page boundaries).
  uint8_t* ContiguousSpan(Hpa addr, uint64_t len);

  // Number of frames with host backing, shared frames included (for tests /
  // memory accounting).
  size_t resident_frames() const { return resident_; }
  // Number of distinct host pages behind those frames: each shared page
  // counts once, however many frames share it.
  size_t host_pages() const { return resident_ - shared_frames_ + shared_.size(); }

  // The walk epoch (header comment): bumped by a write to a walked frame.
  uint64_t walk_epoch() const { return walk_epoch_; }
  // Flags the frame holding `addr` as read by a cached walk. Returns false,
  // flagging nothing, for a region or shared frame: such a walk is not cached.
  bool MarkWalked(Hpa addr);

 private:
  // One frame-table entry. `host` is the frame's backing, nullptr until the
  // first write. For a frame inside a BackContiguous region, `contig_end`
  // is the region's exclusive end frame: host memory is contiguous from
  // `host` up to that frame. Zero for sparse and shared frames; `shared`
  // marks a frame whose `host` is a SharedPage's bytes. `walked` is the
  // walk-epoch flag. RAM holds fewer than 2^32 frames (the constructor checks).
  struct Slot {
    uint8_t* host = nullptr;
    uint32_t contig_end = 0;
    bool shared = false;
    bool walked = false;
  };
  static_assert(sizeof(Slot) == 16);
  // A refcounted host page. A shared slot's `host` is the page's address,
  // which is also the address of `bytes`.
  struct SharedPage {
    uint8_t bytes[sb::kPageSize];
    uint64_t hash;
    uint64_t refs;
  };
  static constexpr uint64_t kLeafShift = 9;  // 512 frames: one 2 MiB chunk.
  static constexpr uint64_t kLeafSlots = 1ULL << kLeafShift;
  struct Leaf {
    Slot slots[kLeafSlots];
  };
  // Host storage for private pages (see the header comment). Its sparse-frame
  // chunks go back to a process-wide pool and its regions are unmapped when
  // it is destroyed, so frames need no per-slot release.
  class Arena {
   public:
    Arena() = default;
    ~Arena();
    Arena(const Arena&) = delete;
    Arena& operator=(const Arena&) = delete;

    // A zero-filled page for one sparse frame.
    uint8_t* TakePage();
    // Returns a sparse frame's page for a later TakePage.
    void ReleasePage(uint8_t* page);
    // `pages` zero-filled, host-contiguous pages for a BackContiguous
    // region, faulted in on first touch.
    uint8_t* TakeRegion(uint64_t pages);

   private:
    // A fresh anonymous mapping of `bytes` aligned to `align`, poisoned.
    uint8_t* Map(uint64_t bytes, uint64_t align, int advice);
    // Makes a pooled chunk, or else a fresh one, the current sparse-frame
    // chunk.
    void NextChunk();

    struct Mapping {
      uint8_t* base;
      uint64_t bytes;
    };
    std::vector<uint8_t*> chunks_;  // Sparse-frame chunks, in the order taken.
    std::vector<Mapping> regions_;
    // Uncarved tails of the current sparse-frame and region chunks.
    uint8_t* page_next_ = nullptr;
    uint8_t* page_end_ = nullptr;
    bool recycled_ = false;  // The current chunk came from the pool: zero its pages.
    uint8_t* region_next_ = nullptr;
    uint8_t* region_end_ = nullptr;
    std::vector<uint8_t*> free_pages_;
  };

  // The frame's slot, or nullptr when its chunk was never touched.
  const Slot* FindSlot(uint64_t frame) const;
  // The frame's slot, allocating its leaf on first touch.
  Slot& SlotFor(uint64_t frame);
  // Private host backing for the frame holding `addr`: allocated on first
  // use, copied out of its shared page when shared.
  uint8_t* FrameFor(Hpa addr);
  // Detaches a shared frame from its page, leaving the slot without backing,
  // and frees the page with its last reference.
  void DropShared(Slot& slot);
  // Host backing for the frame holding `addr`, or nullptr while the frame
  // has none (it reads as zero). Never allocates.
  uint8_t* BackingOf(Hpa addr) const;
  // Every writer calls this before it changes the slot's frame.
  void NoteWrite(Slot& slot) {
    if (slot.walked) [[unlikely]] {
      slot.walked = false;
      ++walk_epoch_;
    }
  }

  // Scalar access: one frame lookup when [addr, addr + sizeof(T)) stays in
  // one frame, the byte-range path otherwise.
  template <typename T>
  T Load(Hpa addr) const;
  template <typename T>
  void Store(Hpa addr, T value);

  uint64_t size_;
  std::vector<std::unique_ptr<Leaf>> leaves_;  // Indexed by 2 MiB chunk.
  size_t resident_ = 0;
  Arena arena_;  // Every private and region slot points into it.
  // The shared pages, bucketed by content hash (collisions are told apart
  // by memcmp). Each is owned here until its last frame lets go.
  std::unordered_multimap<uint64_t, SharedPage*> shared_;
  size_t shared_frames_ = 0;  // Frames whose slot is shared.
  uint64_t walk_epoch_ = 0;
};

// Fault point (src/base/faultpoint.h): FrameAllocator::AllocContiguous,
// the allocation behind every anonymous guest mapping
// (AddressSpace::MapAnonymous), reports exhaustion. Recovery: the mapping
// and whatever requested it fail with ResourceExhausted.
inline constexpr const char kFaultFrameAlloc[] = "hw.phys.alloc";

// Bump-plus-freelist frame allocator over [base, base + size).
class FrameAllocator {
 public:
  FrameAllocator(Hpa base, uint64_t size_bytes);

  // Allocates one 4 KiB frame that reads as zero.
  sb::StatusOr<Hpa> Alloc(HostPhysMem& mem);

  // Allocates `count` physically contiguous frames that read as zero;
  // returns the first HPA. A run of freed frames is reused before fresh
  // frames are taken: the most recently freed run of `count` consecutive
  // frames that lie in ascending order on the free list, as FreeContiguous
  // leaves them.
  sb::StatusOr<Hpa> AllocContiguous(HostPhysMem& mem, uint64_t count);

  void Free(Hpa frame);
  // Frees the `count` frames from `first` (an AllocContiguous result).
  void FreeContiguous(Hpa first, uint64_t count);

  Hpa base() const { return base_; }
  uint64_t size() const { return size_; }
  uint64_t allocated_frames() const { return allocated_; }
  uint64_t capacity_frames() const { return size_ / sb::kPageSize; }

 private:
  // Removes the run AllocContiguous reuses from the free list and returns
  // its first frame; nullopt when the list holds no such run.
  std::optional<Hpa> TakeFreeRun(uint64_t count);

  Hpa base_;
  uint64_t size_;
  Hpa next_;
  uint64_t allocated_ = 0;
  std::vector<Hpa> free_list_;
};

}  // namespace hw

#endif  // SRC_HW_PHYS_MEM_H_
