// The walk cache: whole 2-D page walks, recorded on the host (DESIGN.md
// section 3). A TLB miss whose key has a valid entry replays the recorded
// table-line charges, in order, instead of re-reading up to 24 guest and EPT
// entries, so no simulated number depends on whether an entry was found. An
// entry is valid only at the HostPhysMem walk epoch it was made in.
//
// One two-way set-associative table per Machine, 128 bytes (two host lines)
// per entry, allocated on the first store with 1K entries and doubled at
// half load up to 32K entries (4 MiB). A new entry goes in front of its set
// and the older one moves back, dropping the oldest.

#ifndef SRC_HW_WALK_CACHE_H_
#define SRC_HW_WALK_CACHE_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/base/units.h"
#include "src/hw/addr.h"

namespace hw {

struct WalkKey {
  uint32_t ep4ta_frame = 0;  // Active EPT root >> 12; 0 when native.
  uint32_t cr3_frame = 0;    // CR3 >> 12.
  uint64_t page = 0;         // VA >> 12 << 3 | 4 (valid) | nonroot << 1 | ifetch.

  bool operator==(const WalkKey& other) const = default;
};

struct alignas(64) WalkEntry {
  // Guest leaf bits kept for the permission checks and the TLB entry.
  static constexpr uint8_t kWritable = 1;
  static constexpr uint8_t kUser = 2;
  static constexpr uint8_t kGlobal = 4;

  WalkKey key;
  uint64_t epoch = 0;      // HostPhysMem::walk_epoch() when recorded.
  uint32_t hpa_frame = 0;  // The VA page's host frame.
  uint8_t page_shift = 0;  // The guest leaf's page size; 0: the walk faulted.
  uint8_t leaf = 0;        // kWritable | kUser | kGlobal.
  uint8_t guest_lines = 0;  // lines[0, guest_lines) end at the guest leaf.
  uint8_t num_lines = 0;    // The rest translate the final GPA.
  uint32_t lines[24] = {};  // Charged table lines (HPA >> 6), in walk order.
};
static_assert(sizeof(WalkEntry) == 128);

class WalkCache {
 public:
  // The key of a walk of `va` from `cr3` under the EPT rooted at `ep4ta`
  // (0 and nonroot false when native). Both roots are page-aligned and below
  // 2^44.
  static WalkKey KeyFor(Hpa ep4ta, Gpa cr3, bool nonroot, Gva va, bool ifetch) {
    return {static_cast<uint32_t>(ep4ta >> sb::kPageShift),
            static_cast<uint32_t>(cr3 >> sb::kPageShift),
            (va >> sb::kPageShift) << 3 | 4 | uint64_t{nonroot} << 1 | uint64_t{ifetch}};
  }

  // The entry stored for `key` at `epoch`, or nullptr.
  const WalkEntry* Find(const WalkKey& key, uint64_t epoch) const {
    if (entries_.empty()) {
      return nullptr;
    }
    const WalkEntry* set = &entries_[SetOf(key)];
    for (int way = 0; way < 2; ++way) {
      if (set[way].key == key && set[way].epoch == epoch) {
        return &set[way];
      }
    }
    return nullptr;
  }

  // Stores `entry` in front of its set.
  void Insert(const WalkEntry& entry);

 private:
  static constexpr int kMinBits = 10;
  static constexpr int kMaxBits = 15;

  // The index of the set's first entry.
  size_t SetOf(const WalkKey& key) const {
    const uint64_t roots = uint64_t{key.ep4ta_frame} << 32 | key.cr3_frame;
    return static_cast<size_t>(((key.page ^ roots * 0x9e3779b97f4a7c15ULL) *
                                0xbf58476d1ce4e5b9ULL) >> (64 - bits_)) & ~size_t{1};
  }

  std::vector<WalkEntry> entries_;
  int bits_ = 0;     // log2 of the entry count.
  size_t used_ = 0;  // Entries held, stale ones included.
};

}  // namespace hw

#endif  // SRC_HW_WALK_CACHE_H_
