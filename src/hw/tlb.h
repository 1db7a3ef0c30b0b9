// TLB model with VPID / PCID / EP4TA tagging.
//
// Entries are tagged the way post-Westmere hardware tags them: by virtual
// page, page size, VPID, PCID and — for combined (guest VA -> HPA) mappings —
// the EPT root in use (EP4TA). This is what makes VMFUNC EPTP switching with
// VPID enabled *not* flush the TLB (Table 2): translations cached under the
// old EPTP simply stop matching, while the new EPTP's entries may still be
// warm from an earlier visit.

#ifndef SRC_HW_TLB_H_
#define SRC_HW_TLB_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/hw/addr.h"

namespace hw {

struct TlbKey {
  uint64_t vpn = 0;         // gva >> page_shift
  uint8_t page_shift = 12;  // 12, 21 or 30
  uint16_t vpid = 0;
  uint16_t pcid = 0;
  Hpa ep4ta = 0;  // 0 in native (non-virtualized) mode.

  bool operator==(const TlbKey& other) const = default;
};

struct TlbEntry {
  Hpa frame = 0;  // Host-physical base of the page.
  bool global = false;
  bool writable = true;
};

// LRU-replaced translation cache of fixed capacity.
//
// Host representation (invisible to the model): entries live in one array,
// grown as entries arrive, and are linked into the LRU list by index; a
// power-of-two open-addressed index (linear probing, backward-shift
// deletion, at most half full) maps keys to entries. Nothing is allocated
// once the TLB has filled.
class Tlb {
 public:
  explicit Tlb(size_t capacity);

  // Probes 4K, 2M and 1G translations for `gva` under the given tags.
  // Returns the matched entry and sets *page_shift, or nullptr on miss. The
  // pointer is valid until the next Insert.
  const TlbEntry* Lookup(Gva gva, uint16_t vpid, uint16_t pcid, Hpa ep4ta, uint8_t* page_shift);

  void Insert(Gva gva, uint8_t page_shift, uint16_t vpid, uint16_t pcid, Hpa ep4ta,
              const TlbEntry& entry);

  // Flushes non-global entries with the given (vpid, pcid) — MOV CR3 semantics.
  void FlushPcid(uint16_t vpid, uint16_t pcid);

  uint64_t hits() const { return hits_; }
  uint64_t misses() const { return misses_; }
  size_t size() const { return size_; }
  size_t capacity() const { return capacity_; }

 private:
  static constexpr uint32_t kNil = ~uint32_t{0};

  struct Node {
    TlbKey key;  // page_shift 0 marks a node on the free list.
    TlbEntry entry;
    uint32_t prev = kNil;  // Towards the most recently used end.
    uint32_t next = kNil;  // Towards the LRU end; free-list link when free.
  };
  struct Slot {
    uint32_t node = kNil;  // kNil = empty.
    uint32_t hash = 0;     // Low bits of the key's hash: home slot + filter.
  };

  static uint32_t Hash(const TlbKey& key);
  // Node index for `key`, or kNil.
  uint32_t Find(const TlbKey& key) const;
  // Like Find, but only a global entry matches.
  uint32_t FindGlobal(const TlbKey& key) const;
  void IndexInsert(uint32_t hash, uint32_t node);
  void IndexErase(uint32_t node);
  void GrowIndex();
  void Unlink(uint32_t node);
  void PushFront(uint32_t node);
  void Touch(uint32_t node);
  // Unlinks and unindexes a live node.
  void Detach(uint32_t node);

  size_t capacity_;
  size_t size_ = 0;
  std::vector<Node> nodes_;   // Grows to at most capacity_.
  std::vector<Slot> index_;   // Power of two, at least 2 * nodes_.size().
  uint32_t head_ = kNil;      // Most recently used.
  uint32_t tail_ = kNil;      // Least recently used.
  uint32_t free_ = kNil;      // Nodes released by FlushPcid.
  uint32_t per_size_[3] = {};  // Live entries per page size (4K, 2M, 1G).
  uint64_t hits_ = 0;
  uint64_t misses_ = 0;
};

}  // namespace hw

#endif  // SRC_HW_TLB_H_
