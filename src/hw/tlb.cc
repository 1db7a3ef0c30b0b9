#include "src/hw/tlb.h"

#include <utility>

#include "src/base/logging.h"

namespace hw {
namespace {

constexpr size_t kInitialIndexSlots = 16;

// 4K, 2M and 1G pages map to 0, 1 and 2.
int SizeClass(uint8_t page_shift) { return (page_shift - 12) / 9; }

}  // namespace

Tlb::Tlb(size_t capacity) : capacity_(capacity), index_(kInitialIndexSlots) {
  SB_CHECK(capacity > 0);
  SB_CHECK(capacity < kNil / 4);
}

uint32_t Tlb::Hash(const TlbKey& k) {
  uint64_t h = k.vpn * 0x9e3779b97f4a7c15ULL;
  h ^= (static_cast<uint64_t>(k.page_shift) << 48) ^ (static_cast<uint64_t>(k.vpid) << 32) ^
       (static_cast<uint64_t>(k.pcid) << 16) ^ (k.ep4ta >> 12);
  h *= 0xbf58476d1ce4e5b9ULL;
  return static_cast<uint32_t>(h ^ (h >> 31));
}

uint32_t Tlb::Find(const TlbKey& key) const {
  const uint32_t hash = Hash(key);
  const size_t mask = index_.size() - 1;
  for (size_t i = hash & mask;; i = (i + 1) & mask) {
    const Slot& slot = index_[i];
    if (slot.node == kNil) {
      return kNil;
    }
    if (slot.hash == hash && nodes_[slot.node].key == key) {
      return slot.node;
    }
  }
}

uint32_t Tlb::FindGlobal(const TlbKey& key) const {
  const uint32_t node = Find(key);
  return node != kNil && nodes_[node].entry.global ? node : kNil;
}

void Tlb::IndexInsert(uint32_t hash, uint32_t node) {
  const size_t mask = index_.size() - 1;
  size_t i = hash & mask;
  while (index_[i].node != kNil) {
    i = (i + 1) & mask;
  }
  index_[i] = Slot{node, hash};
}

void Tlb::IndexErase(uint32_t node) {
  const size_t mask = index_.size() - 1;
  size_t hole = Hash(nodes_[node].key) & mask;
  while (index_[hole].node != node) {
    hole = (hole + 1) & mask;
  }
  // Backward-shift deletion: pull each later entry of the probe run into the
  // hole unless its home slot lies cyclically in (hole, i].
  for (size_t i = (hole + 1) & mask; index_[i].node != kNil; i = (i + 1) & mask) {
    const size_t home = index_[i].hash & mask;
    if (((i - home) & mask) >= ((i - hole) & mask)) {
      index_[hole] = index_[i];
      hole = i;
    }
  }
  index_[hole] = Slot{};
}

void Tlb::GrowIndex() {
  std::vector<Slot> old = std::exchange(index_, std::vector<Slot>(index_.size() * 2));
  for (const Slot& slot : old) {
    if (slot.node != kNil) {
      IndexInsert(slot.hash, slot.node);
    }
  }
}

void Tlb::Unlink(uint32_t node) {
  const Node& n = nodes_[node];
  if (n.prev != kNil) {
    nodes_[n.prev].next = n.next;
  } else {
    head_ = n.next;
  }
  if (n.next != kNil) {
    nodes_[n.next].prev = n.prev;
  } else {
    tail_ = n.prev;
  }
}

void Tlb::PushFront(uint32_t node) {
  Node& n = nodes_[node];
  n.prev = kNil;
  n.next = head_;
  if (head_ != kNil) {
    nodes_[head_].prev = node;
  } else {
    tail_ = node;
  }
  head_ = node;
}

void Tlb::Touch(uint32_t node) {
  if (node != head_) {
    Unlink(node);
    PushFront(node);
  }
}

void Tlb::Detach(uint32_t node) {
  IndexErase(node);
  Unlink(node);
  --per_size_[SizeClass(nodes_[node].key.page_shift)];
  --size_;
}

const TlbEntry* Tlb::Lookup(Gva gva, uint16_t vpid, uint16_t pcid, Hpa ep4ta,
                            uint8_t* page_shift) {
  // A page size with no entry cannot match, so its probes are skipped.
  uint32_t node = kNil;
  uint8_t shift = 12;
  for (const uint8_t s : {uint8_t{12}, uint8_t{21}, uint8_t{30}}) {
    if (per_size_[SizeClass(s)] == 0) {
      continue;
    }
    node = Find(TlbKey{gva >> s, s, vpid, pcid, ep4ta});
    if (node == kNil && s != 12 && pcid != 0) {
      // Global kernel mappings match regardless of PCID; they are inserted
      // under PCID 0 with global=true. Retry the global tag.
      node = FindGlobal(TlbKey{gva >> s, s, vpid, 0, ep4ta});
    }
    if (node != kNil) {
      shift = s;
      break;
    }
  }
  // Also probe 4K global entries under PCID 0.
  if (node == kNil && pcid != 0 && per_size_[0] != 0) {
    node = FindGlobal(TlbKey{gva >> 12, 12, vpid, 0, ep4ta});
  }
  if (node == kNil) {
    ++misses_;
    return nullptr;
  }
  Touch(node);
  ++hits_;
  if (page_shift != nullptr) {
    *page_shift = shift;
  }
  return &nodes_[node].entry;
}

void Tlb::Insert(Gva gva, uint8_t page_shift, uint16_t vpid, uint16_t pcid, Hpa ep4ta,
                 const TlbEntry& entry) {
  SB_DCHECK(page_shift == 12 || page_shift == 21 || page_shift == 30);
  // Global entries are stored under PCID 0 so every PCID finds them.
  const uint16_t effective_pcid = entry.global ? 0 : pcid;
  const TlbKey key{gva >> page_shift, page_shift, vpid, effective_pcid, ep4ta};
  if (const uint32_t hit = Find(key); hit != kNil) {
    nodes_[hit].entry = entry;
    Touch(hit);
    return;
  }
  uint32_t node;
  if (size_ >= capacity_) {
    node = tail_;
    Detach(node);
  } else if (free_ != kNil) {
    node = free_;
    free_ = nodes_[node].next;
  } else {
    if (2 * (nodes_.size() + 1) > index_.size()) {
      GrowIndex();
    }
    node = static_cast<uint32_t>(nodes_.size());
    nodes_.emplace_back();
  }
  nodes_[node].key = key;
  nodes_[node].entry = entry;
  PushFront(node);
  IndexInsert(Hash(key), node);
  ++per_size_[SizeClass(page_shift)];
  ++size_;
}

void Tlb::FlushPcid(uint16_t vpid, uint16_t pcid) {
  // Removal leaves the survivors' LRU order untouched, so scanning the node
  // array instead of the list removes the same set.
  for (uint32_t i = 0; i < nodes_.size(); ++i) {
    Node& n = nodes_[i];
    if (n.key.page_shift != 0 && n.key.vpid == vpid && n.key.pcid == pcid && !n.entry.global) {
      Detach(i);
      n.key.page_shift = 0;
      n.next = free_;
      free_ = i;
    }
  }
}

}  // namespace hw
