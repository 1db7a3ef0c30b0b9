#include "src/hw/walk_cache.h"

#include <utility>

namespace hw {

void WalkCache::Insert(const WalkEntry& entry) {
  if (entries_.empty()) {
    bits_ = kMinBits;
    entries_.resize(size_t{1} << bits_);
  }
  WalkEntry* set = &entries_[SetOf(entry.key)];
  const bool fills = set[1].key.page == 0;
  set[1] = set[0];
  set[0] = entry;
  if (!fills || ++used_ * 2 <= entries_.size() || bits_ == kMaxBits) {
    return;
  }
  // Half full: double the table, keeping the entries still valid in their
  // order. Doubling adds one index bit, so each new set takes entries from
  // one old set only.
  const std::vector<WalkEntry> old = std::exchange(entries_, {});
  ++bits_;
  entries_.resize(size_t{1} << bits_);
  used_ = 0;
  for (const WalkEntry& e : old) {
    if (e.key.page != 0 && e.epoch == entry.epoch) {
      WalkEntry* to = &entries_[SetOf(e.key)];
      to[to[0].key.page == 0 ? 0 : 1] = e;
      ++used_;
    }
  }
}

}  // namespace hw
