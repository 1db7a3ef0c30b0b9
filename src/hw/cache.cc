#include "src/hw/cache.h"

#include <algorithm>
#include <bit>

#include "src/base/logging.h"
#include "src/base/units.h"

namespace hw {

CacheConfig L1iConfig() { return CacheConfig{"L1i", 32 * sb::kKiB, 8, 64}; }
CacheConfig L1dConfig() { return CacheConfig{"L1d", 32 * sb::kKiB, 8, 64}; }
CacheConfig L2Config() { return CacheConfig{"L2", 256 * sb::kKiB, 4, 64}; }
CacheConfig L3Config() { return CacheConfig{"L3", 8 * sb::kMiB, 16, 64}; }

Cache::Cache(const CacheConfig& config) : config_(config), ways_(config.ways) {
  SB_CHECK(std::has_single_bit(config_.line_size)) << "line size must be a power of two";
  const uint64_t num_lines = config_.size_bytes / config_.line_size;
  SB_CHECK(ways_ > 0 && num_lines % ways_ == 0);
  const uint64_t num_sets = num_lines / ways_;
  SB_CHECK(std::has_single_bit(num_sets)) << "set count must be a power of two";
  line_shift_ = std::countr_zero(config_.line_size);
  tag_shift_ = line_shift_ + std::countr_zero(num_sets);
  set_mask_ = num_sets - 1;
  tags_.assign(num_lines, 0);
  stamps_.assign(num_lines, 0);
}

void Cache::Fill(uint64_t base, uint64_t key) {
  ++misses_;
  const uint64_t* tags = &tags_[base];
  const uint64_t* stamps = &stamps_[base];
  // The last invalid way, else the first way with the smallest stamp.
  uint32_t victim = 0;
  bool invalid = false;
  for (uint32_t w = 0; w < ways_; ++w) {
    if (tags[w] == 0) {
      victim = w;
      invalid = true;
    } else if (!invalid && stamps[w] < stamps[victim]) {
      victim = w;
    }
  }
  tags_[base + victim] = key;
  stamps_[base + victim] = tick_;
}

bool Cache::Probe(Hpa paddr) const {
  const uint64_t* tags = &tags_[SetBase(paddr)];
  const uint64_t key = TagKey(paddr);
  for (uint32_t w = 0; w < ways_; ++w) {
    if (tags[w] == key) {
      return true;
    }
  }
  return false;
}

void Cache::Flush() { std::fill(tags_.begin(), tags_.end(), 0); }

}  // namespace hw
