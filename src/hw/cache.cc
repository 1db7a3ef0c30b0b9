#include "src/hw/cache.h"

#include <algorithm>
#include <bit>

#include "src/base/logging.h"
#include "src/base/units.h"

namespace hw {

CacheConfig L1iConfig() { return CacheConfig{"L1i", 32 * sb::kKiB, 8}; }
CacheConfig L1dConfig() { return CacheConfig{"L1d", 32 * sb::kKiB, 8}; }
CacheConfig L2Config() { return CacheConfig{"L2", 256 * sb::kKiB, 4}; }
CacheConfig L3Config() { return CacheConfig{"L3", 8 * sb::kMiB, 16}; }

namespace {

// log2(line size) + log2(set count): what `address >> shift` leaves is the tag.
int TagShift(const CacheConfig& config) {
  const uint64_t num_lines = config.size_bytes / kCacheLineBytes;
  SB_CHECK(config.ways > 0 && num_lines % config.ways == 0);
  const uint64_t num_sets = num_lines / config.ways;
  SB_CHECK(std::has_single_bit(num_sets)) << "set count must be a power of two";
  return std::countr_zero(kCacheLineBytes) + std::countr_zero(num_sets);
}

}  // namespace

Cache::Cache(const CacheConfig& config)
    : config_(config),
      ways_(config.ways),
      line_shift_(std::countr_zero(kCacheLineBytes)),
      tag_shift_(TagShift(config)),
      set_mask_((uint64_t{1} << (tag_shift_ - line_shift_)) - 1),
      keys_(config.size_bytes / kCacheLineBytes, 0) {}

uint64_t Cache::AddressLimit(const CacheConfig& config) {
  // A key, (address >> shift) + 1, must lie in [1, 2^32 - 1].
  return uint64_t{UINT32_MAX} << TagShift(config);
}

bool Cache::Probe(Hpa paddr) const {
  const uint32_t* row = &keys_[SetBase(paddr)];
  const uint32_t key = TagKey(paddr);
  for (uint32_t w = 0; w < ways_; ++w) {
    if (row[w] == key) {
      return true;
    }
  }
  return false;
}

void Cache::Flush() { std::fill(keys_.begin(), keys_.end(), 0); }

}  // namespace hw
