// Set-associative cache model with LRU replacement.
//
// The hierarchy mirrors the paper's Skylake testbed: per-core L1i/L1d and L2,
// one shared L3. Accesses are tracked per 64-byte line; the model answers
// hit/miss and the cycle cost, and feeds the PMU counters used by Table 1.
//
// Host representation (invisible to the model): each set's tags sit next to
// each other, stored as tag + 1 so that 0 means invalid, with the LRU stamps
// in a parallel array. An 8-way hit scan reads one 64-byte host line. Set
// index and tag are shifts, since line size and set count are powers of two.

#ifndef SRC_HW_CACHE_H_
#define SRC_HW_CACHE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/hw/addr.h"

namespace hw {

struct CacheConfig {
  std::string name;
  uint64_t size_bytes = 0;
  uint32_t ways = 8;
  uint32_t line_size = 64;
};

// Skylake-class defaults.
CacheConfig L1iConfig();
CacheConfig L1dConfig();
CacheConfig L2Config();
CacheConfig L3Config();

class Cache {
 public:
  explicit Cache(const CacheConfig& config);

  // Returns true on hit. On miss the line is filled: into the last invalid
  // way if there is one, else into the first way with the oldest stamp.
  // Inline: it runs on every simulated memory access.
  bool Access(Hpa paddr) {
    const uint64_t base = SetBase(paddr);
    const uint64_t key = TagKey(paddr);
    ++tick_;
    for (uint32_t w = 0; w < ways_; ++w) {
      if (tags_[base + w] == key) {
        stamps_[base + w] = tick_;
        ++hits_;
        return true;
      }
    }
    Fill(base, key);
    return false;
  }

  // True if the line is currently resident (no state change).
  bool Probe(Hpa paddr) const;

  void Flush();

  uint64_t hits() const { return hits_; }
  uint64_t misses() const { return misses_; }
  const CacheConfig& config() const { return config_; }

 private:
  // First way of the set holding `paddr` in tags_ / stamps_.
  uint64_t SetBase(Hpa paddr) const { return ((paddr >> line_shift_) & set_mask_) * ways_; }
  // The stored form of the line's tag: never 0.
  uint64_t TagKey(Hpa paddr) const { return (paddr >> tag_shift_) + 1; }
  // Miss path of Access: picks the victim way of the set at `base`.
  void Fill(uint64_t base, uint64_t key);

  CacheConfig config_;
  uint32_t ways_;
  int line_shift_;
  int tag_shift_;
  uint64_t set_mask_;
  std::vector<uint64_t> tags_;    // num_sets * ways, row-major by set; 0 = invalid.
  std::vector<uint64_t> stamps_;  // Parallel to tags_; higher = more recently used.
  uint64_t tick_ = 0;
  uint64_t hits_ = 0;
  uint64_t misses_ = 0;
};

}  // namespace hw

#endif  // SRC_HW_CACHE_H_
