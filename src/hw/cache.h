// Set-associative cache model with LRU replacement.
//
// The hierarchy mirrors the paper's Skylake testbed: per-core L1i/L1d and L2,
// one shared L3. Accesses are tracked per 64-byte line; the model answers
// hit/miss and the cycle cost, and feeds the PMU counters used by Table 1.
//
// Host representation (invisible to the model): one 32-bit key per way, the
// line's tag + 1 so that 0 means empty, in a single array. Each set's row is
// kept most recently used first, so the empty ways sit at its end and there
// are no LRU stamps: a hit moves its key to the front, and a miss pushes the
// row down by one, dropping the LRU line (or an empty way) off the end. A
// 16-way L3 set is one 64-byte host line. Set index and tag are shifts, since
// line size and set count are powers of two. A key must neither wrap to 0
// nor lose tag bits, so every address passed in stays below AddressLimit;
// Machine checks its RAM against the limit of every cache config it builds.

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

  // One past the highest address a cache built from `config` keeps a
  // distinct line key for.
  static uint64_t AddressLimit(const CacheConfig& config);

  // Returns true on hit. Either way the line becomes the set's most recent.
  // Inline: it runs on every simulated memory access.
  bool Access(Hpa paddr) {
    uint32_t* row = &keys_[SetBase(paddr)];
    const uint32_t key = TagKey(paddr);
    // Shift the row down by one until the key's old place is overwritten.
    uint32_t carry = key;
    for (uint32_t w = 0; w < ways_; ++w) {
      const uint32_t held = row[w];
      row[w] = carry;
      if (held == key) {
        return true;
      }
      carry = held;
    }
    return false;
  }

  // True if the line is currently resident (no state change).
  bool Probe(Hpa paddr) const;

  void Flush();

  const CacheConfig& config() const { return config_; }

 private:
  // First way of the set holding `paddr` in keys_.
  uint64_t SetBase(Hpa paddr) const { return ((paddr >> line_shift_) & set_mask_) * ways_; }
  // The stored form of the line's tag: never 0.
  uint32_t TagKey(Hpa paddr) const { return static_cast<uint32_t>((paddr >> tag_shift_) + 1); }

  CacheConfig config_;
  uint32_t ways_;
  int line_shift_;
  int tag_shift_;
  uint64_t set_mask_;
  std::vector<uint32_t> keys_;  // num_sets * ways, row-major by set, MRU first; 0 = empty.
};

}  // namespace hw

#endif  // SRC_HW_CACHE_H_
