// Content-hashed rewrite cache (staged registration, DESIGN.md section 17).
//
// Forked / templated processes share byte-identical code pages, so the
// expensive per-page scan + rewrite (RewriteVmfuncPage) only needs to run
// once per distinct page content. The cache key is
//
//   (content hash of the page plus 64 B of boundary context on each side,
//    page index, backend pattern id)
//
// The boundary context is part of the key because a rewrite window that
// straddles a page edge patches a few bytes of the neighbouring page; the
// context bytes pin the instruction stream the recorded patches assumed.
// The page index is part of the key because emitted snippets encode absolute
// jump displacements derived from the page's position in the image. The
// pattern id keeps backends apart: an MPK (WRPKRU) rewrite must never
// satisfy an EPTP (VMFUNC) lookup for the same bytes.
//
// The hash only finds the entry. Each entry keeps the page-plus-context
// bytes its patches were computed from, and a lookup whose bytes differ is a
// miss: a client controls its code image, so a crafted hash collision must
// not replay another page's patches and leave a gate instruction unscrubbed.
//
// Entries are LRU-evicted under a bounded budget. Lookup returns the entry
// by value so callers never hold references across an eviction.

#ifndef SRC_X86_REWRITE_CACHE_H_
#define SRC_X86_REWRITE_CACHE_H_

#include <cstdint>
#include <list>
#include <optional>
#include <span>
#include <unordered_map>
#include <vector>

#include "src/x86/rewriter.h"

namespace x86 {

// 64-bit hash that mixes eight bytes per step (multiply plus xor-shift).
// Not collision-resistant against a chosen input: its values only index
// host-side tables (this cache, the snapshot library), whose hits are
// confirmed against the bytes. Never simulated or printed.
uint64_t HashBytes(std::span<const uint8_t> bytes);

// Code page `page_index` of `image` plus up to 64 bytes of context on each
// side (clamped to the image; empty past the image end). Its HashBytes is
// the `content_hash` half of the cache key; identical pages in identical
// neighbourhoods collide by construction.
std::span<const uint8_t> CodePageContext(std::span<const uint8_t> image, size_t page_index);

struct RewriteCacheKey {
  uint64_t content_hash = 0;
  uint32_t page_index = 0;
  uint32_t pattern_id = 0;  // 0 = VMFUNC (EPTP backend), 1 = WRPKRU (MPK).

  bool operator==(const RewriteCacheKey& rhs) const = default;
};

struct RewriteCacheStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t evictions = 0;
  uint64_t invalidations = 0;
};

class RewriteCache {
 public:
  explicit RewriteCache(size_t max_entries = 4096) : max_entries_(max_entries) {}

  RewriteCache(const RewriteCache&) = delete;
  RewriteCache& operator=(const RewriteCache&) = delete;

  // Counts a hit (and refreshes LRU position) or a miss. `context` is the
  // page-plus-context bytes the key was hashed from; an entry recorded for
  // other bytes under the same key is a miss.
  std::optional<PageRewrite> Lookup(const RewriteCacheKey& key,
                                    std::span<const uint8_t> context);

  // Inserts or replaces the rewrite computed from `context`; evicts the
  // least-recently-used entry over budget.
  void Insert(const RewriteCacheKey& key, std::span<const uint8_t> context, PageRewrite value);

  // Drops the entry if present (UpdateProcessCode dirty-page invalidation).
  void Invalidate(const RewriteCacheKey& key);

  size_t size() const { return lru_.size(); }
  size_t max_entries() const { return max_entries_; }
  RewriteCacheStats stats() const { return stats_; }

 private:
  struct KeyHash {
    size_t operator()(const RewriteCacheKey& key) const {
      uint64_t h = key.content_hash;
      h ^= (static_cast<uint64_t>(key.page_index) << 32) | key.pattern_id;
      h *= 0x9e3779b97f4a7c15ULL;
      return static_cast<size_t>(h ^ (h >> 32));
    }
  };
  struct Entry {
    RewriteCacheKey key;
    std::vector<uint8_t> context;
    PageRewrite value;
  };

  const size_t max_entries_;
  std::list<Entry> lru_;  // Front = most recently used.
  std::unordered_map<RewriteCacheKey, std::list<Entry>::iterator, KeyHash> index_;
  RewriteCacheStats stats_;
};

}  // namespace x86

#endif  // SRC_X86_REWRITE_CACHE_H_
