#include "src/x86/rewrite_cache.h"

#include <algorithm>
#include <cstring>

namespace x86 {

uint64_t HashBytes(std::span<const uint8_t> bytes) {
  constexpr uint64_t kMul = 0x9e3779b97f4a7c15ULL;
  uint64_t h = 0xcbf29ce484222325ULL ^ (bytes.size() * kMul);
  const auto mix = [&h](uint64_t word) {
    h = (h ^ word) * kMul;
    h ^= h >> 29;
  };
  size_t i = 0;
  for (; i + 8 <= bytes.size(); i += 8) {
    uint64_t word;
    std::memcpy(&word, bytes.data() + i, 8);
    mix(word);
  }
  if (i < bytes.size()) {
    uint64_t tail = 0;
    std::memcpy(&tail, bytes.data() + i, bytes.size() - i);
    mix(tail);
  }
  h ^= h >> 32;
  h *= 0xd6e8feb86659fd93ULL;
  return h ^ (h >> 32);
}

std::span<const uint8_t> CodePageContext(std::span<const uint8_t> image, size_t page_index) {
  constexpr size_t kPage = 4096;
  constexpr size_t kContext = 64;
  const size_t page_begin = page_index * kPage;
  if (page_begin >= image.size()) {
    return {};
  }
  const size_t begin = page_begin >= kContext ? page_begin - kContext : 0;
  const size_t end = std::min(image.size(), page_begin + kPage + kContext);
  return image.subspan(begin, end - begin);
}

std::optional<PageRewrite> RewriteCache::Lookup(const RewriteCacheKey& key,
                                                std::span<const uint8_t> context) {
  auto it = index_.find(key);
  if (it == index_.end() || !std::ranges::equal(it->second->context, context)) {
    ++stats_.misses;
    return std::nullopt;
  }
  ++stats_.hits;
  lru_.splice(lru_.begin(), lru_, it->second);
  return it->second->value;
}

void RewriteCache::Insert(const RewriteCacheKey& key, std::span<const uint8_t> context,
                          PageRewrite value) {
  auto it = index_.find(key);
  if (it != index_.end()) {
    it->second->context.assign(context.begin(), context.end());
    it->second->value = std::move(value);
    lru_.splice(lru_.begin(), lru_, it->second);
    return;
  }
  lru_.push_front(Entry{key, {context.begin(), context.end()}, std::move(value)});
  index_[key] = lru_.begin();
  while (max_entries_ > 0 && lru_.size() > max_entries_) {
    index_.erase(lru_.back().key);
    lru_.pop_back();
    ++stats_.evictions;
  }
}

void RewriteCache::Invalidate(const RewriteCacheKey& key) {
  auto it = index_.find(key);
  if (it == index_.end()) {
    return;
  }
  lru_.erase(it->second);
  index_.erase(it);
  ++stats_.invalidations;
}

}  // namespace x86
